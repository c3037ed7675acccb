"""The benchmark's own test: every workload at smoke size, untraced and
traced, with every check; the checkers' self-test; and the refusal to
run without the program's source.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.check import matches, perturbations, self_test, split_items  # noqa: E402


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["query-mix", "serve-http", "write-mix"])
def test_smoke_run_is_correct(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    probes = 2 if workload == "serve-http" else 0  # 1 in 50 of a 120-op round
    assert result["failed"] * 120 == result["attempted"] * probes
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "--workload", "query-mix", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_checkers_reject_perturbed_answers():
    xml = '<b>1</b><b>2</b><c x="1"/>'
    assert split_items("xml", xml) == ["<b>1</b>", "<b>2</b>", '<c x="1"/>']
    for wrong in perturbations("exact", "xml", xml):
        assert not matches("exact", xml, wrong)
    assert matches("distinct", "a\nb\na", "b\na")
    assert not matches("distinct", "a\nb", "a")
    assert self_test({1: ("exact", "values", "x\ny"), 2: ("distinct", "values", "x\ny\nx")}) == 3
