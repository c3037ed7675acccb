"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The seed makes every input; the program receives only the
generated XML text, queries and update ops.  With ``--trace 0`` the last
line of standard output is the end-to-end result; with ``--trace 1`` it
is the per-layer ledger of a separate traced run.  The line before it
records provenance (commit, Python, platform, CPU count, date and a
calibration loop) and run details.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The ledger must account for each op's latency to within this share of
#: it, plus an absolute slack for the benchmark loop's own statements.
LEDGER_TOLERANCE = (0.05, 50e-6)
#: Share of ops allowed outside LEDGER_TOLERANCE (a collection pause in
#: the benchmark loop's own statements lands in no layer).
LEDGER_OUTLIERS = 0.01
#: Every answer from a child must arrive within this many seconds of the
#: run's start, so a hung child fails the run well inside 180 s.
RUN_DEADLINE_S = 170.0
_started = time.monotonic()


def calibration_ms(repeats: int = 5) -> list[float]:
    """A fixed pure-Python loop, timed: a slow or busy machine shows here."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1e3)
    return times


def provenance() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, subdirs, files in sorted(os.walk(source)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class RunError(Exception):
    pass


def _spawn(target, *args):
    context = multiprocessing.get_context("spawn")
    parent, child = context.Pipe()
    process = context.Process(target=target, args=(child, *args), daemon=True)
    process.start()
    child.close()
    return process, parent


def _receive(conn, process):
    if not conn.poll(max(1.0, _started + RUN_DEADLINE_S - time.monotonic())):
        raise RunError(f"{process.name} did not answer within {RUN_DEADLINE_S:.0f} s of the start")
    try:
        message = conn.recv()
    except EOFError:
        raise RunError(f"{process.name} exited without answering") from None
    if message[0] == "error":
        raise RunError(message[1])
    return message


def _stop(process) -> None:
    process.join(10)
    if process.is_alive():
        process.terminate()
        process.join(10)
    if process.is_alive():
        process.kill()
        process.join()


def _stop_resource_tracker() -> None:
    """End and reap the helper process that the spawn start method runs
    beside the children.  Left to itself it outlives this process and
    stays behind as an unreaped orphan; every child is joined by now, so
    closing its pipe ends it at once."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        tracker._stop()


# -- checks -------------------------------------------------------------------


def check_answers(expected: dict, answers: dict, mismatches: list, problems: list) -> None:
    from perfbench.check import matches

    for key, (mode, _fmt, text) in expected.items():
        actual = answers.get(key)
        if actual is None:
            problems.append(f"no answer for {key!r}")
        elif not matches(mode, text, actual):
            problems.append(f"wrong answer for {key!r}: {actual[:120]!r} != {text[:120]!r}")
    for where, text in mismatches:
        problems.append(f"answer at round/position {where} differs from its first: {text[:120]!r}")


def check_writes(workload: dict, report: dict, problems: list) -> int:
    """WAL replay equals the live store; no load-time number moved."""
    from perfbench.check import rejects_swap
    from perfbench.oracle import expected_numbering, replayed_image

    live = report["live_image"]
    replayed = replayed_image(report["durable_dir"])
    if replayed != live:
        problems.append("reopening the durable directory gave a different store")
    flipped = bytes([live[-1] ^ 1])
    if live[:-1] + flipped == live:
        raise AssertionError("image checker accepted a perturbed image")
    checked = 1
    for uri, model in workload["models"].items():
        want = expected_numbering(model)
        if report["numbering"][uri] != want:
            problems.append(f"PBN numbers of {uri} moved")
        if not rejects_swap(lambda got, w=want: got == w, want):
            raise AssertionError("numbering checker accepted swapped numbers")
        checked += 1
    return checked


# -- metrics --------------------------------------------------------------------


def end_to_end(setup_times: list, rounds: list, rss: float) -> dict:
    """The end-to-end metrics.  ``rounds`` holds, per round, its op
    latencies (answered queries and updates), their classes, the ops
    completed and the round's wall time.  Each timing is computed per
    round (a round has at least 1000 ops, so p99 has ten samples beyond
    it) and the median over the run's rounds is reported: a burst of
    contention on the machine moves one round, not the figure."""
    from perfbench.check import percentile

    def per_round(fn) -> float:
        return statistics.median(fn(*group) for group in rounds)

    def p50(cls):
        return lambda lat, classes, _c, _w: statistics.median(
            v for v, c in zip(lat, classes) if c == cls) * 1e3

    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "throughput_ops_s": {"value": per_round(lambda _l, _c, done, wall: done / wall),
                             "unit": "ops/s"},
        "doc_query_p50_ms": {"value": per_round(p50("doc")), "unit": "ms"},
        "view_query_p50_ms": {"value": per_round(p50("view")), "unit": "ms"},
        "p99_ms": {"value": per_round(lambda lat, *_: percentile(lat, 99) * 1e3), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }


LAYER_US = ("serve.http", "serve.handle", "shard.execute", "shard.update",
            "service.execute", "service.update", "query.engine_doc", "query.engine_view",
            "query.parse", "core.view_build", "xmlmodel.serialize", "updates.apply",
            "updates.wal_fsync")
_US_NAMES = {"serve.handle": "serve.handle_self_us", "shard.execute": "shard.execute_self_us",
             "shard.update": "shard.update_self_us", "service.execute": "service.execute_self_us",
             "service.update": "service.update_self_us"}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(totals: dict, ops: int, layer: dict, extra: dict) -> dict:
    """The per-layer metrics: µs per timed op (so the layers add up to the
    mean op latency), ratios, and counts."""
    metrics = {}
    for name in LAYER_US:
        metrics[_US_NAMES.get(name, name + "_us")] = (totals.get(name, 0.0) / ops * 1e6, "us")
    counters = layer["counters"]
    storage = layer["storage"]
    kernels = layer["kernels"]
    metrics.update({
        "serve.unanswered_requests": (extra["unanswered"], "count"),
        "shard.fanout": (extra["fanout"], "shards"),
        "service.plan_cache_hit_ratio": (_ratio(counters["plan_hits"], counters["plan_misses"]), "ratio"),
        "service.view_cache_hit_ratio": (_ratio(counters["view_hits"], counters["view_misses"]), "ratio"),
        "service.view_evictions": (counters["view_evictions"], "count"),
        "query.cas_hit_ratio": (_ratio(counters["cas_hit"], counters["cas_decline"]), "ratio"),
        "query.aggregate_hit_ratio": (_ratio(counters["agg_hit"], counters["agg_decline"]), "ratio"),
        "core.views_built": (extra["views_built"], "count"),
        "storage.index_range_scans_per_op": (storage["index_range_scans"] / layer["ops"], "count"),
        "storage.index_probes_per_op": (storage["index_probes"] / layer["ops"], "count"),
        "storage.comparisons_per_op": (storage["comparisons"] / layer["ops"], "count"),
        "storage.page_reads_per_op": (storage["page_reads"] / layer["ops"], "count"),
        "storage.buffer_hit_ratio": (
            _ratio(storage["buffer_hits"], storage["page_reads"]), "ratio"),
        "storage.column_bytes": (storage["column_bytes"], "bytes"),
        "updates.wal_bytes_per_update": (layer.get("wal_bytes_per_update", 0.0), "bytes"),
        "trace.overhead_pct": (extra["overhead_pct"], "%"),
        "trace.unattributed_pct": (extra["unattributed_pct"], "%"),
    })
    for kernel in ("columnar", "cas", "prefix-sum", "scalar"):
        metrics[f"query.kernel_steps.{kernel}"] = (kernels.get(kernel, 0), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def ledger_metrics(roots, classes, latencies, untraced, covered, layer, unanswered,
                   problems) -> dict:
    """The per-layer metrics of a traced phase.

    ``roots`` are the ops' span trees, ``classes`` their query classes and
    ``latencies`` their latencies as the benchmark loop timed them; ``untraced``
    the latencies of the untraced phase before.  ``covered(root, layers,
    latency)`` is the part of an op's latency its layers account for: each
    op must be covered to within LEDGER_TOLERANCE."""
    from perfbench.ledger import attribute, count_layer, fanout

    totals: dict = {}
    fanouts: list = []
    views_built = 0
    outside = 0
    unattributed = 0.0
    share, slack = LEDGER_TOLERANCE
    for root, cls, latency in zip(roots, classes, latencies):
        layers: dict = {}
        attribute(root, layers)
        engine = layers.pop("query.engine", None)
        if engine is not None:
            layers[f"query.engine_{cls}"] = engine
        for name, value in layers.items():
            totals[name] = totals.get(name, 0.0) + value
        fanouts.extend(fanout(root))
        views_built += count_layer(root, "core.view_build")
        residual = latency - covered(root, layers, latency)
        unattributed += residual
        outside += abs(residual) > share * latency + slack
    if outside > LEDGER_OUTLIERS * len(roots):
        problems.append(
            f"ledger: {outside} of {len(roots)} ops differ from their latency by more "
            f"than {share:.0%} + {slack * 1e6:.0f} us"
        )
    extra = {
        "unanswered": unanswered,
        "fanout": statistics.mean(fanouts) if fanouts else 0.0,
        "views_built": views_built,
        "overhead_pct": 100.0 * (statistics.mean(latencies) / statistics.mean(untraced) - 1),
        "unattributed_pct": 100.0 * unattributed / sum(latencies),
    }
    return per_layer(totals, len(roots), layer, extra)


# -- the workloads ----------------------------------------------------------------


def run_inprocess(workload, expected, args, workdir, problems) -> tuple:
    from perfbench.ledger import Span
    from perfbench.measured import inprocess_main

    options = {"seconds": args.seconds, "trace": args.trace, "setups": SETUPS,
               "workdir": workdir}
    process, conn = _spawn(inprocess_main, workload, options)
    try:
        report = _receive(conn, process)[1]
    finally:
        conn.close()
        _stop(process)
    check_answers(expected, report["answers"], report["mismatches"], problems)
    checked = 0
    if workload["durable"] is not None:
        checked = check_writes(workload, report, problems)
    timed = report["timed"]
    ops = len(timed["latencies"])
    attempted = ops + (len(report["untraced"]["latencies"]) if args.trace else 0)
    detail = {"rounds": timed["rounds"], "ops": ops, "wall_s": timed["wall"],
              "setup_times_s": report["setup_times"], "image_checks": checked}
    if not args.trace:
        n = len(workload["round"])
        rounds = [(timed["latencies"][r * n:(r + 1) * n], timed["classes"], n, wall)
                  for r, wall in enumerate(timed["round_walls"])]
        metrics = end_to_end(report["setup_times"], rounds, report["peak_rss_mb"])
        return metrics, attempted, 0, detail
    n = len(workload["round"])
    metrics = ledger_metrics(
        [Span.from_tuple(tree) for tree in timed["spans"]],
        [timed["classes"][i % n] for i in range(ops)],
        timed["latencies"], report["untraced"]["latencies"],
        # the root span opens just before the loop's clock starts; its
        # own self time ("bench") is in no layer
        lambda root, layers, _latency: root.t1 - root.t0 - layers["bench"],
        report["layer"], 0, problems,
    )
    return metrics, attempted, 0, detail


def run_serve(workload, expected, args, workdir, problems) -> tuple:
    from perfbench.ledger import Span
    from perfbench.loadgen import client_main
    from perfbench.measured import server_main

    options = {"setups": SETUPS}
    server, sconn = _spawn(server_main, workload, options)
    phases = []
    try:
        _, port, setup_times = _receive(sconn, server)
        plan = [("untraced", args.seconds / 2), ("traced", args.seconds / 2)] \
            if args.trace else [("timed", args.seconds)]
        for tag, seconds in plan:
            if tag == "traced":
                sconn.send(("trace",))
                _receive(sconn, server)
            client, cconn = _spawn(client_main, port, workload, seconds, tag[0])
            try:
                phases.append(_receive(cconn, client)[1])
            finally:
                cconn.close()
                _stop(client)
        timed = phases[-1]
        answered = sum(1 for r in timed["records"]
                       if workload["round"][r[1]][0] == "q" and r[5])
        sconn.send(("stop", answered))
        report = _receive(sconn, server)[1]
    finally:
        sconn.close()
        _stop(server)
    for phase in phases:
        check_answers(expected, phase["answers"], phase["mismatches"], problems)
    attempted = sum(len(phase["records"]) for phase in phases)
    failed = 0
    for phase in phases:
        for key, position, t0, t1, status, ok in phase["records"]:
            if ok:
                continue
            failed += 1
            if workload["round"][position][0] != "p":
                problems.append(f"query request {key} failed with status {status}")
    records = [r for r in timed["records"] if workload["round"][r[1]][0] == "q" and r[5]]
    detail = {"rounds": timed["rounds"], "ops": len(timed["records"]), "wall_s": timed["wall"],
              "setup_times_s": setup_times}
    if not args.trace:
        rounds = []
        for number, wall in enumerate(timed["round_walls"]):
            mine = [r for r in timed["records"] if r[0].startswith(f"t{number}-")]
            answered = [r for r in mine if workload["round"][r[1]][0] == "q" and r[5]]
            rounds.append((
                [t1 - t0 for _, _, t0, t1, _, _ in answered],
                [workload["queries"][workload["round"][r[1]][1]]["cls"] for r in answered],
                sum(1 for r in mine if r[5]), wall,
            ))
        metrics = end_to_end(setup_times, rounds, report["peak_rss_mb"])
        return metrics, attempted, failed, detail
    roots, classes = [], []
    for key, position, t0, t1, _, _ in records:
        tree = report["spans"].get(key)
        if tree is None:
            problems.append(f"ledger: no server span for {key}")
            continue
        root = Span("serve.http", None, t0)
        root.t1 = t1
        root.children.append(Span.from_tuple(tree))
        roots.append(root)
        classes.append(workload["queries"][workload["round"][position][1]]["cls"])

    def covered(root, _layers, latency):
        # the server's handle interval must sit inside the client's round trip
        handle = root.children[0]
        return latency - max(0.0, root.t0 - handle.t0) - max(0.0, handle.t1 - root.t1)

    metrics = ledger_metrics(
        roots, classes, [root.t1 - root.t0 for root in roots],
        [t1 - t0 for _, p, t0, t1, _, ok in phases[0]["records"]
         if ok and workload["round"][p][0] == "q"],
        covered, report["layer"], sum(1 for r in timed["records"] if r[4] is None), problems,
    )
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["query-mix", "serve-http", "write-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: tiny documents and rounds, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    from perfbench.check import self_test
    from perfbench.oracle import static_expected, write_expected
    from perfbench.workloads import build

    calibration = calibration_ms()
    workload = build(args.workload, args.seed, args.size)
    if workload["durable"] is not None:
        expected = write_expected(workload)
    else:
        expected = static_expected(workload)
    checked = self_test(expected)
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    problems: list[str] = []
    try:
        runner = run_serve if args.workload == "serve-http" else run_inprocess
        metrics, attempted, failed, detail = runner(workload, expected, args, workdir, problems)
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    calibration += calibration_ms()
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  self_test_perturbations=checked, problems=problems[:10],
                  calibration_ms=calibration,
                  calibration_median_ms=statistics.median(calibration))
    print(json.dumps({"provenance": provenance(), "detail": detail}))
    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
