"""The measured process: it runs the program and nothing else.

The parent spawns one measured process per run and sends it the
generated inputs.  It sets the program up several times (``setup_s`` is
the median), runs whole rounds of the workload's op sequence until the
run's seconds are spent, and sends back latencies, answers and — in a
traced run — the per-layer ledger.  Oracles never run here, so
``peak_rss_mb`` is the program's alone.
"""

from __future__ import annotations

import asyncio
import gc
import io
import logging
import os
import resource
import shutil
import time
import traceback

from perfbench.ledger import Ledger

#: How ``repro serve --async --shards 2`` assembles the tier with the
#: CLI's defaults (``--threads 4`` gives two engines per shard).
SERVE_SERVICE = {"shards": 2, "pool_size": 2, "trace_sample": 0.01,
                 "trace_buffer": 64, "slow_query_s": 0.5}
SERVE_TIER = {"replicas": 0, "max_inflight": 64, "queue_limit": 128,
              "queue_timeout_s": 0.5, "max_budget": None}

_STORAGE_KEYS = ("index_range_scans", "index_probes", "comparisons",
                 "page_reads", "buffer_hits")


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts later, on the first
    CPU it may use.  The measured process and the load generator share
    that CPU, so a hand-off between threads or between the two processes
    never waits for an idle virtual CPU to be woken up: on a shared VM that
    wake-up delay varies from run to run far more than the program does."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[0]})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_result(result, fmt: str):
    """What the caller reads of a result: its XML, or its string values."""
    return result.to_xml() if fmt == "xml" else result.values()


def as_text(answer) -> str:
    return answer if isinstance(answer, str) else "\n".join(answer)


def kernel_steps(service, queries) -> dict:
    """Axis-step executions per kernel, summed over EXPLAIN ANALYZE of
    each distinct query."""
    counts: dict[str, int] = {}

    def walk(node) -> None:
        if isinstance(node, dict):
            kernel = node.get("attrs", {}).get("kernel") if "operator" in node else None
            if kernel is not None and str(node["operator"]).startswith("step"):
                counts[kernel] = counts.get(kernel, 0) + int(node.get("calls", 1))
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for query in queries:
        walk(service.explain(query["text"]).get("shards", {}))
    return counts


def counters(metrics) -> dict:
    names = {
        "plan_hits": ("cache.plan.hits", None), "plan_misses": ("cache.plan.misses", None),
        "view_hits": ("cache.view.hits", None), "view_misses": ("cache.view.misses", None),
        "view_evictions": ("cache.view.update_evictions", None),
        "cas_hit": ("engine.cas", {"result": "hit"}),
        "cas_decline": ("engine.cas", {"result": "decline"}),
        "agg_hit": ("engine.aggregate", {"result": "hit"}),
        "agg_decline": ("engine.aggregate", {"result": "decline"}),
    }
    return {key: metrics.counter(name, labels) for key, (name, labels) in names.items()}


def layer_report(service, before: dict, stats_before: dict, ops: int) -> dict:
    """Counter and storage deltas of a traced phase, for the ledger."""
    after = counters(service.metrics)
    delta = {key: after[key] - before[key] for key in after}
    stats_after = service.stats.snapshot()
    storage = {key: stats_after[key] - stats_before[key] for key in _STORAGE_KEYS}
    storage["column_bytes"] = stats_after["column_bytes"]
    return {"counters": delta, "storage": storage, "ops": ops}


# -- the in-process workloads (query-mix, write-mix) ---------------------------


def _build(workload: dict, workdir: str):
    from repro.shard import ShardedService

    service = ShardedService(shards=2)
    durable = None
    for uri, text, shard in workload["docs"]:
        if uri == workload["durable"]:
            from repro.updates.durable import DurableStore
            from repro.xmlmodel.parser import parse_document

            directory = os.path.join(workdir, "durable")
            shutil.rmtree(directory, ignore_errors=True)
            DurableStore.create(directory, parse_document(text, uri)).close()
            durable = service.open_durable(directory, uri=uri, shard=shard)
        else:
            service.load(uri, text, shard=shard)
    for uri, spec in workload["views"]:
        service.warm(uri, spec)
    for query in workload["queries"]:
        read_result(service.execute(query["text"]), query["fmt"])
    return service, durable


def _close(tier) -> None:
    service, durable = tier
    if durable is not None:
        durable.close()
    service.close()


def _setups(build, count: int):
    """Set up ``count`` times; keep the last tier, report every time."""
    times = []
    tier = None
    for _ in range(count):
        if tier is not None:
            _close(tier)
            tier = None
            gc.collect()
        started = time.perf_counter()
        tier = build()
        times.append(time.perf_counter() - started)
    return tier, times


class _Answers:
    """First answer per key, and every later answer compared with it."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.mismatches: list = []

    def record(self, key, answer, where) -> None:
        known = self.first.get(key)
        if known is None:
            self.first[key] = answer
        elif known != answer:
            self.mismatches.append((where, as_text(answer)[:200]))


def _ops(workload: dict):
    from repro.updates.ops import op_from_json

    queries = workload["queries"]
    uri = workload["durable"]
    prepared = []
    for kind, index in workload["round"]:
        if kind == "q":
            prepared.append(("q", index, queries[index]["text"], queries[index]["fmt"]))
        else:
            payload = workload["updates"][index]
            op = None if "ref" in payload else op_from_json(payload)
            prepared.append(("u", index, uri, op))
    return prepared


def _run_rounds(service, durable, workload, seconds, state, ledger=None):
    from repro.updates.ops import DeleteSubtree

    prepared = _ops(workload)
    per_position = workload["durable"] is not None
    classes = [workload["queries"][i]["cls"] if k == "q" else "update"
               for k, i in workload["round"]]
    latencies: list[float] = []
    spans: list[tuple] = []
    answers = state["answers"]
    minted = state["minted"]
    perf = time.perf_counter
    rounds = 0
    round_walls: list[float] = []
    wal_bytes = 0
    started = perf()
    while True:
        round_started = perf()
        for position, (kind, index, target, detail) in enumerate(prepared):
            op = ledger.begin() if ledger is not None else None
            if kind == "q":
                t0 = perf()
                answer = read_result(service.execute(target), detail)
                t1 = perf()
                key = position if per_position else index
                answers.record(key, answer, (state["round"], position))
            else:
                update = detail
                if update is None:
                    update = DeleteSubtree(target=minted[workload["updates"][index]["ref"]])
                t0 = perf()
                result = service.update(target, update)
                t1 = perf()
                if result.minted:
                    minted[index] = result.minted[0]
            if op is not None:
                ledger.end(op)
                spans.append(op.root.to_tuple())
            latencies.append(t1 - t0)
        round_walls.append(perf() - round_started)
        if durable is not None:
            # Fold the round's WAL into the image between rounds, untimed:
            # the replay check after the run then replays one round.
            wal_bytes += durable.wal_size
            service.checkpoint(workload["durable"])
        rounds += 1
        state["round"] += 1
        if perf() - started >= seconds:
            break
    wall = perf() - started
    out = {"latencies": latencies, "classes": classes, "rounds": rounds, "wall": wall,
           "round_walls": round_walls, "wal_bytes": wal_bytes}
    if ledger is not None:
        out["spans"] = spans
    return out


def _dump_store(store, seq: int) -> bytes:
    from repro.storage.persist import dump_store

    buffer = io.BytesIO()
    dump_store(store, buffer, applied_seq=seq)
    return buffer.getvalue()


def _numbering(document) -> list:
    """(name, PBN) of every element, in document order."""
    from repro.xmlmodel.nodes import NodeKind

    found = []
    stack = list(reversed(document.children))
    while stack:
        node = stack.pop()
        if node.kind is NodeKind.ELEMENT:
            found.append((node.name, str(node.pbn)))
            stack.extend(reversed(node.children))
    return found


def inprocess_main(conn, workload: dict, options: dict) -> None:
    """Entry point of the measured process for query-mix and write-mix."""
    pin_to_one_cpu()
    try:
        conn.send(("ok", _inprocess(workload, options)))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _inprocess(workload: dict, options: dict) -> dict:
    workdir = options["workdir"]
    (service, durable), setup_times = _setups(
        lambda: _build(workload, workdir), options["setups"]
    )
    state = {"answers": _Answers(), "minted": {}, "round": 0}
    report: dict = {"setup_times": setup_times}
    seconds = options["seconds"]
    if not options["trace"]:
        report["timed"] = _run_rounds(service, durable, workload, seconds, state)
    else:
        report["untraced"] = _run_rounds(service, durable, workload, seconds / 2, state)
        ledger = Ledger()
        ledger.install()
        before, stats_before = counters(service.metrics), service.stats.snapshot()
        try:
            report["timed"] = _run_rounds(service, durable, workload, seconds / 2, state, ledger)
        finally:
            ledger.uninstall()
        timed = report["timed"]
        report["layer"] = layer_report(service, before, stats_before, len(timed["latencies"]))
        updates = sum(1 for cls in timed["classes"] if cls == "update") * timed["rounds"]
        report["layer"]["wal_bytes_per_update"] = timed["wal_bytes"] / max(updates, 1)
        report["layer"]["kernels"] = kernel_steps(service, workload["queries"])
    report["peak_rss_mb"] = peak_rss_mb()
    report["answers"] = {key: as_text(value) for key, value in state["answers"].first.items()}
    report["mismatches"] = state["answers"].mismatches[:20]
    if durable is not None:
        report["live_image"] = _dump_store(service.store(workload["durable"]), durable.seq)
        report["numbering"] = {
            uri: _numbering(service.store(uri).document) for uri, _, _ in workload["docs"]
        }
        report["durable_dir"] = durable.directory
    _close((service, durable))
    return report


# -- serve-http: the server process --------------------------------------------


def server_main(conn, workload: dict, options: dict) -> None:
    """Entry point of the measured process for serve-http."""
    # The tier drops a connection whose framing it cannot parse and
    # asyncio logs the exception; the load generator counts those
    # requests as unanswered, so the log adds nothing.
    logging.getLogger("asyncio").setLevel(logging.CRITICAL)
    pin_to_one_cpu()
    try:
        asyncio.run(_serve(conn, workload, options))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


async def _serve(conn, workload: dict, options: dict) -> None:
    from repro.serve import build_serving
    from repro.serve.http import AsyncHTTPServer
    from repro.shard import ShardedService

    async def build():
        service = ShardedService(**SERVE_SERVICE)
        for uri, text, shard in workload["docs"]:
            service.load(uri, text, shard=shard)
        for uri, spec in workload["views"]:
            service.warm(uri, spec)
        app = build_serving(service, **SERVE_TIER)
        server = AsyncHTTPServer(app, port=0)
        await server.start()
        for query in workload["queries"]:
            params = {"values": "1"} if query["fmt"] == "values" else {}
            response = await app.handle(
                "POST", "/query", params, {}, query["text"].encode("utf-8")
            )
            if response.status != 200:
                raise RuntimeError(f"warm-up query failed: {response.body[:200]!r}")
        return service, server

    setup_times = []
    tier = None
    for _ in range(options["setups"]):
        if tier is not None:
            await tier[1].drain(1.0)
            tier[0].close()
            tier = None
            gc.collect()
        started = time.perf_counter()
        tier = await build()
        setup_times.append(time.perf_counter() - started)
    service, server = tier
    conn.send(("ready", server.port, setup_times))
    loop = asyncio.get_running_loop()
    ledger = None
    while True:
        command = await loop.run_in_executor(None, conn.recv)
        if command[0] == "trace":
            ledger = Ledger()
            ledger.install(serving=True)
            before, stats_before = counters(service.metrics), service.stats.snapshot()
            conn.send(("ok",))
        elif command[0] == "stop":
            break
    report: dict = {"peak_rss_mb": peak_rss_mb()}
    if ledger is not None:
        ledger.uninstall()
        report["layer"] = layer_report(service, before, stats_before, command[1])
        report["spans"] = {key: op.root.children[0].to_tuple()
                           for key, op in ledger.server_ops.items() if op.root.children}
        report["layer"]["kernels"] = kernel_steps(service, workload["queries"])
    await server.drain(2.0)
    service.close()
    conn.send(("ok", report))
