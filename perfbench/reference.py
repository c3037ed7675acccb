"""Reference figures for the README, measured apart from the benchmark runs.

    python3 perfbench/reference.py

Prints three tables: one ``count()`` query timed in process, through
``ServingApp.handle`` and over one HTTP keep-alive connection; durable
update latency at two document sizes; and the spread of the calibration
loop.  Medians of repeated calls; the machine is named in the output.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import socket
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import docs  # noqa: E402
from perfbench.measured import SERVE_SERVICE, SERVE_TIER  # noqa: E402
from perfbench.run import calibration_ms, provenance  # noqa: E402

QUERY = 'count(doc("s0.xml")//title)'
REPEATS = 400


def _median_us(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e6


async def split() -> dict:
    from repro.serve import build_serving
    from repro.serve.http import AsyncHTTPServer
    from repro.shard import ShardedService

    rng = random.Random(1)
    service = ShardedService(**SERVE_SERVICE)
    service.load("s0.xml", docs.books_xml(rng, 24), shard=0)
    service.load("s1.xml", docs.books_xml(rng, 24), shard=1)
    app = build_serving(service, **SERVE_TIER)
    server = AsyncHTTPServer(app, port=0)
    await server.start()
    figures = {"engine": _median_us(lambda: service.execute(QUERY).values())}
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        await app.handle("POST", "/query", {"values": "1"}, {}, QUERY.encode())
        times.append(time.perf_counter() - started)
    figures["handle"] = statistics.median(times) * 1e6
    body = QUERY.encode()
    request = (f"POST /query?values=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}"
               "\r\n\r\n").encode() + body

    def http_round_trips() -> float:
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")

            def one() -> None:
                sock.sendall(request)
                length = 0
                while True:
                    line = reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                reader.read(length)

            return _median_us(one)

    figures["http"] = await asyncio.get_running_loop().run_in_executor(None, http_round_trips)
    await server.drain(2.0)
    service.close()
    return figures


def update_latency(books: int) -> float:
    from repro.shard import ShardedService
    from repro.updates.durable import DurableStore
    from repro.updates.ops import DeleteSubtree, op_from_json
    from repro.xmlmodel.parser import parse_document

    directory = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        text = docs.books_xml(random.Random(2), books)
        DurableStore.create(os.path.join(directory, "d"), parse_document(text, "w.xml")).close()
        service = ShardedService(shards=2)
        service.open_durable(os.path.join(directory, "d"), uri="w.xml", shard=0)
        insert = op_from_json({"op": "insert", "parent": "1.1",
                               "fragment": docs.author_xml("Knuth")})
        times = []
        for _ in range(20):
            started = time.perf_counter()
            minted = service.update("w.xml", insert).minted[0]
            service.update("w.xml", DeleteSubtree(target=minted))
            times.append((time.perf_counter() - started) / 2)
        service.close()
        return statistics.median(times) * 1e3
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> None:
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    env = provenance()
    print(f"machine: {env['platform']}, {env['cpu_count']} CPUs, Python {env['python']}")
    figures = asyncio.run(split())
    print(f"\n{QUERY} on 2 shards, median of {REPEATS}:")
    for name in ("engine", "handle", "http"):
        print(f"  {name:7s} {figures[name]:8.0f} us")
    print("\ndurable update (insert or delete of one author), median of 40:")
    for books in (64, 256):
        print(f"  books({books:3d}) {update_latency(books):6.1f} ms")
    loops = calibration_ms(repeats=20)
    quartiles = statistics.quantiles(loops, n=4)
    print(f"\ncalibration loop, 20 runs: median {statistics.median(loops):.1f} ms, "
          f"IQR/median {(quartiles[2] - quartiles[0]) / statistics.median(loops):.3f}, "
          f"min {min(loops):.1f} max {max(loops):.1f} ms")


if __name__ == "__main__":
    main()
