"""The serve-http load generator: a closed loop over two keep-alive
connections, run in its own process so that client work never shares
the server's interpreter lock.  It runs on the server's CPU
(``measured.pin_to_one_cpu``).

Each connection sends its next request only after the previous response
has been read.  Both connections pull from one shared cursor over the
round; a run repeats whole rounds until its seconds are spent.  A probe
(``("p", i)``) frames its request with ``Content-Length: abc`` and no
body; its correct answer is a structured 400.  After a probe the
connection is always re-opened, so a server that answers it and one that
drops the connection leave the next request the same.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import traceback

from perfbench.measured import pin_to_one_cpu

CONNECTIONS = 2


class _Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.sock = None
        self.reader = None

    def open(self) -> None:
        self.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
        if self.sock is not None:
            self.sock.close()
        self.sock = self.reader = None

    def exchange(self, request: bytes):
        """Send one request; ``(status, body)``, or ``(None, b"")`` when the
        server closes the connection without answering."""
        if self.sock is None:
            self.open()
        try:
            self.sock.sendall(request)
            line = self.reader.readline()
            if not line:
                return None, b""
            status = int(line.split()[1])
            length = 0
            while True:
                header = self.reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            return status, self.reader.read(length)
        except (ConnectionError, socket.timeout):
            return None, b""


def _request(query: dict, key: str, probe: bool) -> bytes:
    target = "/query?values=1" if query["fmt"] == "values" else "/query"
    if probe:
        return (f"POST {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: abc\r\nX-Bench-Op: {key}\r\n\r\n").encode("latin-1")
    body = query["text"].encode("utf-8")
    head = (f"POST {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\nX-Bench-Op: {key}\r\n\r\n")
    return head.encode("latin-1") + body


def probe_answered(status, body: bytes) -> bool:
    """A malformed-framing probe is answered by a structured 400."""
    if status != 400:
        return False
    try:
        return "error" in json.loads(body.decode("utf-8"))
    except ValueError:
        return False


def client_main(conn, port: int, workload: dict, seconds: float, tag: str) -> None:
    """Entry point of the load-generator process."""
    pin_to_one_cpu()
    try:
        conn.send(("ok", _drive(port, workload, seconds, tag)))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _drive(port: int, workload: dict, seconds: float, tag: str) -> dict:
    queries = workload["queries"]
    plan = workload["round"]
    records: list = []  # (key, position, t0, t1, status) per request
    first: dict[int, str] = {}
    mismatches: list = []
    lock = threading.Lock()
    connections = [_Connection(port) for _ in range(CONNECTIONS)]
    cursor = [0]
    round_no = [0]
    errors: list = []

    def worker(connection: _Connection) -> None:
        try:
            while True:
                with lock:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(plan):
                    return
                kind, index = plan[position]
                key = f"{tag}{round_no[0]}-{position}"
                request = _request(queries[index], key, kind == "p")
                t0 = time.perf_counter()
                status, body = connection.exchange(request)
                t1 = time.perf_counter()
                if kind == "p":
                    connection.close()
                    ok = probe_answered(status, body)
                else:
                    ok = status == 200
                    if status is None:
                        connection.close()
                    if ok:
                        text = body.decode("utf-8")
                        with lock:
                            known = first.setdefault(index, text)
                            if known != text:
                                mismatches.append(((round_no[0], position), text[:200]))
                with lock:
                    records.append((key, position, t0, t1, status, ok))
        except Exception:  # noqa: BLE001 - surfaced after the threads join
            errors.append(traceback.format_exc())

    round_walls: list[float] = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        cursor[0] = 0
        threads = [threading.Thread(target=worker, args=(c,)) for c in connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(errors[0])
        round_walls.append(time.perf_counter() - round_started)
        round_no[0] += 1
        if time.perf_counter() - started >= seconds:
            break
    wall = time.perf_counter() - started
    for connection in connections:
        connection.close()
    return {"records": records, "answers": first, "mismatches": mismatches[:20],
            "rounds": round_no[0], "wall": wall, "round_walls": round_walls}
