"""Closed-loop HTTP load generator for ``serve-mixed`` (stdlib only).

Run as ``python3 loadgen.py PLAN OUT``.  ``PLAN`` is a JSON file
written by the benchmark::

    {"port": 8080, "seconds": 30, "connections": 1,
     "requests": [[route, target, revalidate], ...],
     "etags": {target: etag}}

One thread drives ``connections`` keep-alive connections through a
selector, each in a closed loop: a connection sends its next request
once it has read the previous response.  Connection ``i`` walks
``requests[i::connections]`` cyclically.  A ``revalidate`` request
carries ``If-None-Match`` with the last ETag this connection saw for
the target (seeded from ``etags``), like a client-side cache.  A
single thread keeps the generator's own interpreter lock out of the
measured latencies.

It prints ``ready`` once every connection is open, measures for
``seconds``, and writes ``OUT`` as JSON: per route, each successful
request's ``[latency_ms, completed_at_s]`` (seconds since the start),
status counts, and failures (non-2xx/304 statuses and socket errors,
each one failed request).
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time

MAX_FAILURE_MESSAGES = 50


class _Connection:
    def __init__(self, index: int, plan: dict) -> None:
        self.port = plan["port"]
        self.requests = plan["requests"][index::plan["connections"]]
        self.etags = dict(plan["etags"])
        self.next = 0
        self.target = ""
        self.open()

    def open(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)

    def start(self, now: float) -> None:
        route, target, revalidate = self.requests[
            self.next % len(self.requests)
        ]
        self.next += 1
        extra = ""
        if revalidate and target in self.etags:
            extra = f"If-None-Match: {self.etags[target]}\r\n"
        self.route, self.target, self.t0 = route, target, now
        self.pending = (
            f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n{extra}\r\n"
        ).encode("latin-1")
        self.buffer = b""

    def response(self):
        """``(status, etag)`` once the whole response is buffered."""
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buffer[:end].decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        length = 0
        etag = None
        for line in head[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "etag":
                etag = value.strip()
        if len(self.buffer) < end + 4 + length:
            return None
        return status, etag


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    conns = [_Connection(i, plan) for i in range(plan["connections"])]
    latencies = {}
    statuses = {}
    failures = []

    def fail(message: str) -> None:
        statuses["error"] = statuses.get("error", 0) + 1
        if len(failures) < MAX_FAILURE_MESSAGES:
            failures.append(message)

    selector = selectors.DefaultSelector()
    clock = time.perf_counter
    print("ready", flush=True)
    began = clock()
    deadline = began + plan["seconds"]
    for conn in conns:
        conn.start(clock())
        selector.register(conn.sock, selectors.EVENT_WRITE, conn)
    active = len(conns)
    while active:
        for key, events in selector.select(timeout=1.0):
            conn = key.data
            try:
                if events & selectors.EVENT_WRITE:
                    sent = conn.sock.send(conn.pending)
                    conn.pending = conn.pending[sent:]
                    if not conn.pending:
                        selector.modify(conn.sock, selectors.EVENT_READ, conn)
                    continue
                chunk = conn.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                conn.buffer += chunk
                parsed = conn.response()
                if parsed is None:
                    continue
            except (OSError, ValueError, IndexError) as exc:
                fail(f"{conn.target}: {type(exc).__name__}: {exc}")
                selector.unregister(conn.sock)
                conn.sock.close()
                try:
                    conn.open()
                except OSError:
                    active -= 1
                    continue
                selector.register(conn.sock, selectors.EVENT_WRITE, conn)
            else:
                done = clock()
                status, etag = parsed
                statuses[str(status)] = statuses.get(str(status), 0) + 1
                if status == 304 or 200 <= status < 300:
                    latencies.setdefault(conn.route, []).append(
                        ((done - conn.t0) * 1e3, done - began)
                    )
                    if status == 200 and etag:
                        conn.etags[conn.target] = etag
                else:
                    fail(f"{conn.target}: HTTP {status}")
                selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            now = clock()
            if now >= deadline:
                selector.unregister(conn.sock)
                conn.sock.close()
                active -= 1
                continue
            conn.start(now)
    selector.close()
    with open(out_path, "w") as fh:
        json.dump({
            "seconds": clock() - began,
            "latencies_ms": latencies,
            "statuses": statuses,
            "failures": failures,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
