"""Closed-loop HTTP pollers for ``serve_http``, run as their own process.

The fleet under test runs its services as threads of the benchmark
process; the pollers run here so that their HTTP and JSON work does not
compete with the services for one interpreter lock, as separate clients
would not.  They do share the fleet's core (see ``serve_http``), so their
CPU time is part of the latencies reported.  Standard library only.

Reads one JSON job on stdin::

    {"ports": [p0, p1], "texts": [...], "seed": 1, "seconds": 6.0}

Poller ``i`` keeps one keep-alive connection to ``ports[i]`` and posts
the next template only after the previous reply.  Writes one JSON object
to stdout: ``start`` (``time.perf_counter``, a system-wide monotonic
clock on Linux) and ``records``, one ``[text, started, ended, status,
reply]`` per request.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time


def traffic(seed: int, client: int, texts: list[str]):
    """One poller's templates, drawn by the benchmark seed."""
    rng = random.Random(seed * 101 + client)
    while True:
        yield texts[rng.randrange(len(texts))]


def poll(port: int, draws, stop: float, records: list) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {"Content-Type": "application/json"}
    clock = time.perf_counter
    try:
        while clock() < stop:
            text = next(draws)
            started = clock()
            try:
                conn.request(
                    "POST", "/query", json.dumps({"query": text}), headers
                )
                response = conn.getresponse()
                status = response.status
                reply = json.loads(response.read() or b"{}")
            except (OSError, http.client.HTTPException, ValueError):
                # A broken exchange is a failed request; start afresh.
                conn.close()
                status, reply = 0, {}
            records.append([text, started, clock(), status, reply])
    finally:
        conn.close()


def main() -> int:
    job = json.load(sys.stdin)
    records: list[list] = []
    start = time.perf_counter()
    stop = start + job["seconds"]
    threads = [
        threading.Thread(
            target=poll,
            args=(port, traffic(job["seed"], i, job["texts"]), stop, records),
        )
        for i, port in enumerate(job["ports"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    json.dump({"start": start, "records": records}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
