"""Closed-loop TCP load for the ``serve-tcp`` workload (a child process).

    python3 perfbench/serve_load.py --port P --seed S --queries Q

Opens ``CONNECTIONS`` NDJSON connections to a running serve daemon and
drives ``CLIENTS`` logical clients over them; each client sends its next
query only after the previous answer arrived.  Client ``c`` issues
queries ``c, c + CLIENTS, c + 2 * CLIENTS, ...`` of the seeded query
stream, so ``Q`` must be a multiple of ``CLIENTS``.  Prints one JSON
object: the wall time of the whole load, and per query its round trip,
the daemon's queue/exec tags, its batch size and its answer (or error).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENTS, CONNECTIONS = 32, 2


def wire_queries(seed: int, m: int) -> list:
    """The seeded serve query stream as program-side query descriptors."""
    import common
    import inputs

    qs = inputs.serve_queries(seed, m)
    return common.to_queries(qs, report_limit=inputs.SERVE_LIMIT)


async def drive(port: int, queries) -> dict:
    from repro.errors import ServeError
    from repro.serve.client import ServeClient

    n = len(queries)
    rtt = [0.0] * n
    tags = [None] * n
    values = [None] * n
    errors = [None] * n
    conns = [await ServeClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]
    try:

        async def client(c: int) -> None:
            conn = conns[c % CONNECTIONS]
            for i in range(c, n, CLIENTS):
                t0 = time.perf_counter()
                try:
                    obj = await conn.request(queries[i])
                except ServeError as exc:
                    errors[i] = type(exc).__name__
                    continue
                rtt[i] = (time.perf_counter() - t0) * 1000.0
                tags[i] = (obj["queue_ms"], obj["exec_ms"], obj["batch_size"])
                values[i] = obj["value"]

        t0 = time.perf_counter()
        await asyncio.gather(*(client(c) for c in range(CLIENTS)))
        wall = time.perf_counter() - t0
    finally:
        for conn in conns:
            await conn.aclose()
    return {"wall_s": wall, "rtt_ms": rtt, "tags": tags, "values": values, "errors": errors}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--queries", type=int, required=True)
    ap.add_argument("--src", required=True, help="the program's source directory")
    args = ap.parse_args()
    if args.queries % CLIENTS:
        ap.error(f"--queries must be a multiple of {CLIENTS}")
    sys.path[:0] = [args.src, HERE]
    queries = wire_queries(args.seed, args.queries)
    print(json.dumps(asyncio.run(drive(args.port, queries))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
