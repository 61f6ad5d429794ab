"""Workload ``serve-tcp``: many small passes behind the NDJSON/TCP daemon.

A static d=2 uniform tree sits behind ``QueryService``; a child process
(:mod:`serve_load`) drives 32 closed-loop clients over 2 connections.
The daemon flushes at 16 queries and its timer is set long enough never
to fire, so every pass holds exactly 16 queries and two are in flight.
The warm-up pass of every set-up asks 16 stratified boxes in all three
modes (:func:`inputs.serve_warm_queries`); the traced run fails if the
timed phase compiles anything.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys

import numpy as np

import checker
import common
import inputs
from layertrace import delta
from serve_load import CLIENTS

BATCH = 16
#: never reached: a window closes at BATCH queries, never on the timer
MAX_WAIT_MS = 600_000.0
#: queries per second of requested run length (fixed, not timed)
QUERIES_PER_S = 900
MIN_QUERIES = 10_016  # >= 10k, a multiple of CLIENTS
#: the load process is killed after this many times its nominal length
LOAD_TIMEOUT_FACTOR = 5


async def _serve(tree, seed: int, queries: int):
    """Run the daemon on an ephemeral port while the load process drives it;
    returns the load process's report and the daemon's ServeMetrics."""
    from repro.serve.server import start_tcp_server
    from repro.serve.service import FlushPolicy, QueryService

    service = QueryService(tree, FlushPolicy(max_wait_ms=MAX_WAIT_MS, max_batch=BATCH))
    async with service:
        server = await start_tcp_server(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_load.py"),
            "--port", str(port), "--seed", str(seed), "--queries", str(queries),
            "--src", os.path.dirname(os.path.dirname(sys.modules["repro"].__file__)),
            stdout=asyncio.subprocess.PIPE,
        )
        try:
            timeout = LOAD_TIMEOUT_FACTOR * max(1.0, queries / QUERIES_PER_S)
            out, _ = await asyncio.wait_for(proc.communicate(), timeout)
        finally:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()
            server.close()
            await server.wait_closed()
        if proc.returncode != 0:
            raise RuntimeError(f"load process exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), service.metrics


def run(seed: int, seconds: int, tracer=None, tiny: bool = False) -> dict:
    from repro import DistributedRangeTree, PointSet, sum_of_dim
    from repro.query import QueryBatch

    n_points, each_side = (256, 1) if tiny else (inputs.SERVE_N, common.SETUPS_EACH_SIDE)
    coords = inputs.serve_points(seed, n_points)
    ids = np.arange(len(coords))
    points = PointSet(coords)
    warm_qs = inputs.serve_warm_queries(seed, BATCH)
    warm_truth = checker.expected_answers(coords, ids, warm_qs)
    warm_batch = QueryBatch(common.to_queries(warm_qs, report_limit=inputs.SERVE_LIMIT))

    setups = common.SetUps(
        lambda: DistributedRangeTree.build(
            points, p=inputs.SERVE_P, semigroup=sum_of_dim(checker.SUM_DIM)
        ),
        warm_batch,
        lambda values: checker.count_wrong(warm_truth, warm_qs, values, inputs.SERVE_LIMIT),
    )
    setups.discard(each_side - 1)
    tree = setups.one()
    after_setup = tracer.snapshot() if tracer else None

    n = 2 * CLIENTS if tiny else max(MIN_QUERIES, QUERIES_PER_S * seconds // CLIENTS * CLIENTS)
    with tree:
        load, serve_metrics = asyncio.run(_serve(tree, seed, n))
        trace_steps = len(tree.metrics.steps)
    end = tracer.snapshot() if tracer else None
    del tree
    setups.discard(each_side)

    qs = inputs.serve_queries(seed, n)
    truth = checker.expected_answers(coords, ids, qs)
    samples_ms = []
    attempted, failed = setups.attempted, setups.failed
    for i in range(n):
        attempted += 1
        if load["errors"][i] is not None or not checker.answer_ok(
            truth, i, int(qs.modes[i]), load["values"][i], inputs.SERVE_LIMIT
        ):
            failed += 1
        else:
            samples_ms.append(load["rtt_ms"][i])

    metrics = common.end_to_end(setups.seconds, n, load["wall_s"], samples_ms)
    out = {"attempted": attempted, "failed": failed, "metrics": metrics,
           "samples_ms": samples_ms}
    if tracer:
        summary = serve_metrics.summary()
        sizes = {b["size"] for b in serve_metrics.batch_log}
        timed = delta(end, after_setup)
        out["checks_ok"] = sizes == {BATCH} and common.compiled_nothing(timed)
        layers = common.build_layers(after_setup, each_side)
        layers.update(common.pass_layers(timed, serve_metrics.batches))
        layers["cgm.trace_steps"] = trace_steps
        wire = [
            rtt - tag[0] - tag[1]
            for rtt, tag in zip(load["rtt_ms"], load["tags"]) if tag is not None
        ]
        layers.update({
            "serve.queue_ms": summary["queue"]["p50_ms"],
            "serve.exec_ms": summary["exec"]["p50_ms"],
            "serve.wire_ms": statistics.median(wire),
            "serve.batch_size": serve_metrics.mean_batch_size,
        })
        out["layers"] = layers
    return out
