"""Workload ``batch-d3``: the paper's own regime.

A static tree over d=3 clustered points answers batches of m ≈ n/2 mixed
queries (count / unlimited report / sum aggregate in equal thirds, a
quarter of every batch on one hot spot) in one Algorithm Search pass each.

Every pass of a run, the warm-up pass of each set-up included, answers
the same batch, so every forest element a timed pass reaches is compiled
during set-up; the traced run fails if the timed passes compile anything.
"""

from __future__ import annotations

import numpy as np

import checker
import common
import inputs
from layertrace import delta

#: timed passes per second of requested run length (fixed, not timed)
PASSES_PER_S = 4


def run(seed: int, seconds: int, tracer=None, tiny: bool = False) -> dict:
    from repro import DistributedRangeTree, PointSet, sum_of_dim
    from repro.query import QueryBatch

    n, m, each_side = (256, 60, 1) if tiny else (
        inputs.BATCH_N, inputs.BATCH_M, common.SETUPS_EACH_SIDE)
    coords, hot = inputs.batch_points(seed, n)
    ids = np.arange(len(coords))
    points = PointSet(coords)
    sum_sg = sum_of_dim(checker.SUM_DIM)
    qs = inputs.batch_queries(coords, hot, seed, m)
    truth = checker.expected_answers(coords, ids, qs)
    batch = QueryBatch(common.to_queries(qs, sum_sg))

    setups = common.SetUps(
        lambda: DistributedRangeTree.build(points, p=inputs.BATCH_P),
        batch,
        lambda values: checker.count_wrong(truth, qs, values),
    )
    setups.discard(each_side - 1)
    tree = setups.one()
    after_setup = tracer.snapshot() if tracer else None

    passes = PASSES_PER_S * seconds
    busy = common.Stopwatch()
    samples_ms = []
    attempted = failed = 0
    with tree:
        for _ in range(passes):
            with busy:
                values = tree.run(batch).values()
            samples_ms.append(busy.last * 1000.0)
            attempted += len(values)
            failed += checker.count_wrong(truth, qs, values)
        trace_steps = len(tree.metrics.steps)
    end = tracer.snapshot() if tracer else None
    del tree
    setups.discard(each_side)

    ops = passes * len(qs)
    out = {
        "attempted": attempted + setups.attempted,
        "failed": failed + setups.failed,
        "metrics": common.end_to_end(setups.seconds, ops, busy.total, samples_ms),
        "samples_ms": samples_ms,
    }
    if tracer:
        timed = delta(end, after_setup)
        out["checks_ok"] = common.compiled_nothing(timed)
        layers = common.build_layers(after_setup, each_side)
        layers.update(common.pass_layers(timed, passes))
        layers["cgm.trace_steps"] = trace_steps
        out["layers"] = layers
    return out
