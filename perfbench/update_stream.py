"""Workload ``update-stream``: writes beside reads on the dynamized tree.

A ``DynamicDistributedRangeTree`` (d=2, flush threshold 64) is bulk-loaded
with 4096 dyadic points, then replays a seeded ``update_query_stream``:
insert bursts, deletes, deletes of absent ids and duplicate coordinates,
with one checkpoint batch of 8 mixed queries about every 32 updates.
Every checkpoint is checked against the benchmark's own live-set mirror.

A run plays the same stream in ``ROUNDS`` rounds, each on a structure
fresh from its own set-up.  Checkpoint latency climbs through a stream
(tombstones pile up until a compaction), so the median of one round
would mostly time the middle of the run; pooling the rounds makes it
sample the host across the whole run.
"""

from __future__ import annotations

import checker
import common
import inputs
from layertrace import delta

#: stream operations per second of requested run length (fixed, not timed)
OPS_PER_S = 300
#: rounds of the same stream per run (see the module docstring)
ROUNDS = 3


def _install_dynamic_tracer(tracer) -> None:
    from repro.dist.dynamic import DynamicDistributedRangeTree as Dyn

    tracer.wrap(Dyn, "insert", "dynamic.insert")
    tracer.wrap(Dyn, "delete", "dynamic.delete")
    tracer.wrap(Dyn, "flush", "dynamic.absorb")
    tracer.wrap(Dyn, "_compact", "dynamic.absorb")


def run(seed: int, seconds: int, tracer=None, tiny: bool = False) -> dict:
    from repro import PointSet
    from repro.dist import DynamicDistributedRangeTree
    from repro.errors import ReproError
    from repro.query import QueryBatch
    from repro.semigroup.group import sum_group
    from repro.workloads import update_query_stream

    n_points, n_ops, rounds, edge = (256, 200, 1, 0) if tiny else (
        inputs.UPDATE_N, OPS_PER_S * seconds, ROUNDS, 1)
    base = inputs.update_points(seed, n_points)
    n = len(base)
    points = PointSet(base, ids=list(range(n)))
    sum_sg = sum_group(checker.SUM_DIM)
    stream = update_query_stream(
        n_ops,
        inputs.UPDATE_D,
        seed=seed,
        grid=inputs.UPDATE_GRID,
        query_every=inputs.UPDATE_EVERY,
        queries_per_checkpoint=inputs.UPDATE_PER_CHECKPOINT,
        max_side=inputs.UPDATE_MAX_SIDE,
    )
    warm_qs = inputs.checkpoint_queries(stream[0].boxes)
    warm_truth = checker.LiveSet(base, range(n)).expected(warm_qs)
    warm_batch = QueryBatch(common.to_queries(warm_qs, sum_sg))
    if tracer:
        _install_dynamic_tracer(tracer)

    setups = common.SetUps(
        lambda: DynamicDistributedRangeTree.build(
            points, p=inputs.UPDATE_P, flush_threshold=inputs.UPDATE_FLUSH
        ),
        warm_batch,
        lambda values: checker.count_wrong(warm_truth, warm_qs, values),
    )

    busy = common.Stopwatch()
    samples_ms = []
    counts = {"insert": 0, "delete": 0, "query": 0}
    attempted = failed = 0

    def play(tree) -> None:
        """One round: the whole stream on ``tree``, checked as it goes."""
        nonlocal attempted, failed
        mirror = checker.LiveSet(base, range(n))
        for op in stream:
            if op.kind == "query":
                qs = inputs.checkpoint_queries(op.boxes)
                batch = QueryBatch(common.to_queries(qs, sum_sg))
                with busy:
                    values = tree.run(batch).values()
                samples_ms.append(busy.last * 1000.0)
                attempted += len(qs)
                failed += checker.count_wrong(mirror.expected(qs), qs, values)
                counts["query"] += 1
                continue
            pid = op.pid + n  # the stream's ids start at 0, like the base's
            attempted += 1
            counts[op.kind] += 1
            if op.kind == "insert":
                try:
                    with busy:
                        tree.insert(op.coords, pid=pid)
                except ReproError:
                    failed += 1
                else:
                    mirror.insert(pid, op.coords)
            elif op.absent or pid not in mirror:
                try:  # a delete of an absent id must be rejected
                    with busy:
                        tree.delete(pid)
                except ReproError:
                    pass
                else:
                    failed += 1
            else:
                try:
                    with busy:
                        tree.delete(pid)
                except ReproError:
                    failed += 1
                else:
                    mirror.delete(pid)

    # set-ups: one before the rounds, one opening each round, one after
    setups.discard(edge)
    for r in range(rounds):
        tree = setups.one()
        with tree:
            if r == 0:  # the traced figures are those of the first round
                before = tracer.snapshot() if tracer else None
                rebuilt0, pruned0 = tree.rebuild_points_total, tree.pruned_bucket_passes
            play(tree)
            if r == 0:
                after = tracer.snapshot() if tracer else None
                round_counts = dict(counts)
                rebuilt = tree.rebuild_points_total - rebuilt0
                pruned = tree.pruned_bucket_passes - pruned0
                trace_steps = len(tree.metrics.steps)
        del tree
    setups.discard(edge)

    ops = counts["insert"] + counts["delete"] + counts["query"] * inputs.UPDATE_PER_CHECKPOINT
    out = {
        "attempted": attempted + setups.attempted,
        "failed": failed + setups.failed,
        "metrics": common.end_to_end(setups.seconds, ops, busy.total, samples_ms),
        "samples_ms": samples_ms,
    }
    if tracer:
        d = delta(after, before)
        spans = d["spans"]
        passes = max(1.0, d["counts"].get("pass.count", 0.0))
        checkpoints = round_counts["query"]

        def update_ms(key, count):
            # inclusive of the update's own phases, exclusive of absorbs
            own = spans.get(key, (0.0, 0.0))[1] - d["nested"].get((key, "dynamic.absorb"), 0.0)
            return own * 1000.0 / max(1, count)

        layers = common.build_layers(d, 1)
        layers.update(common.pass_layers(d, passes))
        layers.update({
            "cgm.trace_steps": trace_steps,
            "dynamic.insert_ms": update_ms("dynamic.insert", round_counts["insert"]),
            "dynamic.delete_ms": update_ms("dynamic.delete", round_counts["delete"]),
            "dynamic.absorb_s": spans.get("dynamic.absorb", (0.0, 0.0))[1],
            "dynamic.rebuild_points": rebuilt,
            "dynamic.bucket_passes": d["counts"].get("pass.count", 0.0) / checkpoints,
            "dynamic.pruned_passes": pruned / checkpoints,
        })
        out["layers"] = layers
    return out
