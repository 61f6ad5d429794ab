"""Tests for the benchmark's independent checker, plus a tiny smoke run.

The checker must accept the brute-force answers and reject perturbed
ones; the smoke run checks that each workload prints exactly the metric
names that BENCHMARK.json declares, with their declared units, and that a
traced run measures every layer (no per-layer time of 0).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checker  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(7)
    coords = rng.uniform(0.0, 1.0, size=(300, 2))
    ids = rng.permutation(1000)[:300]
    qs = inputs.serve_queries(3, 30)
    # wide boxes so every query has matches to perturb
    qs = inputs.QuerySet(qs.lo - 0.2, qs.hi + 0.2, qs.modes)
    return coords, ids, qs, checker.expected_answers(coords, ids, qs)


def reference_answer(coords, ids, qs, q, limit=None):
    """A plain-loop answer, written apart from the vectorized checker."""
    hits = [
        (int(pid), c)
        for pid, c in zip(ids, coords)
        if all(qs.lo[q][k] <= c[k] <= qs.hi[q][k] for k in range(len(c)))
    ]
    mode = int(qs.modes[q])
    if mode == inputs.COUNT:
        return len(hits)
    if mode == inputs.REPORT:
        out = sorted(pid for pid, _ in hits)
        return out if limit is None else out[:limit]
    return math.fsum(c[checker.SUM_DIM] for _, c in hits)


def test_accepts_brute_force_answers(case):
    coords, ids, qs, exp = case
    values = [reference_answer(coords, ids, qs, q) for q in range(len(qs))]
    assert checker.count_wrong(exp, qs, values) == 0
    limited = [reference_answer(coords, ids, qs, q, limit=4) for q in range(len(qs))]
    assert checker.count_wrong(exp, qs, limited, limit=4) == 0


def _first(qs, mode):
    return next(q for q in range(len(qs)) if qs.modes[q] == mode)


def test_rejects_a_dropped_id(case):
    coords, ids, qs, exp = case
    q = _first(qs, inputs.REPORT)
    ans = reference_answer(coords, ids, qs, q)
    assert len(ans) > 1
    assert checker.answer_ok(exp, q, inputs.REPORT, ans)
    assert not checker.answer_ok(exp, q, inputs.REPORT, ans[:-1])
    assert not checker.answer_ok(exp, q, inputs.REPORT, ans[1:])
    assert not checker.answer_ok(exp, q, inputs.REPORT, ans[:3], limit=4)


def test_rejects_a_count_off_by_one(case):
    coords, ids, qs, exp = case
    q = _first(qs, inputs.COUNT)
    ans = reference_answer(coords, ids, qs, q)
    assert checker.answer_ok(exp, q, inputs.COUNT, ans)
    assert not checker.answer_ok(exp, q, inputs.COUNT, ans + 1)
    assert not checker.answer_ok(exp, q, inputs.COUNT, ans - 1)


def test_rejects_a_sum_off_by_1e6_relative(case):
    coords, ids, qs, exp = case
    q = _first(qs, inputs.SUM)
    ans = reference_answer(coords, ids, qs, q)
    assert ans > 0
    assert checker.answer_ok(exp, q, inputs.SUM, ans)
    assert not checker.answer_ok(exp, q, inputs.SUM, ans * (1 + 1e-6))
    assert not checker.answer_ok(exp, q, inputs.SUM, ans * (1 - 1e-6))


def test_live_set_mirror_tracks_updates():
    live = checker.LiveSet(np.array([[0.5, 0.5]]), [0])
    live.insert(7, (0.25, 0.25))
    live.delete(0)
    qs = inputs.QuerySet(np.zeros((3, 2)), np.ones((3, 2)), np.arange(3, dtype=np.int8))
    exp = live.expected(qs)
    assert checker.count_wrong(exp, qs, [1, [7], 0.25]) == 0
    assert checker.count_wrong(exp, qs, [2, [0, 7], 0.75]) == 3


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]
    }
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    idle = [
        name for name, m in result["metrics"].items()
        if m["unit"] in ("s", "ms") and m["value"] == 0
    ]
    assert idle == []
