"""Independent answer checker: numpy brute force and ``math.fsum``.

Nothing here imports the program under test.  Expected answers are
computed from the generated coordinates alone:

* ``count``  — the number of points inside the closed box;
* ``report`` — the sorted ids of those points, or the first ``limit`` of
  them when the query carries a limit;
* ``sum``    — ``math.fsum`` of coordinate ``SUM_DIM`` over those points.
  A returned sum is accepted when it lies within
  ``SUM_REL_TOL * fsum(|x|)`` of the exact sum.  The program folds in
  float64 over at most a few thousand terms, so its rounding error stays
  below ``n * 2**-53 * fsum(|x|)`` (about 1e-12 relative); the tolerance
  of 1e-9 leaves a wide margin for that and still rejects an error of
  1e-6 relative.

:class:`LiveSet` is the update-stream mirror: the live point set kept by
the benchmark itself, against which every checkpoint is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from inputs import COUNT, REPORT, SUM, QuerySet

SUM_DIM = 0
SUM_REL_TOL = 1e-9
_CHUNK = 256  # queries per broadcast block: bounds the (chunk, n, d) mask


@dataclass(frozen=True)
class Expected:
    """Brute-force truth for one QuerySet: one entry per query."""

    counts: np.ndarray  # (m,) int64
    ids: List[np.ndarray]  # sorted matching ids per query
    sums: np.ndarray  # (m,) float64, exact via fsum (sum-mode rows only)
    abs_sums: np.ndarray  # (m,) float64, fsum of |x| (tolerance scale)


def expected_answers(coords: np.ndarray, ids: np.ndarray, qs: QuerySet) -> Expected:
    """Evaluate every query of ``qs`` over ``coords`` by brute force."""
    order = np.argsort(ids, kind="stable")
    coords = np.asarray(coords, dtype=np.float64)[order]
    ids = np.asarray(ids, dtype=np.int64)[order]
    m = len(qs)
    counts = np.zeros(m, dtype=np.int64)
    sums = np.zeros(m, dtype=np.float64)
    abs_sums = np.zeros(m, dtype=np.float64)
    matched: List[np.ndarray] = []
    for start in range(0, m, _CHUNK):
        lo = qs.lo[start:start + _CHUNK, None, :]
        hi = qs.hi[start:start + _CHUNK, None, :]
        inside = np.all((coords[None] >= lo) & (coords[None] <= hi), axis=2)
        for row, mask in enumerate(inside):
            q = start + row
            hit = np.flatnonzero(mask)
            counts[q] = len(hit)
            matched.append(ids[hit])
            if qs.modes[q] == SUM:
                xs = coords[hit, SUM_DIM]
                sums[q] = math.fsum(xs.tolist())
                abs_sums[q] = math.fsum(np.abs(xs).tolist())
    return Expected(counts, matched, sums, abs_sums)


def answer_ok(exp: Expected, q: int, mode: int, value: Any, limit: "int | None" = None) -> bool:
    """Whether ``value`` is the right answer to query ``q`` of mode ``mode``."""
    if mode == COUNT:
        return isinstance(value, (int, np.integer)) and int(value) == int(exp.counts[q])
    if mode == REPORT:
        want = exp.ids[q] if limit is None else exp.ids[q][:limit]
        try:
            got = np.asarray(value, dtype=np.int64)
        except (TypeError, ValueError):
            return False
        return got.shape == want.shape and bool(np.array_equal(got, want))
    if mode == SUM:
        try:
            got = float(value)
        except (TypeError, ValueError):
            return False
        return abs(got - exp.sums[q]) <= SUM_REL_TOL * exp.abs_sums[q]
    raise ValueError(f"unknown mode code {mode}")


def count_wrong(
    exp: Expected, qs: QuerySet, values: Sequence[Any], limit: "int | None" = None
) -> int:
    """Number of answers in ``values`` (batch order) that are wrong."""
    if len(values) != len(qs):
        return len(qs)
    return sum(
        not answer_ok(exp, q, int(qs.modes[q]), values[q], limit)
        for q in range(len(qs))
    )


class LiveSet:
    """The benchmark's own mirror of a dynamic structure's live points."""

    def __init__(self, coords: np.ndarray, ids: Sequence[int]) -> None:
        self._coords = {int(i): tuple(float(x) for x in c) for i, c in zip(ids, coords)}

    def __len__(self) -> int:
        return len(self._coords)

    def __contains__(self, pid: int) -> bool:
        return pid in self._coords

    def insert(self, pid: int, coords: Sequence[float]) -> None:
        self._coords[pid] = tuple(float(x) for x in coords)

    def delete(self, pid: int) -> None:
        del self._coords[pid]

    def expected(self, qs: QuerySet) -> Expected:
        pids = np.fromiter(self._coords, dtype=np.int64, count=len(self._coords))
        coords = np.array(list(self._coords.values()), dtype=np.float64)
        if len(pids) == 0:
            coords = coords.reshape(0, qs.lo.shape[1])
        return expected_answers(coords, pids, qs)
