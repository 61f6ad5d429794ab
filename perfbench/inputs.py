"""Seeded inputs for the three workloads.

Everything here is plain numpy: the program under test receives only the
arrays and query descriptors built from them, never the seed.  Each
workload's input is a pure function of ``(seed, size)``, so two runs with
the same seed measure the same work.

Queries are described as arrays (``lo``/``hi`` corners plus a mode code)
so that the independent checker in :mod:`checker` can evaluate them
without touching the program's own geometry types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: mode codes shared by the generators, the workloads and the checker
COUNT, REPORT, SUM = 0, 1, 2


@dataclass(frozen=True)
class QuerySet:
    """``m`` closed boxes ``[lo, hi]`` with one mode code each."""

    lo: np.ndarray  # (m, d) float64
    hi: np.ndarray  # (m, d) float64
    modes: np.ndarray  # (m,) int8, values in {COUNT, REPORT, SUM}

    def __len__(self) -> int:
        return len(self.modes)


def _cycle_modes(m: int) -> np.ndarray:
    """count, report, sum, count, ... — exact thirds when 3 divides m."""
    return (np.arange(m) % 3).astype(np.int8)


# ---------------------------------------------------------------------------
# batch-d3: clustered d=3 points, batches of mixed queries with a hot spot
# ---------------------------------------------------------------------------
BATCH_N, BATCH_D, BATCH_P, BATCH_M = 4096, 3, 4, 2046  # m ≈ n/2, 3 | m
BATCH_CLUSTERS, BATCH_SPREAD = 8, 0.03
BATCH_HALF_WIDTH, HOT_HALF_WIDTH, HOT_JITTER = 0.04, 0.03, 0.01


def batch_points(seed: int, n: int = BATCH_N, d: int = BATCH_D):
    """Gaussian mixture of ``BATCH_CLUSTERS`` clusters; returns (coords, hot)."""
    rng = np.random.default_rng([seed, 1])
    centres = rng.uniform(0.15, 0.85, size=(BATCH_CLUSTERS, d))
    assign = rng.integers(0, BATCH_CLUSTERS, size=n)
    coords = centres[assign] + rng.normal(0.0, BATCH_SPREAD, size=(n, d))
    return coords, centres[0]


def batch_queries(coords: np.ndarray, hot: np.ndarray, seed: int, m: int = BATCH_M) -> QuerySet:
    """One batch: 3/4 centred on data points, 1/4 on the hot spot."""
    rng = np.random.default_rng([seed, 2])
    d = coords.shape[1]
    centres = coords[rng.integers(0, len(coords), size=m)].copy()
    half = np.full((m, d), BATCH_HALF_WIDTH)
    hot_rows = rng.permutation(m)[: m // 4]
    centres[hot_rows] = hot + rng.uniform(-HOT_JITTER, HOT_JITTER, (len(hot_rows), d))
    half[hot_rows] = HOT_HALF_WIDTH
    return QuerySet(centres - half, centres + half, _cycle_modes(m))


# ---------------------------------------------------------------------------
# serve-tcp: uniform d=2 points, a stream of mixed single queries
# ---------------------------------------------------------------------------
SERVE_N, SERVE_D, SERVE_P = 4096, 2, 4
SERVE_SELECTIVITY, SERVE_LIMIT = 0.02, 16


def serve_points(seed: int, n: int = SERVE_N, d: int = SERVE_D) -> np.ndarray:
    return np.random.default_rng([seed, 3]).uniform(0.0, 1.0, size=(n, d))


def serve_queries(seed: int, m: int, d: int = SERVE_D) -> QuerySet:
    """``m`` cubes of side ``selectivity^(1/d)`` with uniform centres."""
    rng = np.random.default_rng([seed, 4])
    half = SERVE_SELECTIVITY ** (1.0 / d) / 2.0
    centres = rng.uniform(0.0, 1.0, size=(m, d))
    return QuerySet(centres - half, centres + half, _cycle_modes(m))


def serve_warm_queries(seed: int, m: int, d: int = SERVE_D) -> QuerySet:
    """The warm-up pass: ``m`` cubes of the timed queries' side, each
    asked in all three modes, whose centres fall one in each ``1/m``
    stratum of every axis (a Latin hypercube).

    Neighbouring centres on an axis lie at most ``2/m`` apart, less than
    the side for ``m = 16``, so some box reaches into every slab of the
    domain and every forest element a timed query can reach is entered.
    """
    rng = np.random.default_rng([seed, 6])
    strata = np.stack([rng.permutation(m) for _ in range(d)], axis=1)
    centres = (strata + rng.uniform(0.0, 1.0, size=(m, d))) / m
    half = SERVE_SELECTIVITY ** (1.0 / d) / 2.0
    lo = np.repeat(centres - half, 3, axis=0)
    hi = np.repeat(centres + half, 3, axis=0)
    return QuerySet(lo, hi, _cycle_modes(3 * m))


# ---------------------------------------------------------------------------
# update-stream: dyadic d=2 base points plus a seeded update/query stream
# ---------------------------------------------------------------------------
UPDATE_N, UPDATE_D, UPDATE_P = 4096, 2, 4
UPDATE_GRID = 1024  # dyadic coordinates i / GRID: every sum is exact
UPDATE_FLUSH, UPDATE_EVERY, UPDATE_PER_CHECKPOINT = 64, 32, 8
UPDATE_MAX_SIDE = 0.25


def update_points(seed: int, n: int = UPDATE_N, d: int = UPDATE_D) -> np.ndarray:
    rng = np.random.default_rng([seed, 5])
    return rng.integers(0, UPDATE_GRID + 1, size=(n, d)) / UPDATE_GRID


def checkpoint_queries(boxes) -> QuerySet:
    """A checkpoint's boxes (``repro`` Box objects) as a mixed QuerySet."""
    lo = np.array([[float(x) for x in b.lo] for b in boxes], dtype=np.float64)
    hi = np.array([[float(x) for x in b.hi] for b in boxes], dtype=np.float64)
    return QuerySet(lo, hi, _cycle_modes(len(boxes)))
