"""Statistics, host calibration and result assembly shared by the workloads."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from typing import Dict, List, Sequence

#: candidate tail percentiles, highest first; 50 is the fallback for
#: runs too short for any tail (only tiny smoke runs are)
_TAILS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(n: int) -> float:
    """Highest candidate percentile with at least TAIL_BEYOND samples beyond it."""
    for pct in _TAILS:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return _TAILS[-1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calib_once() -> float:
    """Milliseconds for a fixed pure-Python reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def calib_ms(samples: int = 3) -> List[float]:
    return [calib_once() for _ in range(samples)]


def end_to_end(setup_s: Sequence[float], ops: int, busy_s: float,
               samples_ms: Sequence[float]) -> Dict[str, float]:
    """The end-to-end metrics of one run (see README for the tail)."""
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": ops / busy_s,
        "latency_p50_ms": statistics.median(samples_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def tail_ms(samples_ms: Sequence[float]) -> "tuple[float, float]":
    """(percentile, value) of the latency tail: the highest candidate
    percentile with at least TAIL_BEYOND samples beyond it."""
    pct = tail_pct(len(samples_ms))
    return pct, percentile(samples_ms, pct)


#: set-ups timed before, and again after, the timed phase of a run, so
#: that setup_s (their median) samples the host at both ends of the run
SETUPS_EACH_SIDE = 3


class SetUps:
    """Timed set-ups: the time from the generated points to a structure
    ready to answer, i.e. ``build()`` plus one warm-up pass over
    ``warm_batch``.  ``check(values)`` returns the number of wrong
    warm-up answers; it runs outside the timed region."""

    def __init__(self, build, warm_batch, check) -> None:
        self.build, self.warm_batch, self.check = build, warm_batch, check
        self.seconds: List[float] = []
        self.attempted = self.failed = 0

    def one(self):
        """One timed set-up; returns the structure, ready to answer."""
        gc.collect()  # the previous structure's garbage is not this one's
        t0 = time.perf_counter()
        tree = self.build()
        values = tree.run(self.warm_batch).values()
        self.seconds.append(time.perf_counter() - t0)
        self.attempted += len(values)
        self.failed += self.check(values)
        return tree

    def discard(self, count: int) -> None:
        """``count`` timed set-ups whose structures are closed at once."""
        for _ in range(count):
            self.one().close()


class Stopwatch:
    """Accumulates time only while running, so checking stays outside it."""

    def __init__(self) -> None:
        self.total = 0.0
        self.last = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.last = time.perf_counter() - self._t0
        self.total += self.last


def to_queries(qs, sum_semigroup=None, report_limit=None) -> list:
    """The program-side query descriptors for a generated QuerySet.

    ``sum_semigroup`` is the per-query semigroup of the sum queries
    (``None``: the structure's own annotation); ``report_limit`` caps the
    report queries.
    """
    from repro.query import aggregate, count, report

    from inputs import COUNT, REPORT

    out = []
    for lo, hi, mode in zip(qs.lo, qs.hi, qs.modes):
        box = [(float(a), float(b)) for a, b in zip(lo, hi)]
        if mode == COUNT:
            out.append(count(box))
        elif mode == REPORT:
            out.append(report(box, limit=report_limit))
        else:
            out.append(aggregate(box, sum_semigroup))
    return out


def pass_layers(d: dict, passes: int) -> Dict[str, float]:
    """Per-engine-pass layer metrics from a tracer delta (see README)."""
    spans, counts = d["spans"], d["counts"]

    def self_ms(key):
        return spans.get(key, (0.0, 0.0))[0] * 1000.0 / passes

    return {
        "query.plan_ms": spans.get("query.plan", (0.0, 0.0))[1] * 1000.0 / passes,
        "query.demux_ms": self_ms("query.demux"),
        "query.rounds": counts.get("pass.rounds", 0.0) / passes,
        "search.walk_ms": self_ms("search.walk"),
        "search.route_ms": self_ms("search.route"),
        "search.forest_ms": self_ms("search.forest"),
        "search.rounds": counts.get("search.rounds", 0.0) / passes,
        "search.comm_bytes": counts.get("search.comm_bytes", 0.0) / passes,
        "search.max_h": counts.get("search.max_h", 0.0) / passes,
        "kernel.fold_ms": self_ms("kernel.fold"),
        "cgm.dispatches": counts.get("cgm.pass_dispatches", 0.0) / passes,
        "ledger.residual_ms": self_ms("engine.execute"),
    }


def compiled_nothing(d: dict) -> bool:
    """True when no lazy compile ran between the two snapshots of ``d``:
    set-up must have filled every compile cache the timed phase uses."""
    return d["spans"].get("compile", (0.0, 0.0))[1] == 0.0


def build_layers(d: dict, builds: int) -> Dict[str, float]:
    """Build-side layer metrics (seconds or counts per build) from a delta."""
    spans, counts = d["spans"], d["counts"]

    def incl(key):
        return spans.get(key, (0.0, 0.0))[1] / builds

    return {
        "geometry.rank_s": incl("geometry.rank"),
        "construct.s": incl("construct"),
        "construct.comm_s": incl("construct.comm"),
        "construct.rounds": counts.get("construct.rounds", 0.0) / builds,
        "construct.comm_bytes": counts.get("construct.comm_bytes", 0.0) / builds,
        "compile.s": incl("compile"),
        "query.refit_s": incl("query.refit"),
    }
