"""Per-layer timing from outside the program.

A :class:`Tracer` replaces public entry points of the program's layers
with thin wrappers that time every call.  Wrappers nest: each thread
keeps a stack of open spans, so a span's *self* time is its duration
minus the time of the spans opened inside it, and the self times of all
spans in one engine pass add up to that pass's wall time.  Machine
supersteps (``Machine.run_phase`` / ``compute`` / ``exchange*``) are
attributed to a layer by their step label (``search:walk``,
``query:demux:sort:route``, ``construct:phase0:sort:samples``, ...).

Only the traced run installs a tracer; :meth:`Tracer.close` restores
every wrapped attribute.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "superstep_key", "delta", "install_program_tracer"]

#: label prefix -> layer key for machine compute dispatches
_COMPUTE_KEYS = (
    ("search:walk", "search.walk"),
    ("search:forest", "search.forest"),
    ("search:", "search.route"),  # replicate pack/unpack
    ("query:demux", "query.demux"),
    ("query:refit", "query.refit"),
    ("construct:", "construct.compute"),
    ("dynamic:", "dynamic.phases"),
)
#: label prefix -> layer key for machine exchanges
_COMM_KEYS = (
    ("search:", "search.route"),
    ("query:demux", "query.demux"),
    ("query:refit", "query.refit"),
    ("construct:", "construct.comm"),
)

DISPATCH = ("cgm.run_phase", "cgm.compute")


def superstep_key(label: str, comm: bool) -> str:
    """The layer a machine superstep with ``label`` belongs to."""
    for prefix, key in _COMM_KEYS if comm else _COMPUTE_KEYS:
        if label.startswith(prefix):
            return key
    return "cgm.other"


class _Acc:
    __slots__ = ("self_s", "incl_s")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Times calls into wrapped entry points; per-thread span stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: list = []
        self._undo: list = []
        #: counters fed by ``post`` hooks (rounds, bytes, passes, ...)
        self.counts: dict = defaultdict(float)

    # -- per-thread state ------------------------------------------------
    def _thread(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = ([], defaultdict(_Acc), defaultdict(float))
            self._local.st = st
            with self._lock:
                self._accs.append(st[1:])
        return st

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def in_span(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._thread()[0])

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, key, pre=None, post=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``key`` is a layer name or a callable ``(args, kwargs) -> name``;
        ``pre(args, kwargs)`` runs before the call and its result is
        handed to ``post(ctx, result)`` after it (both outside the span).
        """
        original = getattr(owner, attr)
        raw = vars(owner)[attr]  # restored as found (keeps classmethods)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = key(args, kwargs) if callable(key) else key
            ctx = pre(args, kwargs) if pre is not None else None
            stack, acc, nested = tracer._thread()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                a = acc[name]
                a.self_s += elapsed - frame[1]
                if not any(f[0] == name for f in stack):
                    a.incl_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
                    nested[(stack[-1][0], name)] += elapsed
            if post is not None:
                post(ctx, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def close(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Totals merged over threads.

        ``spans``: ``{key: (self_s, incl_s)}``; ``nested``:
        ``{(parent, child): seconds}`` of child spans opened directly
        inside a parent span; ``counts``: the ``add`` counters.
        """
        out: dict = {}
        nested: dict = defaultdict(float)
        with self._lock:
            for acc, pairs in self._accs:
                for name, a in list(acc.items()):
                    s, i = out.get(name, (0.0, 0.0))
                    out[name] = (s + a.self_s, i + a.incl_s)
                for pair, sec in list(pairs.items()):
                    nested[pair] += sec
            counts = dict(self.counts)
        return {"spans": out, "nested": dict(nested), "counts": counts}


def delta(after: dict, before: dict) -> dict:
    """Span and count totals accumulated between two snapshots."""
    spans = {}
    for name, (s, i) in after["spans"].items():
        s0, i0 = before["spans"].get(name, (0.0, 0.0))
        spans[name] = (s - s0, i - i0)
    nested = {
        k: v - before["nested"].get(k, 0.0) for k, v in after["nested"].items()
    }
    counts = {
        k: v - before["counts"].get(k, 0.0) for k, v in after["counts"].items()
    }
    return {"spans": spans, "nested": nested, "counts": counts}


def install_program_tracer() -> Tracer:
    """Wrap the layer entry points every workload shares."""
    import repro.dist as dist
    import repro.dist.dynamic as dynamic
    import repro.query.engine as engine
    from repro.cgm.machine import Machine
    from repro.dist.hat import CompiledHat
    from repro.seq.compiled import CompiledForest

    tr = Tracer()

    def label_of(args, kwargs):
        return kwargs["label"] if "label" in kwargs else args[1]

    def dispatch_pre(args, kwargs):
        tr.add("cgm.dispatches", 1)
        if tr.in_span("engine.execute"):
            tr.add("cgm.pass_dispatches", 1)

    for attr in ("run_phase", "compute"):
        tr.wrap(
            Machine,
            attr,
            lambda a, k: superstep_key(label_of(a, k), comm=False),
            pre=dispatch_pre,
        )
    for attr in ("exchange", "exchange_batches", "exchange_weighted"):
        tr.wrap(Machine, attr, lambda a, k: superstep_key(label_of(a, k), comm=True))

    tr.wrap(dist, "pad_to_power_of_two", "geometry.rank")

    def construct_pre(args, kwargs):
        return args[0], len(args[0].metrics.steps)

    def construct_post(ctx, _result):
        machine, first = ctx
        steps = machine.metrics.steps[first:]
        comm = [s for s in steps if s.kind == "comm"]
        tr.add("construct.rounds", len(comm))
        tr.add("construct.comm_bytes", sum(s.volume_bytes for s in comm))

    tr.wrap(dist, "construct_distributed_tree", "construct", construct_pre, construct_post)
    # the builds behind the lazy ``compiled()`` accessors: only cache
    # misses pay the wrapper, not the per-element cache hits of every pass
    tr.wrap(CompiledForest, "build", "compile")
    tr.wrap(CompiledHat, "build", "compile")
    tr.wrap(engine.QueryEngine, "plan", "query.plan")

    def pass_post(_ctx, rs):
        m = rs.metrics
        search = [s for s in m.steps if s.kind == "comm" and s.phase == "search"]
        tr.add("pass.count", 1)
        tr.add("pass.rounds", m.rounds)
        tr.add("search.rounds", len(search))
        tr.add("search.comm_bytes", sum(s.volume_bytes for s in search))
        tr.add("search.max_h", max((s.h for s in search), default=0))

    tr.wrap(engine.QueryEngine, "execute", "engine.execute", post=pass_post)
    tr.wrap(engine, "fold_segments", "kernel.fold")
    tr.wrap(dynamic, "fold_segments", "kernel.fold")
    return tr
