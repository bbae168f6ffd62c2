"""Spans around the program's public entry points, from outside it.

:func:`install` replaces each traced function at every module that
imported it (``repro.dist.metrics.band_join_tasks`` as well as
``repro.dist.local_join.band_join_tasks``, ``lpt_schedule`` as imported
by ``core/recpart``, ``core/split_tree`` and ``dist/metrics``) and wraps
Grid-ε's constructor and ``assign`` on every partitioning class. The wrappers
record a span only inside an open span, so work outside a timed query
set leaves no trace. One name is left alone: ``band_join_tasks`` in
``repro.dist.band_join`` runs inside Spark's Python workers, whose
reduce-side work the Spark event log measures instead (see sparklog.py).

Spans are nested and sequential on the driver's one thread, so a span's
self time is its duration minus the sum of its direct children's.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.grid_eps import GridPartitioning
from repro.dist.partitioning import Partitioning

Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    parent: Span | None
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.s - self.child_s

    def nearest(self, names: tuple[str, ...]) -> str | None:
        p = self.parent
        while p is not None:
            if p.name in names:
                return p.name
            p = p.parent
        return None


class Tracer:
    """In-memory spans of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if s.parent is not None:
                s.parent.child_s += s.s
            self.spans.append(s)

    def wrap(self, fn: Callable, name: str, count: Counter | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if count is not None:
                    s.counts.update(count(args, kwargs, out))
                return out

        return traced


#: (module, function, span name, counts taken from (args, kwargs, result))
FUNCTIONS: list[tuple[str, str, str, Counter | None]] = [
    ("repro.core.sampling", "draw_samples", "sampling",
     lambda a, k, out: {"output_pairs": len(out.o_s), "o_total_est": out.o_total_est}),
    ("repro.core.recpart", "recpart", "recpart",
     lambda a, k, out: {"iters": out.n_iters, "leaves": out.partitioning.n_leaves}),
    ("repro.baselines.csio", "build_csio", "csio", None),
    ("repro.dist.partitioning", "lpt_schedule", "lpt",
     lambda a, k, out: {"tasks": len(out)}),
    ("repro.dist.local_join", "band_join_tasks", "local_join",
     lambda a, k, out: {"pairs": int(out[-1])}),
    ("repro.dist.metrics", "evaluate_partitioning", "simulate", None),
    ("repro.dist.band_join", "distributed_band_join", "spark_join", None),
]
#: import sites not to wrap: the call runs in Spark's Python workers
SKIP = {("repro.dist.band_join", "band_join_tasks")}
#: modules whose imported names are wrapped
PREFIXES = ("repro.", "bandbench.")


def _assign_counts(a: tuple, k: dict, out) -> dict:
    side = a[2] if len(a) > 2 else k["side"]
    return {"copies": len(out[0]), "tasks": a[0].n_tasks if side == "S" else 0}


def _subclasses(cls: type) -> list[type]:
    out = []
    for c in cls.__subclasses__():
        out += [c, *_subclasses(c)]
    return out


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every traced entry point while the block runs."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod_name, fn_name, span, count in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), fn_name)
            new = tracer.wrap(orig, span, count)
            for name, mod in list(sys.modules.items()):
                if not name.startswith(PREFIXES) or mod is None:
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig and (name, attr) not in SKIP:
                        patch(mod, attr, new)
        patch(GridPartitioning, "__init__", tracer.wrap(
            GridPartitioning.__init__, "grid_eps.build",
            lambda a, k, out: {"tasks": a[0].n_tasks}))
        for cls in _subclasses(Partitioning):
            if "assign" in vars(cls):
                patch(cls, "assign", tracer.wrap(vars(cls)["assign"], "assign", _assign_counts))
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


#: per-layer metrics read from the spans, with their units
SPAN_METRICS = {
    "sampling.s": "s",
    "sampling.output_pairs": "count",
    "sampling.o_est_err": "ratio",
    "recpart.s": "s",
    "recpart.iters": "count",
    "recpart.leaves": "count",
    "recpart.lpt_calls": "count",
    "recpart.lpt_s": "s",
    "csio.s": "s",
    "grid_eps.build_s": "s",
    "grid_eps.tasks": "count",
    "assign.s": "s",
    "assign.copies": "count",
    "assign.tasks": "count",
    "lpt.s": "s",
    "lpt.tasks": "count",
    **{
        f"local_join.{p}.{m}": u
        for p in ("sampling", "simulate")
        for m, u in (("s", "s"), ("calls", "count"), ("pairs", "count"), ("pairs_per_s", "pairs/s"))
    },
    "simulate.s": "s",
    "simulate.self_s": "s",
}


def span_metrics(spans: list[Span], o_total: int) -> dict[str, float]:
    """Sum the spans of one query set into :data:`SPAN_METRICS`;
    ``o_total`` is the exact result size, for the sampling estimate's error."""
    m = dict.fromkeys(SPAN_METRICS, 0.0)
    o_est = []
    for s in spans:
        c = s.counts
        if s.name == "sampling":
            m["sampling.s"] += s.s
            m["sampling.output_pairs"] += c["output_pairs"]
            o_est.append(c["o_total_est"])
        elif s.name == "recpart":
            m["recpart.s"] += s.s
            m["recpart.iters"] += c["iters"]
            m["recpart.leaves"] += c["leaves"]
        elif s.name == "csio":
            m["csio.s"] += s.s
        elif s.name == "grid_eps.build":
            m["grid_eps.build_s"] += s.s
            m["grid_eps.tasks"] += c["tasks"]
        elif s.name == "assign":
            m["assign.s"] += s.s
            m["assign.copies"] += c["copies"]
            m["assign.tasks"] += c["tasks"]
        elif s.name == "lpt":
            m["lpt.s"] += s.s
            m["lpt.tasks"] += c["tasks"]
            if s.nearest(("recpart",)) is not None:
                m["recpart.lpt_calls"] += 1
                m["recpart.lpt_s"] += s.s
        elif s.name == "local_join":
            parent = s.nearest(("sampling", "simulate"))
            if parent is not None:
                m[f"local_join.{parent}.s"] += s.s
                m[f"local_join.{parent}.calls"] += 1
                m[f"local_join.{parent}.pairs"] += c["pairs"]
        elif s.name == "simulate":
            m["simulate.s"] += s.s
            m["simulate.self_s"] += s.self_s
    if o_est and o_total:
        m["sampling.o_est_err"] = abs(statistics.fmean(o_est) / o_total - 1)
    for p in ("sampling", "simulate"):
        secs = m[f"local_join.{p}.s"]
        m[f"local_join.{p}.pairs_per_s"] = m[f"local_join.{p}.pairs"] / secs if secs else 0.0
    return m
