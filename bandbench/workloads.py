"""The benchmark's band-join workloads and how one query set runs.

A workload is a fixed band-join (inputs, ε, w=30) plus a query set: the
methods it partitions with, all sharing one ``draw_samples`` call, as
``repro.harness.runner.run_suite`` shares it. Each query builds its
partitioning through ``runner.build_partitioning`` and then executes it:
with the exact simulator (``evaluate_partitioning``) or, on the Spark
workload, with the real ``distributed_band_join`` operator in pairs mode.

Every call into the program goes through a module attribute of
``repro``; the traced run wraps those attributes in place.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.cost_model import CostModel
from repro.core.sampling import draw_samples
from repro.dist.metrics import EvalResult, evaluate_partitioning
from repro.dist.partitioning import Partitioning
from repro.harness.experiments import ebird_cloud_inputs, pareto_inputs
from repro.harness.runner import build_partitioning

#: workers, as in the paper's main tables
W = 30
#: Optimizers that search before any tuple is assigned. 1-Bucket and
#: Grid-ε construction counts as execution, as ``harness/runner.py``
#: credits Grid-ε with zero optimization time.
PLANNED = frozenset({"recpart", "csio"})


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "pareto" or "ebird"
    n: int                      # tuples per relation (pareto only)
    d: int
    eps: float                  # band width, the same in every dimension
    methods: tuple[str, ...]
    draws: int = 1              # input draws per run, issued round-robin
    spark: bool = False

    @property
    def eps_vec(self) -> np.ndarray:
        return np.full(self.d, self.eps)

    def inputs(self, seed: int, scale: float = 1.0) -> list[tuple[np.ndarray, np.ndarray]]:
        """The run's ``draws`` input pairs (S, T) for workload ``seed``;
        ``scale`` shrinks the relations for tests."""
        if self.kind == "pareto":
            n = max(64, round(self.n * scale))
            return [
                pareto_inputs(n, 1.5, self.d, seed=seed * self.draws + j)
                for j in range(self.draws)
            ]
        # The stand-in for the paper's ebird and cloud datasets is one fixed
        # dataset, as in results/, whatever the workload seed. Another
        # generator seed is another dataset (its cluster weights come from
        # the seed: seed 1 has 400k result pairs against seed 0's 544k), and
        # shuffling the rows by the seed changes RecPart's samples enough to
        # spread dup_overhead from 0.044 to 0.066 over five seeds, wider
        # than a useful regression bound.
        return [ebird_cloud_inputs(scale=scale, seed=0)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ebird-spark", "ebird", 0, 3, 2.0, ("recpart",), spark=True),
        Workload("baselines3d", "pareto", 12_500, 3, 35.0, ("csio", "one_bucket", "grid_eps")),
    )
}


@dataclass
class Query:
    """One method's partitioning and what executing it returned."""

    method: str
    part: Partitioning | None = None
    ev: EvalResult | None = None       # exact I / L_m of ``part``
    pairs: np.ndarray | None = None    # (s_id, t_id) rows, Spark only
    error: str | None = None


@dataclass
class QuerySet:
    wall_s: float = 0.0
    plan_s: float = 0.0
    exec_s: float = 0.0
    queries: list[Query] = field(default_factory=list)


#: Runs a partitioning on Spark and returns its (s_id, t_id) rows.
SparkJoin = Callable[[Partitioning, np.ndarray], np.ndarray]
#: Replaces a built partitioning before it executes (tests inject faults).
Corrupt = Callable[[Partitioning, np.ndarray, np.ndarray], Partitioning]


def run_query_set(
    wl: Workload,
    S: np.ndarray,
    T: np.ndarray,
    cm: CostModel,
    spark_join: SparkJoin | None = None,
    corrupt: Corrupt | None = None,
) -> QuerySet:
    """Issue the workload's queries one after another and time them.

    A query that raises is recorded with its error and the set goes on;
    the caller counts it as failed.
    """
    eps = wl.eps_vec
    qs = QuerySet(queries=[Query(m) for m in wl.methods])
    t0 = time.perf_counter()
    try:
        samples = draw_samples(S, T, eps, seed=0)
    except Exception as e:  # a failing layer is counted, not fatal
        for q in qs.queries:
            q.error = f"draw_samples: {type(e).__name__}: {e}"
        qs.wall_s = qs.plan_s = time.perf_counter() - t0
        return qs
    qs.plan_s = time.perf_counter() - t0
    for q in qs.queries:
        try:
            a = time.perf_counter()
            q.part, _, _ = build_partitioning(
                q.method, S, T, eps, W, cm, seed=0, termination="theoretical", samples=samples
            )
            b = time.perf_counter()
            if corrupt is not None:
                q.part = corrupt(q.part, S, T)
            c = time.perf_counter()
            if spark_join is None:
                q.ev = evaluate_partitioning(q.part, S, T, eps, beta2=cm.b2, beta3=cm.b3)
            else:
                q.pairs = spark_join(q.part, eps)
            e = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failed query
            q.error = f"{q.method}: {type(exc).__name__}: {exc}"
            continue
        if q.method in PLANNED:
            qs.plan_s += b - a
        else:
            qs.exec_s += b - a
        qs.exec_s += e - c
    qs.wall_s = time.perf_counter() - t0
    return qs
