"""Experiment harness: build each method's partitioning, measure it.

``run_method`` produces one table cell-group: optimization time (wall
clock of the optimizer), the exact partitioning quality metrics
(I, I_m, O_m, L_m from the simulator), and the cost-model join-time
estimate — the same methodology the paper uses for Tables 4c/4d, 5,
13–15 ("join time is estimated using the running-time model").

Method names: ``recpart`` (symmetric), ``recpart_s``, ``csio``,
``one_bucket``, ``grid_eps``, ``grid_star``, ``iejoin:<sizePerBlock>``.

RecPart runs with the *theoretical* termination rule by default: at
1/2000 input scale our sample estimates are noisier than the paper's,
which makes the applied 1%-window rule stop early; both rules are
implemented (``core.recpart``) and exercised by tests and Table 16.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..baselines.csio import build_csio
from ..baselines.grid_eps import (
    GridPartitioning,
    expansion_count,
    grid_eps_analytic,
    grid_origin,
    grid_star,
)
from ..baselines.iejoin import IEJoinPartitioning
from ..baselines.one_bucket import OneBucketPartitioning
from ..core.cost_model import CostModel
from ..core.geometry import band_widths, check_relation
from ..core.recpart import recpart
from ..core.sampling import Samples, draw_samples
from ..dist.metrics import EvalResult, evaluate_partitioning
from ..dist.partitioning import Partitioning

#: materializing more grid copies than this switches Grid-eps to the
#: analytic path (paper model-estimates Grid-eps at d=8 for the same reason)
GRID_ANALYTIC_LIMIT = 30_000_000

PRETTY = {
    "recpart": "RecPart",
    "recpart_s": "RecPart-S",
    "csio": "CS_IO",
    "one_bucket": "1-Bucket",
    "grid_eps": "Grid-eps",
    "grid_star": "Grid*",
    "iejoin": "IEJoin",
}


@dataclass
class MethodRun:
    method: str
    opt_time: float
    join_time_est: float
    eval: EvalResult
    extra: dict

    @property
    def total_time(self) -> float:
        return self.opt_time + self.join_time_est

    @property
    def pretty(self) -> str:
        base = self.method.split(":")[0]
        name = PRETTY.get(base, base)
        if ":" in self.method:
            name += f"({self.method.split(':', 1)[1]})"
        return name


def build_partitioning(
    method: str,
    S: np.ndarray,
    T: np.ndarray,
    eps: np.ndarray,
    w: int,
    cost_model: CostModel,
    seed: int = 0,
    termination: str = "theoretical",
    samples: Samples | None = None,
) -> tuple[Partitioning, float, dict]:
    """Construct one method's partitioning; returns (partitioning,
    optimization seconds, method-specific extras). Pre-drawn ``samples``
    are shared by the sample-based optimizers so that reported
    optimization times exclude statistics gathering, which the paper
    accounts for separately (Section 6.1). A 1-D relation is one join
    attribute. Raises ``ValueError`` when S or T is empty or holds a
    non-finite coordinate. RecPart's extras are its iteration count,
    leaf count and why it stopped (``RecPartResult.stop_reason``)."""
    S, T = check_relation(S, "S"), check_relation(T, "T")
    t0 = time.perf_counter()
    extra: dict = {}
    if method in ("recpart", "recpart_s"):
        res = recpart(
            S, T, eps, w,
            symmetric=(method == "recpart"),
            termination=termination,
            cost_model=cost_model,
            seed=seed,
            samples=samples,
        )
        part = res.partitioning
        extra = {"iters": res.n_iters, "leaves": part.n_leaves, "stop_reason": res.stop_reason}
    elif method == "csio":
        part = build_csio(S, T, eps, w, cost_model=cost_model, seed=seed, samples=samples)
    elif method == "one_bucket":
        part = OneBucketPartitioning(len(S), len(T), w, seed=seed)
    elif method == "grid_eps":
        part = GridPartitioning(S, T, eps, eps, w, seed=seed)
    elif method == "grid_star":
        part, j, trace = grid_star(S, T, eps, w, cost_model=cost_model, seed=seed)
        extra = {"grid_j": j, "trace": trace}
    elif method.startswith("iejoin"):
        spb = int(method.split(":", 1)[1])
        part = IEJoinPartitioning(
            S, T, eps, w, spb, beta2=cost_model.b2, beta3=cost_model.b3,
            seed=seed, samples=samples,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return part, time.perf_counter() - t0, extra


def _grid_analytic_run(S, T, eps, w, cm, o_total, seed) -> MethodRun:
    t0 = time.perf_counter()
    I, I_m, O_m = grid_eps_analytic(S, T, eps, eps, w, o_total=o_total, seed=seed)
    opt = time.perf_counter() - t0
    worker_in = np.full(w, I // w)
    worker_out = np.full(w, O_m)
    ev = EvalResult(
        I=I, I_s=len(S), I_t=I - len(S), I_m=I_m, O_m=O_m,
        L_m=float(cm.b2 * I_m + cm.b3 * O_m), O_total=o_total,
        n_s=len(S), n_t=len(T), w=w, beta2=cm.b2, beta3=cm.b3,
        worker_input=worker_in, worker_output=worker_out,
    )
    return MethodRun(
        method="grid_eps", opt_time=opt,
        join_time_est=cm.predict(I, I_m, O_m), eval=ev, extra={"analytic": True},
    )


def run_method(
    method: str,
    S: np.ndarray,
    T: np.ndarray,
    eps,
    w: int,
    cost_model: CostModel | None = None,
    seed: int = 0,
    termination: str = "theoretical",
    samples: Samples | None = None,
    o_total_hint: int | None = None,
) -> MethodRun:
    """Build + exactly evaluate + model-estimate one method."""
    S, T = check_relation(S, "S"), check_relation(T, "T")
    eps = band_widths(eps, S.shape[1])
    cm = cost_model or CostModel()
    if method == "grid_eps" and np.all(eps > 0):
        origin = grid_origin(np.vstack([S, T]), eps, eps)
        if expansion_count(T, eps, eps, origin) > GRID_ANALYTIC_LIMIT:
            return _grid_analytic_run(S, T, eps, w, cm, int(o_total_hint or 0), seed)
    part, opt_time, extra = build_partitioning(
        method, S, T, eps, w, cm, seed=seed, termination=termination, samples=samples
    )
    if method == "grid_eps":
        # Grid-eps needs no statistics or search — the paper credits it
        # with near-zero optimization cost; our constructor's ranking of
        # occupied cells into task ids is simulator bookkeeping, not
        # optimization.
        opt_time = 0.0
    ev = evaluate_partitioning(part, S, T, eps, beta2=cm.b2, beta3=cm.b3)
    t_est = cm.predict(ev.I, ev.I_m, ev.O_m)
    return MethodRun(method=method, opt_time=opt_time, join_time_est=t_est, eval=ev, extra=extra)


def run_suite(
    methods: list[str],
    S: np.ndarray,
    T: np.ndarray,
    eps,
    w: int,
    cost_model: CostModel | None = None,
    seed: int = 0,
    termination: str = "theoretical",
) -> dict[str, MethodRun | None]:
    """Run several methods on the same inputs, sharing one set of
    samples. A method that is undefined for the setting (Grid-eps at
    band width 0) maps to None, mirroring the '-' cells in the paper's
    tables. Grid-eps falls back to the analytic path (using the exact
    output total from an earlier method) when duplication would exceed
    :data:`GRID_ANALYTIC_LIMIT` copies."""
    S, T = check_relation(S, "S"), check_relation(T, "T")
    eps = np.asarray(eps, dtype=float)
    cm = cost_model or CostModel()
    samples = draw_samples(S, T, eps, seed=seed)
    out: dict[str, MethodRun | None] = {}
    o_total = None
    # run grid-family methods last so o_total is known for the analytic path
    ordered = sorted(methods, key=lambda m: m.startswith("grid"))
    for m in ordered:
        if m in ("grid_eps", "grid_star") and np.all(eps == 0):
            out[m] = None
            continue
        out[m] = run_method(
            m, S, T, eps, w, cost_model=cm, seed=seed, samples=samples,
            o_total_hint=o_total, termination=termination,
        )
        if o_total is None and out[m] is not None:
            o_total = out[m].eval.O_total
    return {m: out.get(m) for m in methods}
