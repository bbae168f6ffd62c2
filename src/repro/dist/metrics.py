"""Exact distributed-execution simulator and success measures.

Given a :class:`Partitioning` and the *full* inputs, this module applies
the assignment ``h`` exactly and computes the paper's measures of
success (Section 2):

* ``I``      — total input including duplicates: one shuffle record per
  (tuple, task) copy, matching the paper's MapReduce accounting (its
  Grid-eps d=8 rows show ~3^8-fold duplication, far above the worker
  count, so copies are counted per partition, not per worker);
* ``I_m/O_m`` — input/output on the *most loaded* worker, where load is
  ``L_i = β₂·I_i + β₃·O_i`` and outputs are produced by per-task local
  band-joins;
* ``L_m`` and the Lemma-1 lower bounds
  ``I ≥ |S|+|T|`` and ``L₀ = (β₂(|S|+|T|) + β₃|S⋈T|)/w``;
* the relative overheads ``(I-(|S|+|T|))/(|S|+|T|)`` and
  ``(L_m-L₀)/L₀`` used throughout the evaluation and in Figure 4.

This is the measurement substrate for every reproduced table: the
quantities are exact combinatorial properties of ``h``, identical to
what the paper measures on its EMR cluster, independent of hardware.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local_join import band_join_tasks
from .partitioning import Partitioning, lpt_schedule


@dataclass
class EvalResult:
    I: int            # total shuffled input incl. duplicates (I_s + I_t)
    I_s: int          # S-side (tuple, task) copies
    I_t: int
    I_m: int          # input on the most loaded worker
    O_m: int          # output on the most loaded worker
    L_m: float        # max worker load
    O_total: int      # exact |S join T|
    n_s: int
    n_t: int
    w: int
    beta2: float
    beta3: float
    worker_input: np.ndarray
    worker_output: np.ndarray

    @property
    def I_lower(self) -> int:
        return self.n_s + self.n_t

    @property
    def L_lower(self) -> float:
        return (self.beta2 * self.I_lower + self.beta3 * self.O_total) / self.w

    @property
    def dup_overhead(self) -> float:
        return (self.I - self.I_lower) / self.I_lower

    @property
    def load_overhead(self) -> float:
        lb = self.L_lower
        return (self.L_m - lb) / lb if lb > 0 else 0.0


def evaluate_partitioning(
    part: Partitioning,
    S_pts: np.ndarray,
    T_pts: np.ndarray,
    eps,
    beta2: float = 4.0,
    beta3: float = 1.0,
    s_ids: np.ndarray | None = None,
    t_ids: np.ndarray | None = None,
    count_output: bool = True,
    reschedule: bool = True,
) -> EvalResult:
    """Apply ``part`` to the full input and measure it exactly.

    With ``reschedule`` (default), tasks are re-assigned to workers by
    LPT on their *exact* loads before worker stats are computed. This is
    the simulator's stand-in for the paper's cluster scheduler: YARN
    dynamically balances the (many) tasks across workers at runtime, so
    a frozen assignment based on the optimizer's sample estimates would
    understate every method's achievable balance. The same policy is
    applied to all partitionings, so comparisons stay fair.
    """
    eps = np.asarray(eps, dtype=float)
    S_pts = np.asarray(S_pts, dtype=float)
    T_pts = np.asarray(T_pts, dtype=float)
    if S_pts.ndim == 1:
        S_pts = S_pts[:, None]
    if T_pts.ndim == 1:
        T_pts = T_pts[:, None]
    w = part.w
    if s_ids is None:
        s_ids = np.arange(len(S_pts), dtype=np.int64)
    if t_ids is None:
        t_ids = np.arange(len(T_pts), dtype=np.int64)

    si, st = part.assign(S_pts, "S", ids=s_ids)
    ti, tt = part.assign(T_pts, "T", ids=t_ids)

    per_task_out = np.zeros(part.n_tasks)
    O_total = 0
    if count_output and len(si) and len(ti):
        counts_per_s, O_total = band_join_tasks(
            st, S_pts[si], tt, T_pts[ti], eps
        )
        per_task_out = np.bincount(st, weights=counts_per_s, minlength=part.n_tasks)

    per_task_in = np.bincount(st, minlength=part.n_tasks) + np.bincount(
        tt, minlength=part.n_tasks
    )
    if reschedule:
        t2w = lpt_schedule(beta2 * per_task_in + beta3 * per_task_out, w)
    else:
        t2w = part.task_to_worker

    # one shuffle record per (tuple, task) copy — the paper's accounting
    worker_input = np.bincount(t2w, weights=per_task_in, minlength=w).astype(np.int64)
    worker_output = np.bincount(t2w, weights=per_task_out, minlength=w).astype(
        np.int64
    )

    loads = beta2 * worker_input + beta3 * worker_output
    m = int(np.argmax(loads))
    return EvalResult(
        I=int(len(si) + len(ti)),
        I_s=len(si),
        I_t=len(ti),
        I_m=int(worker_input[m]),
        O_m=int(worker_output[m]),
        L_m=float(loads[m]),
        O_total=int(O_total),
        n_s=len(S_pts),
        n_t=len(T_pts),
        w=w,
        beta2=beta2,
        beta3=beta3,
        worker_input=worker_input,
        worker_output=worker_output,
    )

