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

The per-task local joins are independent (Section 6.1: a worker joins
only the tuples it received), so they run on all usable CPUs, as
morsel-driven parallelism at task granularity:

* **Groups.** The tasks are cut into contiguous task-id ranges holding
  about equal numbers of S+T copies: :data:`GROUPS_PER_THREAD` ranges
  per thread, so that a thread that finishes early takes another, but
  none with fewer than :data:`GROUP_MIN_COPIES` copies, and one on a
  one-CPU machine. Each range gathers its own rows, ``S_pts[si[a]]``
  and ``T_pts[ti[b]]`` for its copies ``a`` and ``b``, and runs one
  :func:`band_join_tasks` call on them; its per-copy counts are summed
  into its own slice of the per-task output.
* **Identical counts.** Every copy belongs to exactly one task and every
  task to exactly one range, so a range's call sees all of its tasks'
  copies and nothing else, and finds the same pairs as one call over
  all tasks (its candidate path may differ; both paths give the same
  pairs). The counts are integers, so per-task output, ``O_total``, the
  LPT reschedule and every :class:`EvalResult` field are bit-identical
  for any number of ranges.
* **Threads.** ``len(os.sched_getaffinity(0))`` threads take ranges
  until none is left: the calling thread and a module-level
  :class:`ThreadPoolExecutor` of one thread per further CPU. The pool is
  made on the first evaluation that splits, never at import: Spark's
  Python worker daemon imports this package's operator and then forks
  its workers, which must not inherit a pool whose threads do not exist
  in them. numpy releases the GIL in the join's sorts, searches, gathers
  and filter ufuncs. No pool task submits to the pool, so concurrent
  callers share it safely.
* **Memory.** The full ``S_pts[si]`` / ``T_pts[ti]`` copies are never
  built; each thread holds one range's rows and join temporaries at a
  time. glibc gives each pool thread its own malloc arena, which keeps
  the high-water mark of the largest range that thread ran; the calling
  thread adds none. Evaluating ``bandbench``'s
  three ``baselines3d`` partitionings three times each under its malloc
  settings grew the process's peak RSS by 9.2 MB in one call over all
  tasks, by 16.1 MB on 4 threads (10.6 MB at 4 ranges per thread,
  5.9 MB on 2 threads at 4 per thread) and by 21.6-22.0 MB when 4 pool
  threads ran the ranges while the caller waited, 4-core VM.
"""
from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .local_join import band_join_tasks
from .partitioning import Partitioning, lpt_schedule

#: task-id ranges per thread. On 4 threads (medians, 4-core VM, the
#: benchmark's malloc settings), the simulation of RecPart on pareto-1.5
#: d=3 100k at eps = 140 took 0.67-0.69 s at 2 per thread against
#: 0.89 s at 1 and 0.68-0.75 s at 4; one call over all tasks took 1.5 s
GROUPS_PER_THREAD = 2
#: fewest S+T copies per range: a range's call has a fixed cost, and the
#: threads contend for the GIL between numpy calls. ``baselines3d``'s
#: CS_IO simulation (44k copies) took 32-37 ms in 8 ranges and 26-28 ms
#: in the 5 this allows (42-50 ms in one call)
GROUP_MIN_COPIES = 1 << 13

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


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

    si, st = part.assign(S_pts, "S", ids=np.arange(len(S_pts), dtype=np.int64))
    ti, tt = part.assign(T_pts, "T", ids=np.arange(len(T_pts), dtype=np.int64))

    per_task_in = np.bincount(st, minlength=part.n_tasks) + np.bincount(
        tt, minlength=part.n_tasks
    )
    per_task_out = np.zeros(part.n_tasks)
    O_total = 0
    if len(si) and len(ti):
        edges = _task_ranges(per_task_in, _n_groups(len(si) + len(ti))).tolist()
        ranges = list(zip(edges, edges[1:]))

        def join(lo: int, hi: int):
            return _join_range(lo, hi, S_pts, si, st, T_pts, ti, tt, eps)

        for (lo, hi), (out, total) in zip(ranges, _map_threads(join, ranges)):
            per_task_out[lo:hi] = out
            O_total += total

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


def _task_ranges(copies: np.ndarray, n_groups: int) -> np.ndarray:
    """Edges ``e`` of at most ``n_groups`` contiguous task-id ranges
    ``[e[g], e[g+1])`` that split the per-task ``copies`` about evenly."""
    cum = np.cumsum(copies)
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, n_groups) / n_groups) + 1
    return np.unique(np.concatenate([[0], cuts, [len(copies)]]))


def _join_range(lo, hi, S_pts, si, st, T_pts, ti, tt, eps) -> tuple[np.ndarray, int]:
    """Output per task of tasks ``lo..hi-1`` and their total: one local
    join over the copies ``(si, st)`` and ``(ti, tt)`` of those tasks."""
    a = (st >= lo) & (st < hi)
    b = (tt >= lo) & (tt < hi)
    task_s = st[a]
    counts, total = band_join_tasks(task_s, S_pts[si[a]], tt[b], T_pts[ti[b]], eps)
    return np.bincount(task_s - lo, weights=counts, minlength=hi - lo), total


def _threads() -> int:
    """Threads an evaluation runs on: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


def _n_groups(copies: int) -> int:
    """Task-id ranges for ``copies`` S+T copies: :data:`GROUPS_PER_THREAD`
    per thread (one on a one-CPU machine), but none under
    :data:`GROUP_MIN_COPIES` copies."""
    threads = _threads()
    groups = 1 if threads == 1 else GROUPS_PER_THREAD * threads
    return max(1, min(groups, copies // GROUP_MIN_COPIES))


def _map_threads(fn: Callable, args: list[tuple]) -> list:
    """``[fn(*a) for a in args]``, computed by the calling thread and
    up to ``_threads() - 1`` pool threads, each taking the next undone
    ``a`` until none is left. The caller works rather than waiting on
    ``pool.map``: a pool of ``_threads()`` threads keeps one more malloc
    arena (see the module docstring)."""
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(args)):
        todo.put(i)
    out: list = [None] * len(args)

    def drain() -> None:
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            out[i] = fn(*args[i])

    helpers = [_get_pool().submit(drain) for _ in range(min(_threads(), len(args)) - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    for f in helpers:
        f.result()
    return out


def _get_pool() -> ThreadPoolExecutor:
    """The simulator's helper threads, one per usable CPU but the
    caller's, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_threads() - 1, thread_name_prefix="simulate")
        return _pool
