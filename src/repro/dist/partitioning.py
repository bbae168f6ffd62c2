"""The join-partitioning abstraction shared by RecPart and all baselines.

A :class:`Partitioning` materializes the paper's assignment function
``h : S ∪ T → 2^{1..w} \\ {}`` (Definition 1), factored through *tasks*:

* ``assign(points, side, ids)`` maps each input tuple to one or more
  **task** ids. A task is the unit of local-join work: a split-tree leaf
  (or one 1-Bucket cell inside a small leaf) for RecPart, a grid cell for
  Grid-eps, a matrix cell for 1-Bucket, a cover rectangle for CS_IO, a
  joinable block pair for IEJoin.
* ``task_to_worker`` maps tasks to the w workers (our stand-in for the
  paper's YARN scheduler: greedy LPT by estimated load, or hashing for
  the fine-grained grid).

Correctness contract (tested property): for every joining pair
``(s, t)`` there is **exactly one** task that receives both tuples, so
each output row is produced once and no post-hoc dedup is needed.

Fan-out primitives shared by the covers: :func:`matrix_cells` (1-Bucket's
r x c matrix, also inside RecPart's small leaves) and
:func:`expand_ranges` (COO expansion of CSR ranges: CS_IO/IEJoin stripes
and the local join's candidate windows).
"""
from __future__ import annotations

import abc

import numpy as np

Assignment = tuple[np.ndarray, np.ndarray]  # (row index into points, task id)


class Partitioning(abc.ABC):
    """Assignment of tuples to tasks plus a task->worker schedule."""

    #: total number of tasks (contiguous ids 0..n_tasks-1)
    n_tasks: int
    #: int array of shape (n_tasks,) with values in [0, w)
    task_to_worker: np.ndarray
    #: number of workers
    w: int

    @abc.abstractmethod
    def assign(
        self, points: np.ndarray, side: str, ids: np.ndarray | None = None
    ) -> Assignment:
        """Map tuples to tasks.

        ``points``: float array (n, d) of join-attribute values.
        ``side``: ``'S'`` or ``'T'``.
        ``ids``: optional int64 tuple ids; required by partitionings that
        use per-tuple randomized assignment (1-Bucket rows/columns) so the
        choice is deterministic and consistent across Spark executors.

        Returns ``(idx, task)`` in COO form: tuple ``points[idx[k]]`` is
        sent to ``task[k]``. A tuple may appear multiple times (input
        duplication) but never twice with the same task.
        """


#: a run of at least this many times w consecutive equal loads (in LPT
#: order) is assigned in one vectorized step instead of one heap pop each
_BATCH_RUN_PER_WORKER = 4
#: at most this many tasks per vectorized step, which bounds its
#: (w x candidates) table when one worker takes most of a run
_BATCH_MAX = 1 << 16


def lpt_schedule(task_loads: np.ndarray, w: int) -> np.ndarray:
    """Greedy longest-processing-time assignment of tasks to w workers.

    Sort tasks by load descending, always give the next task to the
    currently least-loaded worker (ties: lowest worker id). Returns
    task->worker map.

    Long runs of equal loads (Grid-eps's many one-cell tasks) skip the
    per-task heap: see :func:`_lpt_run`. The schedule is identical to the
    plain heap loop's.
    """
    loads = np.asarray(task_loads, dtype=float)
    n = len(loads)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    order = np.argsort(-loads)
    sorted_loads = loads[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_loads[1:] != sorted_loads[:-1]]))
    ends = np.append(starts[1:], n)
    batched = (ends - starts >= _BATCH_RUN_PER_WORKER * w) & (sorted_loads[starts] >= 0)
    worker_load = np.zeros(w)
    done = 0
    for a, b in zip(starts[batched].tolist(), ends[batched].tolist()):
        _lpt_heap(order[done:a], sorted_loads[done:a], worker_load, out)
        for c in range(a, b, _BATCH_MAX):
            e = min(b, c + _BATCH_MAX)
            out[order[c:e]] = _lpt_run(worker_load, sorted_loads[a], e - c)
        done = b
    _lpt_heap(order[done:], sorted_loads[done:], worker_load, out)
    return out


def _lpt_heap(tasks: np.ndarray, loads: np.ndarray, worker_load: np.ndarray, out: np.ndarray):
    """LPT one task at a time with a heap of (load, worker); updates
    ``worker_load`` and ``out`` in place."""
    import heapq

    heap = [(load, wk) for wk, load in enumerate(worker_load.tolist())]
    heapq.heapify(heap)
    picked = []
    for load in loads.tolist():
        cur, wk = heap[0]
        picked.append(wk)
        heapq.heapreplace(heap, (cur + load, wk))
    out[tasks] = picked
    for cur, wk in heap:
        worker_load[wk] = cur


def _lpt_run(worker_load: np.ndarray, load: float, m: int) -> np.ndarray:
    """Workers for m consecutive tasks of equal ``load`` >= 0, exactly as
    the heap would pick them; updates ``worker_load`` in place.

    Worker j's successive heap values are ``v_j, v_j+load, v_j+load+load,
    ...``, non-decreasing, so the heap's m pops are the m smallest
    (value, worker) pairs over all workers' sequences, in order. The
    sequences are built by ``cumsum``, whose sequential adds round like
    the heap's repeated adds. A worker whose candidates all got picked
    might have had more: then the step is redone with twice as many.
    """
    w = len(worker_load)
    if load == 0:
        return np.full(m, int(np.argmin(worker_load)), dtype=np.int64)
    k = m // w + 2
    while True:
        k = min(k, m + 1)
        seq = np.empty((w, k))
        seq[:, 0] = worker_load
        seq[:, 1:] = load
        np.cumsum(seq, axis=1, out=seq)
        # a stable sort of the row-major table orders ties by worker
        who = np.argsort(seq.ravel(), kind="stable")[:m] // k
        used = np.bincount(who, minlength=w)
        if used.max() < k:
            break
        k *= 2
    worker_load[:] = seq[np.arange(w), used]
    return who


def hash_ids(ids: np.ndarray, seed: int, mod: int) -> np.ndarray:
    """Deterministic pseudo-random bucket in [0, mod) per tuple id.

    SplitMix64-style mix so consecutive ids land in unrelated buckets;
    used for 1-Bucket row/column choices (paper: uniform random
    assignment) while staying reproducible across processes.
    """
    mixed_seed = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    x = ids.astype(np.uint64) + mixed_seed
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(mod)).astype(np.int64)


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(k, pos)`` with ``lo[k] <= pos < hi[k]``, ordered by k and
    then pos, as two int arrays ``(owner, pos)``.

    The COO fan-out of CSR lookups (stripe -> tasks) and of the local
    join's candidate windows (S row -> run of sorted T rows).
    """
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    pos = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    pos += np.arange(len(pos))
    return owner, pos


def matrix_cells(
    ids: np.ndarray, side: str, r: int, c: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """1-Bucket fan-out over an r x c matrix of cells ``row * c + col``.

    An S-tuple hashes to a row and goes to its c cells, a T-tuple hashes
    to a column and goes to its r cells, so every (s, t) pair meets in
    exactly one cell. Returns ``(k, cell)``: ``ids[k[j]]`` goes to
    ``cell[j]``, ordered by k.
    """
    n = len(ids)
    if side == "S":
        row = hash_ids(ids, seed, r)
        return np.repeat(np.arange(n), c), (row[:, None] * c + np.arange(c)).ravel()
    col = hash_ids(ids, seed + 7919, c)
    return np.repeat(np.arange(n), r), (np.arange(r) * c + col[:, None]).ravel()
