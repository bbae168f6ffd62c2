"""Vectorized local band-join, executed per task.

The paper's local algorithm (Section 6.1) is an index-nested-loop:
range-partition/sort T on the most selective dimension ``A_1``, binary
search the ``[s.A_1 - eps_1, s.A_1 + eps_1]`` window for each ``s``, and
exact-check the remaining dimensions. This module implements that plan
vectorized with numpy across *many tasks at once* using integer
**rank-space keys**:

* ``V`` = globally sorted T values on dim 0. Each T row gets the exact
  integer key ``task * M + rank(A_1 in V)`` (``M = len(V) + 1``); rows
  of one task occupy one contiguous integer block, ordered by ``A_1``.
* Each S row's window ``[A_1 - eps_1, A_1 + eps_1]`` maps to the exact
  rank interval ``[rank_left, rank_right)`` via two ``searchsorted``
  calls on ``V``; two more ``searchsorted`` calls on the key array give
  every S row's candidate range at once.

Integer keys make dim-0 candidate selection *exact* — no float
normalization, no pads, and no blow-up on heavy-tailed domains whose
span dwarfs the band width. Candidates are then expanded chunk-wise
(bounded memory) and filtered on all remaining dimensions.

A pair is produced iff both tuples share the task and satisfy the band
condition — together with the partitioning contract (exactly one common
task per joining pair) this yields each output row exactly once.
"""
from __future__ import annotations

import numpy as np


def band_join_tasks(
    task_s: np.ndarray,
    pts_s: np.ndarray,
    task_t: np.ndarray,
    pts_t: np.ndarray,
    eps: np.ndarray,
    produce_pairs: bool = False,
    chunk_candidates: int = 8_000_000,
):
    """Band-join within each task.

    Returns ``(counts_per_s, total)`` where ``counts_per_s[k]`` is the
    number of matches of S row k (within its task), or
    ``(s_rows, t_rows, total)`` row-index pairs when ``produce_pairs``.
    Aggregate per task/worker via ``np.bincount(task_s, counts_per_s)``.
    """
    eps = np.asarray(eps, dtype=float)
    n_s = len(task_s)
    counts = np.zeros(n_s, dtype=np.int64)
    pair_s: list[np.ndarray] = []
    pair_t: list[np.ndarray] = []
    if n_s == 0 or len(task_t) == 0:
        if produce_pairs:
            return np.empty(0, np.int64), np.empty(0, np.int64), 0
        return counts, 0

    t0_vals = pts_t[:, 0].astype(float)
    V = np.sort(t0_vals)
    M = np.int64(len(V) + 1)

    order_t = np.lexsort((t0_vals, task_t))
    rank_t = np.searchsorted(V, t0_vals[order_t], side="left").astype(np.int64)
    key_t = task_t[order_t].astype(np.int64) * M + rank_t
    pts_t_sorted = pts_t[order_t]

    s0 = pts_s[:, 0].astype(float)
    rlo = np.searchsorted(V, s0 - eps[0], side="left").astype(np.int64)
    rhi = np.searchsorted(V, s0 + eps[0], side="right").astype(np.int64)
    base = task_s.astype(np.int64) * M
    lo = np.searchsorted(key_t, base + rlo, side="left")
    hi = np.searchsorted(key_t, base + rhi, side="left")
    widths = hi - lo

    # chunk S rows so expanded candidates stay under chunk_candidates
    cum = np.cumsum(widths)
    start = 0
    total = 0
    while start < n_s:
        budget = (cum[start - 1] if start else 0) + chunk_candidates
        end = int(np.searchsorted(cum, budget, side="right"))
        end = max(end, start + 1)
        sl = slice(start, end)
        w_sl = widths[sl]
        n_cand = int(w_sl.sum())
        if n_cand:
            s_rep = np.repeat(np.arange(start, end), w_sl)
            # candidate T positions: for each s, lo[s] .. hi[s]-1
            offs = np.arange(n_cand) - np.repeat(
                np.concatenate(([0], np.cumsum(w_sl)[:-1])), w_sl
            )
            t_pos = np.repeat(lo[sl], w_sl) + offs
            # dim-0 selection is exact by construction; filter remaining
            # dims (dim 0 re-checked only for boundary ties, cheap)
            ok = np.ones(n_cand, dtype=bool)
            for dim in range(pts_s.shape[1]):
                diff = np.abs(pts_s[s_rep, dim] - pts_t_sorted[t_pos, dim])
                ok &= diff <= eps[dim]
            n_ok = int(ok.sum())
            total += n_ok
            if n_ok:
                np.add.at(counts, s_rep[ok], 1)
                if produce_pairs:
                    pair_s.append(s_rep[ok])
                    pair_t.append(order_t[t_pos[ok]])
        start = end

    if produce_pairs:
        ps = np.concatenate(pair_s) if pair_s else np.empty(0, np.int64)
        pt = np.concatenate(pair_t) if pair_t else np.empty(0, np.int64)
        return ps, pt, total
    return counts, total


def band_join_count(pts_s: np.ndarray, pts_t: np.ndarray, eps: np.ndarray) -> int:
    """Single-task band-join cardinality (used for ground truth and for
    output-sample generation)."""
    z_s = np.zeros(len(pts_s), dtype=np.int64)
    z_t = np.zeros(len(pts_t), dtype=np.int64)
    _, total = band_join_tasks(z_s, pts_s, z_t, pts_t, eps)
    return total


def band_join_pairs(
    pts_s: np.ndarray, pts_t: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-task band-join producing (s_row, t_row) index pairs."""
    z_s = np.zeros(len(pts_s), dtype=np.int64)
    z_t = np.zeros(len(pts_t), dtype=np.int64)
    ps, pt, _ = band_join_tasks(z_s, pts_s, z_t, pts_t, eps, produce_pairs=True)
    return ps, pt
