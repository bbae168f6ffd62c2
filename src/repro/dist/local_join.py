"""Vectorized local band-join, executed per task.

The paper's local algorithm (Section 6.1) is an index-nested-loop:
sort T on ``A_1``, binary search the ``[s.A_1 - eps_1, s.A_1 + eps_1]``
window for each ``s``, and exact-check the remaining dimensions. This
module implements that plan vectorized with numpy across *many tasks at
once* using integer **rank-space keys**:

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
(bounded memory) and filtered on all dimensions.

The dim-0 window alone can admit hundreds of candidates per result when
the other dimensions do the selecting (heavy-tailed data in d >= 3).
So there are two candidate paths, chosen per call from the dim-0 window
sizes the first path computes anyway:

* **dim 0** (above): one candidate range per S row.
* **ε-grid**, taken when the dim-0 windows hold more than
  :data:`_GRID_MIN_RATIO` times ``3^|G| * n_S + n_T`` candidates, where
  ``G`` is dims 1 and 2 (those present with a finite ``eps > 0``). A T
  row's block is the dense rank of ``(task, floor(a_g / eps_g) for g in
  G)`` and its key ``block * M + rank(A_1)``; an S row looks up the
  blocks of the (at most 3 per dim) cells its band touches, each with
  the same dim-0 rank window. See :func:`_grid_windows`.

Both paths check every candidate on all dimensions with the same exact
filter, so they produce the same pairs; the grid path sorts its pairs
back into the dim-0 path's order (S row, then T by task, ``A_1``, row).

A pair is produced iff both tuples share the task and satisfy the band
condition — together with the partitioning contract (exactly one common
task per joining pair) this yields each output row exactly once.
"""
from __future__ import annotations

import numpy as np

from .partitioning import expand_ranges

#: the grid path runs when the dim-0 windows hold more than this many
#: times its own lookup volume (3^|G| cells per S row plus one key per T
#: row). Both paths timed on the 14 calls of one query set each of
#: pareto-1.5 d=3 (12.5k and 100k), d=8 (7k) and ebird x cloud (best of
#: 3, 4-core VM): the grid path took 1.6-2.5x the dim-0 time at ratios
#: up to 3.9 and 0.49-0.90x at 4.2-16.4, so it breaks even near 4; at 16
#: the dim-0 path keeps every call within 4x of that break-even.
_GRID_MIN_RATIO = 16


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

    # candidate windows: lo[j]..hi[j]-1 index rows of pts_t_sorted for S
    # row owner[j] (owner None: j itself, the dim-0 path)
    owner = grid_perm = None
    grid = [g for g in range(1, min(3, pts_s.shape[1])) if 0 < eps[g] < np.inf]
    if grid and widths.sum() > _GRID_MIN_RATIO * (3 ** len(grid) * n_s + len(V)):
        owner, lo, hi, grid_perm = _grid_windows(
            task_s, pts_s, task_t[order_t], pts_t_sorted, eps, grid, rlo, rhi, rank_t, M
        )
        pts_t_sorted = pts_t_sorted[grid_perm]
        widths = hi - lo

    # chunk windows so expanded candidates stay under chunk_candidates
    cum = np.cumsum(widths)
    n_win = len(widths)
    start = 0
    total = 0
    while start < n_win:
        budget = (cum[start - 1] if start else 0) + chunk_candidates
        end = int(np.searchsorted(cum, budget, side="right"))
        end = max(end, start + 1)
        sl = slice(start, end)
        # candidate T positions: for each window, lo .. hi-1
        s_rep, t_pos = expand_ranges(lo[sl], hi[sl])
        if len(s_rep):
            s_rep += start
            if owner is not None:
                s_rep = owner[s_rep]
            # the windows are supersets; filter on every dim (dim 0
            # re-checked only for boundary ties, cheap)
            ok = np.ones(len(s_rep), dtype=bool)
            for dim in range(pts_s.shape[1]):
                diff = np.abs(pts_s[s_rep, dim] - pts_t_sorted[t_pos, dim])
                ok &= diff <= eps[dim]
            n_ok = int(ok.sum())
            total += n_ok
            if n_ok:
                counts += np.bincount(s_rep[ok], minlength=n_s)
                if produce_pairs:
                    pair_s.append(s_rep[ok])
                    pair_t.append(t_pos[ok])
        start = end

    if produce_pairs:
        ps = np.concatenate(pair_s) if pair_s else np.empty(0, np.int64)
        pt = np.concatenate(pair_t) if pair_t else np.empty(0, np.int64)
        if grid_perm is not None:
            # back to dim-0 path positions and order: S row, then T by
            # (task, A_1, row), which is order_t's order
            pt = grid_perm[pt]
            by = np.lexsort((pt, ps))
            ps, pt = ps[by], pt[by]
        return ps, order_t[pt], total
    return counts, total


def _grid_windows(task_s, pts_s, task_t, pts_t, eps, grid, rlo, rhi, rank_t, M):
    """Candidate windows of the ε-grid path.

    ``task_t``, ``pts_t`` and ``rank_t`` are T in dim-0 path order. A T
    row's block is the dense rank of ``(task, floor(a_g / eps_g) for g in
    grid)``, built one level at a time with 1-D ``np.unique`` (each level
    key is ``prefix_rank * n_cells + cell_rank < n_T^2``, so it cannot
    overflow). Each S row looks up the blocks of every occupied cell in
    ``[floor(low / eps_g), floor(high / eps_g)]`` per grid dim, and each
    block found gives one window: the S row's dim-0 rank interval
    ``[rlo, rhi)`` within that block.

    No T row that passes the exact filter ``fl(|s - t|) <= eps`` is
    missed. That filter lets the real ``|s - t|`` exceed ``eps`` by up to
    half an ulp of ``eps``, so ``t`` can lie below ``fl(s - eps)``
    (``s = 0.7, t = -1e-17, eps = 0.7`` joins, and ``t`` is in cell -1,
    ``fl(s - eps) = 0`` in cell 0). So ``low`` and ``high`` are
    ``fl(s -+ eps)`` moved out by four ulps of ``max(|s|, eps)``, more
    than the filter's slack plus the roundings of ``s -+ eps`` and of the
    move itself; then ``t >= low`` gives ``floor(t / eps) >= floor(low /
    eps)``, as rounded division and floor are monotone.

    Returns ``(owner, lo, hi, perm)``: window j covers rows lo[j]..hi[j]-1
    of ``pts_t[perm]`` for S row ``owner[j]``; owners are ascending.
    """
    level, block_t = np.unique(task_t, return_inverse=True)
    block_s = np.searchsorted(level, task_s)
    owner = np.flatnonzero(level[np.minimum(block_s, len(level) - 1)] == task_s)
    block_s = block_s[owner]
    for g in grid:
        cells, cell_t = np.unique(np.floor(pts_t[:, g] / eps[g]), return_inverse=True)
        level, block_t = np.unique(block_t * len(cells) + cell_t, return_inverse=True)
        a = pts_s[owner, g].astype(float)
        pad = 4 * np.spacing(np.maximum(np.abs(a), eps[g]))
        low = (a - eps[g]) - pad
        high = (a + eps[g]) + pad
        first = np.searchsorted(cells, np.floor(low / eps[g]), side="left")
        last = np.searchsorted(cells, np.floor(high / eps[g]), side="right")
        k, cell_s = expand_ranges(first, last)
        key = block_s[k] * len(cells) + cell_s
        block_s = np.searchsorted(level, key)
        hit = level[np.minimum(block_s, len(level) - 1)] == key
        owner, block_s = owner[k[hit]], block_s[hit]
    key_t = block_t.astype(np.int64) * M + rank_t
    perm = np.argsort(key_t, kind="stable")
    key_t = key_t[perm]
    base = block_s.astype(np.int64) * M
    lo = np.searchsorted(key_t, base + rlo[owner], side="left")
    hi = np.searchsorted(key_t, base + rhi[owner], side="left")
    return owner, lo, hi, perm


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
