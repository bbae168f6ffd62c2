"""Vectorized local band-join, executed per task.

The paper's local algorithm (Section 6.1) is an index-nested-loop:
sort T on ``A_1``, binary search the ``[s.A_1 - eps_1, s.A_1 + eps_1]``
window for each ``s``, and exact-check the remaining dimensions. This
module implements that plan vectorized with numpy across *many tasks at
once* using integer **rank-space keys**:

* ``V`` = globally sorted T values on dim 0. Each T row gets the exact
  integer key ``task * M + rank(A_1 in V)`` (``M = len(V) + 1``); rows
  of one task occupy one contiguous integer block, ordered by ``A_1``.
* Each S row's window ``[A_1 - eps_1, A_1 + eps_1]``, padded by four
  ulps on each side (:func:`_band_bounds`), maps to the rank interval
  ``[rank_left, rank_right)`` via two ``searchsorted`` calls on ``V``;
  two more ``searchsorted`` calls on the key array give every S row's
  candidate range at once.

Integer keys keep dim-0 candidate selection free of float normalization
and of blow-up on heavy-tailed domains whose span dwarfs the band width.
The pad makes the window a superset of what the exact filter accepts:
``fl(|s - t|) <= eps`` holds for some ``t`` just beyond ``fl(s -+ eps)``,
and an unpadded window dropped those pairs.

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

Both paths then run the same exact filter, so they produce the same
pairs; the grid path sorts its pairs back into the dim-0 path's order
(S row, then T by task, ``A_1``, row). The filter keeps every vector in
cache, as in MonetDB/X100's vectorized execution: windows are expanded
:data:`CHUNK_CANDIDATES` candidates at a time, and each chunk is checked
one dimension at a time on contiguous per-dimension copies, compacting
the survivors after each (dims 1..d-1 first, dim 0, which the window
already bounds, last). Windows are ordered by S row on both paths, so a
chunk's per-S counts go into one slice of the count array.

A pair is produced iff both tuples share the task and satisfy the band
condition — together with the partitioning contract (exactly one common
task per joining pair) this yields each output row exactly once.
"""
from __future__ import annotations

import numpy as np

from .partitioning import expand_ranges

#: the grid path runs when the dim-0 windows hold more than this many
#: times its own lookup volume (3^|G| cells per S row plus one key per T
#: row). Both paths timed with the chunked filter on 13 calls: one query
#: set each of pareto-1.5 d=3 (12.5k and 100k), d=8 (7k) and ebird x
#: cloud (best of 5, 4-core VM). The grid path took 1.7-3.6x the dim-0
#: time at ratios up to 8, 1.10x at 19.4, and 0.19-0.87x at 29.8-255,
#: so it breaks even near 20-25 (near 4 with the earlier unchunked
#: filter, which made dim-0 candidates dearer). At 16 the grid path is
#: at most ~1.2x slower where it is chosen early, while the dim-0 path's
#: loss grows with the ratio (5x at 255).
_GRID_MIN_RATIO = 16

#: candidates expanded and filtered at a time, so a chunk's few vectors
#: (512 KB each at 8 bytes) stay in cache. Timed on the captured calls
#: of one query set per benchmark workload (best of 7, 4-core VM with
#: 2 MiB of L2 per core): 2^14 to 2^18 were within noise of each other;
#: 2^20 was slower on the large calls (1-Bucket 0.178 s against
#: 0.105-0.118 s, the ebird x cloud simulation 0.74 s against
#: 0.55-0.65 s), and 8M, the earlier default, slower still (0.16 s and
#: 0.85 s).
CHUNK_CANDIDATES = 1 << 16


def band_join_tasks(
    task_s: np.ndarray,
    pts_s: np.ndarray,
    task_t: np.ndarray,
    pts_t: np.ndarray,
    eps: np.ndarray,
    produce_pairs: bool = False,
    chunk_candidates: int = CHUNK_CANDIDATES,
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

    low, high = _band_bounds(pts_s[:, 0].astype(float), eps[0])
    rlo = np.searchsorted(V, low, side="left").astype(np.int64)
    rhi = np.searchsorted(V, high, side="right").astype(np.int64)
    base = task_s.astype(np.int64) * M
    lo = np.searchsorted(key_t, base + rlo, side="left")
    hi = np.searchsorted(key_t, base + rhi, side="left")
    widths = hi - lo

    # candidate windows: lo[j]..hi[j]-1 index rows pts_t[t_rows] for S
    # row owner[j] (owner None: j itself, the dim-0 path)
    owner = grid_perm = None
    t_rows = order_t
    grid = [g for g in range(1, min(3, pts_s.shape[1])) if 0 < eps[g] < np.inf]
    if grid and widths.sum() > _GRID_MIN_RATIO * (3 ** len(grid) * n_s + len(V)):
        owner, lo, hi, grid_perm = _grid_windows(
            task_s, pts_s, task_t[order_t], pts_t[order_t], eps, grid, rlo, rhi, rank_t, M
        )
        t_rows = order_t[grid_perm]
        widths = hi - lo

    # the windows are supersets: filter on every dim, dim 0 last (its
    # window already bounds it), on contiguous copies of each column
    dims = [*range(1, pts_s.shape[1]), 0]
    cols = [(np.ascontiguousarray(pts_s[:, k]), pts_t[t_rows, k], eps[k]) for k in dims]
    # chunk windows so expanded candidates stay under chunk_candidates
    cum = np.cumsum(widths)
    n_win = len(widths)
    start = 0
    total = 0
    while start < n_win:
        budget = (cum[start - 1] if start else 0) + chunk_candidates
        end = max(int(np.searchsorted(cum, budget, side="right")), start + 1)
        # candidate T positions: for each window, lo .. hi-1
        s_rep, t_pos = expand_ranges(lo[start:end], hi[start:end])
        s_rep += start
        if owner is not None:
            s_rep = owner[s_rep]
        for s_k, t_k, e in cols:
            keep = np.flatnonzero(np.abs(s_k[s_rep] - t_k[t_pos]) <= e)
            s_rep, t_pos = s_rep[keep], t_pos[keep]
            if not len(s_rep):
                break
        if len(s_rep):
            # windows are ordered by S row, so the survivors are too
            a = s_rep[0]
            counts[a : s_rep[-1] + 1] += np.bincount(s_rep - a)
            total += len(s_rep)
            if produce_pairs:
                pair_s.append(s_rep)
                pair_t.append(t_pos)
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


def _band_bounds(a: np.ndarray, e: float) -> tuple[np.ndarray, np.ndarray]:
    """``fl(a -+ e)`` moved out by four ulps of ``max(|a|, e)``: bounds
    that hold every ``t`` the exact filter ``fl(|a - t|) <= e`` accepts.

    That filter lets the real ``|a - t|`` exceed ``e`` by up to half an
    ulp of ``e``, so ``t`` can lie below ``fl(a - e)`` (``a = 0.7, t =
    -1e-17, e = 0.7`` joins, yet ``fl(a - e) = 0``). Four ulps are more
    than that slack plus the roundings of ``a -+ e`` and of the move
    itself. Every float from 2^1023 up has the ulp of 2^1023, so capping
    there changes no finite pad and gives an infinite ``a`` or ``e`` an
    infinite bound rather than a NaN one.
    """
    pad = 4 * np.spacing(np.minimum(np.maximum(np.abs(a), e), 2.0**1023))
    return (a - e) - pad, (a + e) + pad


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

    No T row that passes the exact filter is missed: the cell range of
    each S row spans its :func:`_band_bounds`, and ``t >= low`` gives
    ``floor(t / eps) >= floor(low / eps)``, as rounded division and floor
    are monotone.

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
        low, high = _band_bounds(pts_s[owner, g].astype(float), eps[g])
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
