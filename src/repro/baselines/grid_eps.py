"""Grid-eps and Grid*: attribute-space grid partitioning (Section 3.1, 6.5).

Grid-eps tiles the d-dimensional join-attribute space with cells of side
``cell_size_i`` per dimension (default: the band width eps_i, hence the
name). S-tuples go to their containing cell; T-tuples are copied to
every cell their closed eps-range intersects (up to 3 cells per
dimension when cell >= eps, so up to 3^d copies). Every joining pair
meets exactly once — in the S-tuple's cell. Cells are hashed to workers
(the grid is fine-grained by construction, which is also why the paper
credits Grid-eps with fast per-cell local processing).

Grid* (Section 6.5) tunes the grid: starting from cell = eps it tries
cell = j*eps for growing j, predicts join time for each candidate with
the cost model M on sample-estimated (I, I_m, O_m), and stops at a local
minimum.
"""
from __future__ import annotations

import numpy as np

from ..core.cost_model import CostModel
from ..dist.partitioning import Partitioning


def _mix_rows(cells: np.ndarray, w: int, seed: int) -> np.ndarray:
    """Hash integer cell coordinates to a worker in [0, w)."""
    h = np.full(len(cells), np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15))
    for dim in range(cells.shape[1]):
        h ^= cells[:, dim].astype(np.int64).view(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h << np.uint64(13)) | (h >> np.uint64(51))
        h *= np.uint64(0x94D049BB133111EB)
    return (h % np.uint64(w)).astype(np.int64)


def expand_t_cells(points: np.ndarray, eps: np.ndarray, cell: np.ndarray, origin: np.ndarray):
    """All grid cells intersecting each T-tuple's closed eps-range.

    Returns (row_idx, cells) where cells is an int (n_out, d) array.
    Cell k in dim i spans the half-open [origin + k*cell, origin + (k+1)*cell).
    """
    lo = np.floor((points - eps - origin) / cell).astype(np.int64)
    hi = np.floor((points + eps - origin) / cell).astype(np.int64)
    span = hi - lo  # per-tuple per-dim number of extra cells
    max_span = span.max(axis=0) if len(points) else np.zeros(points.shape[1], np.int64)
    idx_parts, cell_parts = [], []
    # iterate over the (small) cartesian product of per-dim offsets
    grids = np.meshgrid(*[np.arange(m + 1) for m in max_span], indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1) if len(grids) else np.zeros((1, 0))
    for off in offsets.astype(np.int64):
        mask = np.all(off <= span, axis=1)
        if not mask.any():
            continue
        idx_parts.append(np.flatnonzero(mask))
        cell_parts.append(lo[mask] + off)
    if not idx_parts:
        d = points.shape[1]
        return np.empty(0, np.int64), np.empty((0, d), np.int64)
    return np.concatenate(idx_parts), np.vstack(cell_parts)


def expansion_count(points: np.ndarray, eps: np.ndarray, cell: np.ndarray, origin) -> int:
    """Number of (tuple, cell) copies T-side duplication would create,
    without materializing them: per tuple the product over dimensions of
    the number of cells its eps-range touches. Used to detect (and
    account for) the O(3^d) blow-up at high dimensionality analytically
    (paper Section 5.1)."""
    lo = np.floor((points - eps - origin) / cell).astype(np.int64)
    hi = np.floor((points + eps - origin) / cell).astype(np.int64)
    return int((hi - lo + 1).prod(axis=1).sum())


def grid_eps_analytic(
    S_pts: np.ndarray,
    T_pts: np.ndarray,
    eps,
    cell_sizes,
    w: int,
    o_total: int = 0,
    sample: int = 2000,
    seed: int = 0,
):
    """Analytic Grid-eps metrics for settings where materializing the
    ~3^d-fold duplication is infeasible (the paper itself could only
    model-estimate Grid-eps at d=8, Table 4c/4d). Returns
    (I, I_m, O_m): I exact via :func:`expansion_count`; I_m from a
    hashed-sample estimate of the per-worker distribution (the
    fine-grained grid spreads cells near-uniformly, so I_m -> I/w, which
    is exactly what the paper's Table 4c shows); O_m = o_total/w."""
    eps = np.asarray(eps, dtype=float)
    cell = np.asarray(cell_sizes, dtype=float)
    both = np.vstack([S_pts, T_pts]).astype(float)
    origin = both.min(axis=0) - eps - cell
    I = len(S_pts) + expansion_count(np.asarray(T_pts, float), eps, cell, origin)
    rng = np.random.default_rng(seed)
    k = min(sample, len(T_pts))
    t_sample = np.asarray(T_pts, float)[rng.choice(len(T_pts), k, replace=False)]
    _, cells = expand_t_cells(t_sample, eps, cell, origin)
    wk = _mix_rows(cells, w, seed)
    t_per_worker = np.bincount(wk, minlength=w) * (len(T_pts) / k)
    s_cells = np.floor((np.asarray(S_pts, float) - origin) / cell).astype(np.int64)
    s_per_worker = np.bincount(_mix_rows(s_cells, w, seed), minlength=w)
    I_m = int((t_per_worker + s_per_worker).max())
    O_m = int(np.ceil(o_total / w))
    return I, I_m, O_m


class GridPartitioning(Partitioning):
    """Grid over the attribute space; task = occupied cell.

    The task universe (occupied cells) is established from the full
    input at construction (metric bookkeeping, not optimization — the
    grid itself needs no statistics, which is Grid-eps's selling point).

    Task ids are the occupied cells' ranks in lexicographic order, built
    one dimension at a time: after dimension i, a row's key is the rank
    of its prefix ``(c_0..c_i)`` among the occupied prefixes, computed as
    the rank of ``key * R_i + (c_i - lo_i)`` where ``[lo_i, lo_i + R_i)``
    is the dimension's occupied cell range. Re-ranking keeps every key
    below ``n_tasks``, so the mixed-radix step cannot overflow where a
    raw ``prod(R_i)`` key would (d=8 spans reach 10^20 and more), and
    the key stays exact: no two cells share a task.
    """

    def __init__(
        self,
        S_pts: np.ndarray,
        T_pts: np.ndarray,
        eps,
        cell_sizes,
        w: int,
        seed: int = 0,
    ):
        self.eps = np.asarray(eps, dtype=float)
        self.cell = np.asarray(cell_sizes, dtype=float)
        if np.any(self.cell <= 0):
            raise ValueError("Grid-eps is undefined for zero band width / cell size")
        self.w = int(w)
        self.seed = int(seed)
        both = np.vstack([S_pts, T_pts]).astype(float)
        if not np.isfinite(both).all():
            raise ValueError("Grid-eps needs finite coordinates (got NaN or inf)")
        low = both.min(axis=0) if len(both) else np.zeros(both.shape[1])
        self.origin = low - self.eps - self.cell
        top = (both.max(axis=0) + self.eps - self.origin) / self.cell if len(both) else 0
        if np.max(top) >= 2.0**62:
            raise ValueError("Grid-eps cell indices exceed the int64 range; use larger cells")
        cs = np.floor((S_pts - self.origin) / self.cell).astype(np.int64)
        _, ct = expand_t_cells(T_pts.astype(float), self.eps, self.cell, self.origin)
        rows = np.vstack([cs, ct])
        d = rows.shape[1]
        self._lo = rows.min(axis=0) if len(rows) else np.zeros(d, np.int64)
        self._radix = rows.max(axis=0) - self._lo + 1 if len(rows) else np.ones(d, np.int64)
        # _levels[i]: sorted distinct prefix keys after dimension i
        self._levels: list[np.ndarray] = []
        key = np.zeros(len(rows), np.int64)
        for i in range(d):
            n_prefixes = len(self._levels[-1]) if i else 1
            if n_prefixes * int(self._radix[i]) > 2**63:
                raise ValueError("Grid-eps cell key would overflow int64")
            level, key = np.unique(
                key * self._radix[i] + (rows[:, i] - self._lo[i]), return_inverse=True
            )
            self._levels.append(level)
        self.n_tasks = len(self._levels[-1])
        self._cells = self._decode()
        self.task_to_worker = _mix_rows(self._cells, self.w, seed)

    def _decode(self) -> np.ndarray:
        """Cell coordinate rows of tasks 0..n_tasks-1 (lexicographic)."""
        cells = np.empty((self.n_tasks, len(self._levels)), np.int64)
        prefix = np.arange(self.n_tasks)
        for i in range(len(self._levels) - 1, -1, -1):
            packed = self._levels[i][prefix]
            cells[:, i] = self._lo[i] + packed % self._radix[i]
            prefix = packed // self._radix[i]
        return cells

    def _lookup(self, cells: np.ndarray) -> np.ndarray:
        """Map cell coordinate rows to task ids (rows must be occupied)."""
        key = np.zeros(len(cells), np.int64)
        for i, level in enumerate(self._levels):
            c = cells[:, i]
            inside = (c >= self._lo[i]) & (c < self._lo[i] + self._radix[i])
            packed = key * self._radix[i] + np.where(inside, c - self._lo[i], 0)
            key = np.searchsorted(level, packed)
            found = inside & (key < len(level))
            found[found] = level[key[found]] == packed[found]
            if not found.all():
                raise KeyError("assign() saw a grid cell absent from construction data")
        return key

    def assign(self, points, side, ids=None):
        points = np.asarray(points, dtype=float)
        if side == "S":
            cells = np.floor((points - self.origin) / self.cell).astype(np.int64)
            return np.arange(len(points), dtype=np.int64), self._lookup(cells)
        idx, cells = expand_t_cells(points, self.eps, self.cell, self.origin)
        return idx, self._lookup(cells)


def grid_star(
    S_pts: np.ndarray,
    T_pts: np.ndarray,
    eps,
    w: int,
    cost_model: CostModel | None = None,
    max_j: int = 4096,
    k_sample: int = 8192,
    seed: int = 0,
) -> tuple[GridPartitioning, int, list[tuple[int, float]]]:
    """Grid*: coarsen cell = j*eps (j doubling then refined: 1,2,3,...)
    until the model-predicted join time stops improving; returns the
    winning partitioning, its j, and the (j, predicted time) trace."""
    from ..core.sampling import draw_samples
    from ..dist.metrics import evaluate_partitioning

    eps = np.asarray(eps, dtype=float)
    cm = cost_model or CostModel()
    sm = draw_samples(
        np.asarray(S_pts, float), np.asarray(T_pts, float), eps,
        k_input=k_sample, k_output_base=k_sample, seed=seed,
    )
    trace: list[tuple[int, float]] = []
    best_j, best_t = None, float("inf")
    j = 1
    while j <= max_j:
        part = GridPartitioning(sm.s_pts, sm.t_pts, eps, j * eps, w, seed=seed)
        ev = evaluate_partitioning(
            part, sm.s_pts, sm.t_pts, eps, beta2=cm.b2, beta3=cm.b3
        )
        # scale sample-level metrics up to full-input estimates: inputs by
        # the per-relation sample weight (approximated by their mean for
        # the mixed per-worker count), output pairs by sw_s * sw_t.
        I = ev.I_s * sm.sw_s + ev.I_t * sm.sw_t
        I_m = ev.I_m * (sm.sw_s + sm.sw_t) / 2
        O_m = ev.O_m * (sm.n_s / len(sm.s_pts)) * (sm.n_t / len(sm.t_pts))
        t = cm.predict(I, I_m, O_m)
        trace.append((j, t))
        if t < best_t:
            best_j, best_t = j, t
        elif best_j is not None and j > 2 * best_j + 2:
            break  # past a local minimum with margin
        j += 1 if j < 8 else max(1, j // 4)
    part = GridPartitioning(
        np.asarray(S_pts, float), np.asarray(T_pts, float), eps, best_j * eps, w, seed=seed
    )
    return part, best_j, trace
