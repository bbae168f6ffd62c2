"""CS_IO (Vitorovic et al., ICDE 2016): input-output-aware matrix covering.

The state of the art for distributed theta-joins before RecPart:

1. Range-partition S (matrix rows) and T (columns) into stripes using
   approximate quantiles of the join-attribute space. Multi-dimensional
   space is linearized in **row-major order** — per the paper's own
   Section 5.2 analysis this minimizes candidate cells when stripes are
   wider than the band width, and it makes stripe relevance exact: the
   quantiles are taken on A_1 and a cell (i, j) is *relevant* iff T
   stripe j meets the band bounds of S stripe i's A_1-interval.
2. Estimate stripe input (input sample) and per-cell output (output
   sample, the same IO-awareness that distinguishes CS_IO from
   M-Bucket-I).
3. Cover all relevant cells with at most w pairwise-disjoint rectangles
   minimizing max rectangle load, via binary search on the load cap with
   a strip-greedy packer (:class:`StripCover`). (Substitution,
   documented in DESIGN.md: the paper's O(n^5 log n) optimal tiling is
   replaced by this heuristic from the same M-Bucket-I family;
   optimization cost still grows quadratically in stripe count and with
   matrix density.)

An S-tuple is shipped to every rectangle that covers a relevant cell in
its stripe's row; correctness: relevant cells partition among disjoint
rectangles, so each joining pair meets in exactly one rectangle.
Coverage: the outer stripe bounds are ±inf, so each side's stripes tile
the real line; every stripe therefore overlaps a stripe of the other
side, has a relevant cell and ships its tuples to at least one rectangle
(Definition 1).
"""
from __future__ import annotations

import numpy as np

from ..core.cost_model import CostModel
from ..core.geometry import band_bounds
from ..core.sampling import Samples, draw_samples
from ..dist.partitioning import Partitioning, expand_ranges, lpt_schedule


def _quantile_boundaries(col: np.ndarray, g: int) -> np.ndarray:
    """Interior quantile boundaries. Heavy hitters may repeat a
    boundary; the resulting zero-width stripes are simply empty, keeping
    the matrix at a fixed g x g granularity like the published pipeline
    (the covering cost scales with that granularity, which is the
    method's characteristic optimization expense)."""
    return np.quantile(col, np.arange(1, g) / g)


def stripe_stats(bnd_s: np.ndarray, bnd_t: np.ndarray, eps0: float, samples: Samples):
    """Relevance and load estimates of the matrix of A_1 stripes.

    S stripe i is ``[bnd_s[i-1], bnd_s[i])`` with ±inf outer bounds, so
    each side's stripes tile the real line. Returns ``(R, s_in, t_in,
    o_cells)``: ``R[i, j]`` unless T stripe j lies beyond the
    :func:`band_bounds` of S stripe i's ends; ``s_in``/``t_in``
    estimate each stripe's input in tuples; ``o_cells[i, j]`` estimates
    the output of cell (i, j) from the output sample.
    """
    gs, gt = len(bnd_s) + 1, len(bnd_t) + 1
    lo_t = np.concatenate([[-np.inf], bnd_t])
    hi_t = np.concatenate([bnd_t, [np.inf]])
    reach_lo, reach_hi = band_bounds(bnd_s, eps0)
    reach_lo = np.concatenate([[-np.inf], reach_lo])
    reach_hi = np.concatenate([reach_hi, [np.inf]])
    R = ~((lo_t[None, :] > reach_hi[:, None]) | (hi_t[None, :] < reach_lo[:, None]))
    s_in = np.bincount(
        np.searchsorted(bnd_s, samples.s_pts[:, 0], side="right"), minlength=gs
    ) * samples.sw_s
    t_in = np.bincount(
        np.searchsorted(bnd_t, samples.t_pts[:, 0], side="right"), minlength=gt
    ) * samples.sw_t
    o_cells = np.zeros((gs, gt))
    oi = np.searchsorted(bnd_s, samples.o_s[:, 0], side="right")
    oj = np.searchsorted(bnd_t, samples.o_t[:, 0], side="right")
    np.add.at(o_cells, (oi, oj), samples.sw_o)
    return R, s_in, t_in, o_cells


def _stripe_csr(stripe: np.ndarray, task: np.ndarray, n_stripes: int, n_tasks: int):
    """CSR ``(indptr, tasks)`` of the distinct tasks of each stripe,
    ascending within a stripe."""
    key = np.unique(stripe.astype(np.int64) * n_tasks + task)
    return np.searchsorted(key, np.arange(n_stripes + 1) * n_tasks), key % n_tasks


class StripePartitioning(Partitioning):
    """Tasks over the matrix of A_1 stripes (CS_IO rectangles, IEJoin
    block pairs).

    ``cells`` (m, 2) lists the relevant (S stripe, T stripe) cells and
    ``cell_task`` the task owning each; a tuple goes to every task that
    owns a cell of its stripe. Tasks are scheduled by LPT on
    ``task_loads``.
    """

    def __init__(self, bnd_s, bnd_t, cells, cell_task, task_loads, w):
        self.bnd_s = bnd_s
        self.bnd_t = bnd_t
        self.w = int(w)
        self.n_tasks = len(task_loads)
        self._s = _stripe_csr(cells[:, 0], cell_task, len(bnd_s) + 1, self.n_tasks)
        self._t = _stripe_csr(cells[:, 1], cell_task, len(bnd_t) + 1, self.n_tasks)
        self.task_to_worker = lpt_schedule(np.asarray(task_loads, float), self.w)

    def assign(self, points, side, ids=None):
        x = np.asarray(points, dtype=float)[:, 0]
        bnd, (indptr, tasks) = (self.bnd_s, self._s) if side == "S" else (self.bnd_t, self._t)
        stripe = np.searchsorted(bnd, x, side="right")
        idx, pos = expand_ranges(indptr[stripe], indptr[stripe + 1])
        return idx, tasks[pos]


class StripCover:
    """Greedy strip covers of the relevant cells of a stripe matrix.

    ``cover(cap)`` walks the rows top-down. At row i it packs every strip
    of rows [i, i+h), for growing h, into rectangles of load <= cap
    (cutting its relevant columns left to right), keeps the h with the
    most covered cells per rectangle, and moves on to row i+h.

    What a strip needs does not depend on the cap: its S load, covered
    cell count, relevant columns and their loads. They are built on
    first use and kept across caps, a block of heights at a time, the
    relevant columns of a block by a cumulative OR down its rows.
    """

    def __init__(self, R, s_in, t_in, o_cells, cm: CostModel, w: int):
        self.R, self.s_in, self.t_in, self.cm, self.w = R, s_in, t_in, cm, int(w)
        self.o_row_prefix = np.vstack([np.zeros(R.shape[1]), np.cumsum(o_cells, axis=0)])
        #: row i -> [(S load, covered cells, relevant columns, their
        #: loads)] for strip heights 1, 2, ...
        self._strips: dict[int, list] = {}

    def strip(self, i: int, h: int):
        R, cm = self.R, self.cm
        got = self._strips.setdefault(i, [])
        if len(got) < h:
            k0 = len(got)
            k1 = min(len(R) - i, max(h, 2 * k0))
            rel = R[i + k0:i + k1].copy()
            if k0:
                rel[0, got[-1][2]] = True  # the shorter strip's columns
            np.logical_or.accumulate(rel, axis=0, out=rel)
            out = self.o_row_prefix[i + k0 + 1:i + k1 + 1] - self.o_row_prefix[i]
            hh, cc = np.nonzero(rel)
            adds = (cm.b2 * self.t_in[cc] + cm.b3 * out[hh, cc]).tolist()
            covered = (got[-1][1] if k0 else 0) + np.cumsum(R[i + k0:i + k1].sum(axis=1))
            start = 0
            for k, end in enumerate(np.cumsum(rel.sum(axis=1)).tolist()):
                s_load = cm.b2 * self.s_in[i:i + k0 + k + 1].sum()
                got.append((s_load, int(covered[k]), cc[start:end], adds[start:end]))
                start = end
        return got[h - 1]

    @staticmethod
    def pack(s_load: float, adds: list[float], cap: float) -> list[int] | None:
        """Greedily cut a strip's relevant columns into rectangles of load
        <= cap; returns the column position where each rectangle after the
        first starts, or None if a single column exceeds the cap."""
        cuts, cur, n = [], s_load, 0
        for k, add in enumerate(adds):
            if n and cur + add > cap:
                cuts.append(k)
                cur, n = s_load, 0
            n += 1
            cur += add
            if cur > cap and n == 1:
                return None
        return cuts

    def cover(self, cap: float) -> list[tuple[int, int, list[int]]] | None:
        """The strips (i, h, cuts) of the cover at load cap ``cap``, or
        None if it needs more than w rectangles."""
        strips, n_rects, i = [], 0, 0
        while i < len(self.R):
            best = None
            for h in range(1, len(self.R) - i + 1):
                s_load, covered, _, adds = self.strip(i, h)
                cuts = self.pack(s_load, adds, cap)
                if cuts is None:
                    break
                score = covered / (len(cuts) + 1)
                if best is None or score > best[0]:
                    best = (score, h, cuts)
            if best is None:
                return None
            strips.append((i, best[1], best[2]))
            n_rects += len(best[2]) + 1
            i += best[1]
            if n_rects > self.w:
                return None
        return strips

    def rects(self, strips) -> list[tuple[int, int, np.ndarray]]:
        """The rectangles (first row, end row, columns) of a cover."""
        return [
            (i, i + h, cols) for i, h, cuts in strips for cols in np.split(self.strip(i, h)[2], cuts)
        ]


def build_csio(
    S_pts: np.ndarray,
    T_pts: np.ndarray,
    eps,
    w: int,
    cost_model: CostModel | None = None,
    g: int | None = None,
    samples: Samples | None = None,
    seed: int = 0,
) -> StripePartitioning:
    """Construct the CS_IO partitioning from samples of S and T."""
    eps = np.asarray(eps, dtype=float)
    cm = cost_model or CostModel()
    if samples is None:
        samples = draw_samples(
            np.asarray(S_pts, float), np.asarray(T_pts, float), eps, seed=seed
        )
    g = g or max(16, 2 * w)
    bnd_s = _quantile_boundaries(samples.s_pts[:, 0], g)
    bnd_t = _quantile_boundaries(samples.t_pts[:, 0], g)
    R, s_in, t_in, o_cells = stripe_stats(bnd_s, bnd_t, eps[0], samples)
    sc = StripCover(R, s_in, t_in, o_cells, cm, w)

    # binary search the smallest feasible load cap with <= w rectangles
    cells = np.argwhere(R)
    cell_loads = cm.b2 * (s_in[cells[:, 0]] + t_in[cells[:, 1]]) + cm.b3 * o_cells[R]
    cell_min = float(cell_loads.max())
    total = cm.b2 * (s_in.sum() + t_in.sum()) + cm.b3 * o_cells.sum()
    lo_cap, hi_cap = cell_min, max(total, cell_min) * 2 + 1.0
    best_cover = sc.cover(hi_cap)
    assert best_cover is not None, "cover must be feasible at total load"
    for _ in range(28):
        mid = (lo_cap + hi_cap) / 2
        got = sc.cover(mid)
        if got is not None:
            best_cover, hi_cap = got, mid
        else:
            lo_cap = mid

    # rectangle of each relevant cell, and rectangle loads: the S load of
    # its rows with a relevant cell, then each relevant column's T and
    # output load, summed in that order
    cell_rect = np.full(R.shape, -1, dtype=np.int64)
    rect_loads = []
    for k, (r1, r2, cols) in enumerate(sc.rects(best_cover)):
        cell_rect[r1:r2, cols] = k
        rel = R[r1:r2, cols]
        o_strip = sc.o_row_prefix[r2] - sc.o_row_prefix[r1]
        c = cols[rel.any(axis=0)]
        terms = np.concatenate([
            cm.b2 * s_in[r1 + np.flatnonzero(rel.any(axis=1))],
            np.column_stack([cm.b2 * t_in[c], cm.b3 * o_strip[c]]).ravel(),
        ])
        rect_loads.append(float(np.add.accumulate(terms)[-1]) if len(terms) else 0.0)
    return StripePartitioning(bnd_s, bnd_t, cells, cell_rect[R], rect_loads, w)
