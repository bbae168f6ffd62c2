"""Tests for Grid-eps / Grid* attribute-space grid partitioning,
including the paper's Lemmas 2 and 3."""
import itertools
import math

import numpy as np
import pytest

from repro.baselines.grid_eps import (
    GridPartitioning,
    _mix_rows,
    expand_t_cells,
    expansion_count,
    grid_eps_analytic,
    grid_origin,
    grid_star,
)
from repro.core.geometry import band_bounds
from repro.dist.metrics import evaluate_partitioning
from repro.synth_data import pareto_points, rv_pareto_points

from tests.helpers import assert_partitioning_correct


class TestExpandCells:
    def test_span_at_cell_equals_eps(self):
        # cell == eps: eps-range touches at most 3 cells per dim
        pts = np.random.default_rng(0).random((200, 2)) * 10
        idx, cells = expand_t_cells(
            pts, np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([-2.0, -2.0])
        )
        per_tuple = np.bincount(idx)
        assert per_tuple.max() <= 9  # 3^2
        assert per_tuple.min() >= 4  # at least 2 per dim for interior pts

    def test_eps_zero_single_cell(self):
        pts = np.array([[0.5], [1.5]])
        idx, cells = expand_t_cells(pts, np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert len(idx) == 2
        assert cells[:, 0].tolist() == [0, 1]

    def test_expansion_count_matches_materialization(self):
        pts = np.random.default_rng(1).random((300, 3)) * 5
        eps = np.array([0.7, 0.3, 0.5])
        cell = np.array([1.0, 1.0, 1.0])
        origin = np.array([-2.0, -2.0, -2.0])
        idx, _ = expand_t_cells(pts, eps, cell, origin)
        assert expansion_count(pts, eps, cell, origin) == len(idx)


def _brute_force_cells(points, eps, cell, origin):
    """Every (row, cell...) with cell k in dim i, of index
    ``floor((x - origin) / cell)``, between the cells of the lower and
    upper ``band_bounds(t, eps)``, enumerated one tuple and dimension at
    a time in Python scalars."""
    out = []
    for r, t in enumerate(points):
        per_dim = []
        for i in range(len(t)):
            lo, hi = band_bounds(t[i], eps[i])
            first = math.floor((lo - origin[i]) / cell[i])
            per_dim.append(range(first, math.floor((hi - origin[i]) / cell[i]) + 1))
        out += [(r, *c) for c in itertools.product(*per_dim)]
    return sorted(out)


def _pairs(idx, cells):
    return sorted(map(tuple, np.column_stack([idx, cells]).tolist()))


class TestExpandCellsOrder:
    """Dyadic coordinates and widths keep every float step exact, so
    ``t +- eps`` lands exactly on cell boundaries."""

    @pytest.mark.parametrize("eps_v, cell_v", [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.0, 0.5), (0.75, 2.0)])
    def test_equals_brute_force_on_cell_boundaries(self, eps_v, cell_v):
        rng = np.random.default_rng(40)
        pts = rng.integers(-8, 9, (300, 3)) / 4.0
        eps, cell = np.full(3, eps_v), np.full(3, cell_v)
        origin = np.array([-5.0, -4.5, -6.0])
        idx, cells = expand_t_cells(pts, eps, cell, origin)
        want = _brute_force_cells(pts, eps, cell, origin)
        assert _pairs(idx, cells) == want
        assert expansion_count(pts, eps, cell, origin) == len(want)

    def test_shuffled_rows_give_the_same_copies(self):
        rng = np.random.default_rng(41)
        pts = rng.integers(-8, 9, (400, 2)) / 2.0
        eps, cell, origin = np.full(2, 1.0), np.full(2, 1.0), np.full(2, -7.0)
        perm = rng.permutation(len(pts))
        idx, cells = expand_t_cells(pts, eps, cell, origin)
        idx_p, cells_p = expand_t_cells(pts[perm], eps, cell, origin)
        assert _pairs(perm[idx_p], cells_p) == _pairs(idx, cells)

    def test_copies_come_by_offset_then_lowest_cell(self):
        rng = np.random.default_rng(42)
        pts = rng.integers(-8, 9, (500, 3)) / 4.0
        eps, cell, origin = np.array([1.0, 0.5, 0.25]), np.full(3, 0.5), np.full(3, -4.0)
        idx, cells = expand_t_cells(pts, eps, cell, origin)
        again = expand_t_cells(pts.copy(), eps, cell, origin)
        assert np.array_equal(idx, again[0]) and np.array_equal(cells, again[1])
        lowest = np.floor((band_bounds(pts, eps)[0] - origin) / cell).astype(np.int64)
        off = cells - lowest[idx]
        # offset blocks in lexicographic order, each sorted by (lowest cell, row)
        key = np.column_stack([off, lowest[idx], idx])
        assert np.array_equal(np.lexsort(key.T[::-1]), np.arange(len(idx)))
        blocks = np.flatnonzero(np.any(off[1:] != off[:-1], axis=1)) + 1
        for block in np.split(cells, blocks):
            assert np.array_equal(np.lexsort(block.T[::-1]), np.arange(len(block)))

    def test_one_origin_for_the_grid_and_the_copy_count(self):
        # (4.38 - 0.7) - 0.7 and 4.38 - 2 * 0.7 round one ulp apart, and
        # T touches one cell fewer from the second: the analytic switch
        # must count copies from the origin the grid uses
        S = np.array([[4.38], [5.0]])
        T = np.array([[4.38], [4.9]])
        eps = np.array([0.7])
        part = GridPartitioning(S, T, eps, eps, 4)
        both = np.vstack([S, T])
        assert np.array_equal(part.origin, grid_origin(both, eps, eps))
        ti, _ = part.assign(T, "T")
        assert expansion_count(T, eps, eps, part.origin) == len(ti)
        assert expansion_count(T, eps, eps, both.min(axis=0) - 2 * eps) == len(ti) - 1


class TestGridPartitioning:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_correct(self, d):
        S = pareto_points(500, 1.5, d, seed=1)
        T = pareto_points(500, 1.5, d, seed=2)
        eps = np.full(d, 60.0)
        part = GridPartitioning(S, T, eps, eps, 8)
        assert_partitioning_correct(part, S, T, eps)

    def test_correct_with_coarser_cells(self):
        S = pareto_points(500, 1.5, 2, seed=3)
        T = pareto_points(500, 1.5, 2, seed=4)
        eps = np.full(2, 40.0)
        part = GridPartitioning(S, T, eps, 4 * eps, 8)
        assert_partitioning_correct(part, S, T, eps)

    def test_zero_cell_size_rejected(self):
        S = pareto_points(50, 1.5, 1, seed=5)
        with pytest.raises(ValueError):
            GridPartitioning(S, S, np.array([0.0]), np.array([0.0]), 4)

    def test_t_duplication_factor_grows_with_d(self):
        # ~3^d duplication when cell == eps (paper Section 5.1)
        factors = []
        for d in (1, 2, 3):
            S = pareto_points(2000, 1.5, d, seed=6)
            T = pareto_points(2000, 1.5, d, seed=7)
            eps = np.full(d, 50.0)
            part = GridPartitioning(S, T, eps, eps, 8)
            ti, _ = part.assign(T, "T")
            factors.append(len(ti) / len(T))
        assert factors[0] < factors[1] < factors[2]
        assert factors[2] > 8  # close to 3^3 for interior-heavy data

    def test_s_never_duplicated(self):
        S = pareto_points(1000, 1.5, 2, seed=8)
        part = GridPartitioning(S, S, np.full(2, 30.0), np.full(2, 30.0), 8)
        si, _ = part.assign(S, "S")
        assert len(si) == len(S)

    def test_unknown_cell_raises(self):
        S = pareto_points(100, 1.5, 1, seed=9)
        part = GridPartitioning(S, S, np.array([10.0]), np.array([10.0]), 4)
        with pytest.raises(KeyError):
            part.assign(np.array([[1e12]]), "S")
        # d=3, two far-apart points: the box between them is unoccupied
        S = np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
        eps = np.full(3, 1.0)
        part = GridPartitioning(S, S, eps, eps, 4)
        with pytest.raises(KeyError):
            part.assign(np.array([[50.0, 50.0, 50.0]]), "S")
        with pytest.raises(KeyError):
            part.assign(np.array([[0.0, 100.0, 0.0]]), "S")
        part.assign(S, "S")  # occupied cells still resolve

    def test_unknown_cell_raises_for_t(self):
        S = pareto_points(100, 1.5, 1, seed=9)
        part = GridPartitioning(S, S, np.array([10.0]), np.array([10.0]), 4)
        with pytest.raises(KeyError):
            part.assign(np.array([[1e12]]), "T")
        # d=3: the copies of a point between two far-apart ones land in
        # the unoccupied box, and one unseen copy is enough
        S = np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
        eps = np.full(3, 1.0)
        part = GridPartitioning(S, S, eps, eps, 4)
        with pytest.raises(KeyError):
            part.assign(np.array([[50.0, 50.0, 50.0]]), "T")
        with pytest.raises(KeyError):
            part.assign(np.array([[0.0, 0.0, 2.5]]), "T")
        part.assign(S, "T")  # occupied cells still resolve

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["S", "T"])
    def test_non_finite_coordinates_rejected(self, bad, side):
        pts = pareto_points(50, 1.5, 2, seed=25)
        dirty = pts.copy()
        dirty[7, 1] = bad
        S, T = (dirty, pts) if side == "S" else (pts, dirty)
        with pytest.raises(ValueError, match="finite"):
            GridPartitioning(S, T, np.full(2, 30.0), np.full(2, 30.0), 4)

    def test_cell_index_beyond_int64_rejected(self):
        S = np.array([[0.0], [1e30]])
        with pytest.raises(ValueError, match="int64"):
            GridPartitioning(S, S, np.array([1.0]), np.array([1.0]), 4)

    @pytest.mark.parametrize("empty", ["S", "T"])
    def test_one_empty_relation(self, empty):
        pts = pareto_points(200, 1.5, 2, seed=26)
        none = np.empty((0, 2))
        S, T = (none, pts) if empty == "S" else (pts, none)
        eps = np.full(2, 30.0)
        part = GridPartitioning(S, T, eps, eps, 4)
        assert part.n_tasks > 0
        ev = evaluate_partitioning(part, S, T, eps)
        assert ev.O_total == 0
        assert ev.I == len(S) + len(part.assign(T, "T")[0])

    def test_both_relations_empty(self):
        none = np.empty((0, 2))
        part = GridPartitioning(none, none, np.full(2, 1.0), np.full(2, 1.0), 4)
        assert part.n_tasks == 0
        assert len(part.task_to_worker) == 0
        idx, task = part.assign(none, "T")
        assert len(idx) == len(task) == 0

    def test_coarser_grid_less_duplication(self):
        S = pareto_points(2000, 1.5, 2, seed=10)
        T = pareto_points(2000, 1.5, 2, seed=11)
        eps = np.full(2, 50.0)
        fine = GridPartitioning(S, T, eps, eps, 8)
        coarse = GridPartitioning(S, T, eps, 8 * eps, 8)
        assert len(coarse.assign(T, "T")[0]) < len(fine.assign(T, "T")[0])


def _cell_key_input(name: str):
    """(S, T, eps): pareto inputs, or 300 integer points per relation
    spread over [0, 2^40) per dimension ("wide"), where eps = cell = 1
    makes every dimension span about 2^40 cells."""
    kind, d = name.split("_d")
    d = int(d)
    if kind == "pareto":
        n, e = (400, 400.0) if d == 8 else (500, 60.0)
        return pareto_points(n, 1.5, d, seed=1), pareto_points(n, 1.5, d, seed=2), e
    rng = np.random.default_rng(d)
    S, T = (np.floor(rng.random((300, d)) * 2.0**40) for _ in "ST")
    return S, T, 1.0


class TestCellKey:
    # pareto d <= 3 fits one int64 key level; the spans of d = 8 and of
    # the wide inputs overflow int64
    @pytest.mark.parametrize(
        "name, n_levels",
        [("pareto_d1", 1), ("pareto_d2", 1), ("pareto_d3", 1), ("pareto_d8", 2),
         ("wide_d2", 2), ("wide_d3", 3)],
    )
    def test_task_ids_equal_lexicographic_row_ranks(self, name, n_levels):
        S, T, e = _cell_key_input(name)
        eps = np.full(S.shape[1], e)
        part = GridPartitioning(S, T, eps, eps, 30, seed=7)
        cs = np.floor((S - part.origin) / part.cell).astype(np.int64)
        _, ct = expand_t_cells(T, eps, eps, part.origin)
        rows = np.vstack([cs, ct])
        spans = math.prod(int(x) for x in rows.max(axis=0) - rows.min(axis=0) + 1)
        # one level exactly when the spans' product fits int64
        assert len(part._levels) == n_levels
        assert (spans <= 2**63) == (n_levels == 1)
        want_cells, want_ids = np.unique(rows, axis=0, return_inverse=True)
        assert part.n_tasks == len(want_cells)
        assert np.array_equal(part._decode(), want_cells)
        _, st = part.assign(S, "S")
        _, tt = part.assign(T, "T")
        assert np.array_equal(np.concatenate([st, tt]), want_ids.ravel())
        assert np.array_equal(part.task_to_worker, _mix_rows(want_cells, 30, 7))

    @pytest.mark.parametrize("side", ["S", "T"])
    def test_cell_past_the_box_raises(self, side):
        # the four cells of these points fill a 2 x 2 box, and eps keeps
        # each T copy in its own cell. Offsets (0, 2) pack as (1, 0), an
        # occupied cell: only the per-dimension box check rejects them
        pts = np.array([[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5]])
        eps = np.full(2, 0.25)
        part = GridPartitioning(pts, pts, eps, np.ones(2), 4)
        assert part.n_tasks == 4 and np.array_equal(part._radix, [2, 2])
        assert len(part.assign(np.array([[1.5, 0.5]]), side)[0]) == 1
        with pytest.raises(KeyError):
            part.assign(np.array([[0.5, 2.5]]), side)


class TestLemmas:
    def test_lemma2_dense_eps_range_forces_heavy_cell(self):
        """Lemma 2: n T-tuples inside one eps-range -> some grid cell
        receives >= n T-tuples, no matter the grid size."""
        rng = np.random.default_rng(12)
        dense = 1000.0 + rng.random((500, 1)) * 0.9  # inside one eps=1 range
        spread = pareto_points(500, 1.5, 1, seed=13)
        T = np.vstack([dense, spread])
        S = pareto_points(500, 1.5, 1, seed=14)
        eps = np.array([1.0])
        for j in (1, 2, 5, 20, 100):
            part = GridPartitioning(S, T, eps, j * eps, 8)
            ti, tt = part.assign(T, "T")
            per_cell = np.bincount(tt, minlength=part.n_tasks)
            assert per_cell.max() >= 500

    def test_lemma3_fraction_shrinks_with_input_size(self):
        """Lemma 3 regime (similar S/T distributions, bounded output):
        the max fraction of input in any eps-sized cell decreases as the
        input grows."""
        eps = np.array([2.0])
        fracs = []
        for n in (2000, 32000):
            S = pareto_points(n, 1.5, 1, seed=15)
            T = pareto_points(n, 1.5, 1, seed=16)
            part = GridPartitioning(S, T, eps, eps, 8)
            si, st = part.assign(S, "S")
            per_cell = np.bincount(st, minlength=part.n_tasks)
            fracs.append(per_cell.max() / n)
        assert fracs[1] < fracs[0]


class TestGridStar:
    def test_improves_over_default_grid(self):
        S = pareto_points(8000, 1.5, 2, seed=17)
        T = pareto_points(8000, 1.5, 2, seed=18)
        eps = np.full(2, 30.0)
        star, j, trace = grid_star(S, T, eps, 8, seed=0)
        assert j > 1  # coarsening must help at cell == eps
        base = evaluate_partitioning(GridPartitioning(S, T, eps, eps, 8), S, T, eps)
        tuned = evaluate_partitioning(star, S, T, eps)
        assert tuned.I < base.I

    def test_fails_on_rv_pareto(self):
        """Table 6: on reverse-Pareto, even the tuned grid keeps a
        heavily loaded worker (Lemma 2's dense region)."""
        S = rv_pareto_points(4000, 1.5, 1, seed=19, side="S")
        T = rv_pareto_points(4000, 1.5, 1, seed=20, side="T")
        eps = np.array([1000.0])
        star, j, _ = grid_star(S, T, eps, 8, seed=0)
        ev = evaluate_partitioning(star, S, T, eps)
        assert ev.I_m > 2.0 * (len(S) + len(T)) / 8  # >2x the even share

    def test_star_correct(self):
        S = pareto_points(1500, 1.5, 2, seed=21)
        T = pareto_points(1500, 1.5, 2, seed=22)
        eps = np.full(2, 40.0)
        star, _, _ = grid_star(S, T, eps, 6, seed=0)
        assert_partitioning_correct(star, S, T, eps)


class TestAnalytic:
    def test_analytic_I_matches_exact(self):
        S = pareto_points(2000, 1.5, 2, seed=23)
        T = pareto_points(2000, 1.5, 2, seed=24)
        eps = np.full(2, 50.0)
        part = GridPartitioning(S, T, eps, eps, 8)
        ti, _ = part.assign(T, "T")
        I, I_m, O_m = grid_eps_analytic(S, T, eps, eps, 8, o_total=800)
        assert I == len(S) + len(ti)
        assert O_m == 100
        assert I_m >= I // 8 * 0.5
