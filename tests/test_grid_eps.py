"""Tests for Grid-eps / Grid* attribute-space grid partitioning,
including the paper's Lemmas 2 and 3."""
import math

import numpy as np
import pytest

from repro.baselines.grid_eps import (
    GridPartitioning,
    expand_t_cells,
    expansion_count,
    grid_eps_analytic,
    grid_star,
)
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


class TestCellKey:
    def test_task_ids_equal_lexicographic_row_ranks_at_d8(self):
        # d=8: the product of the per-dimension cell spans overflows int64,
        # so a raw mixed-radix key could not index these cells
        S = pareto_points(400, 1.5, 8, seed=1)
        T = pareto_points(400, 1.5, 8, seed=2)
        eps = np.full(8, 400.0)
        part = GridPartitioning(S, T, eps, eps, 30)
        cs = np.floor((S - part.origin) / part.cell).astype(np.int64)
        _, ct = expand_t_cells(T, eps, eps, part.origin)
        rows = np.vstack([cs, ct])
        spans = rows.max(axis=0) - rows.min(axis=0) + 1
        assert math.prod(int(x) for x in spans) > 2**63
        want_cells, want_ids = np.unique(rows, axis=0, return_inverse=True)
        assert part.n_tasks == len(want_cells)
        assert np.array_equal(part._cells, want_cells)
        _, st = part.assign(S, "S")
        _, tt = part.assign(T, "T")
        assert np.array_equal(np.concatenate([st, tt]), want_ids.ravel())


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
