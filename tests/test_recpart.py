"""Tests for the RecPart optimizer (Algorithms 1-2)."""
import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.recpart import recpart
from repro.dist.metrics import evaluate_partitioning
from repro.synth_data import pareto_points, rv_pareto_points

from tests.helpers import assert_partitioning_correct


@pytest.fixture(scope="module")
def pareto3d():
    return pareto_points(4000, 1.5, 3, seed=1), pareto_points(4000, 1.5, 3, seed=2)


class TestExample2:
    """Paper Example 2: with eps=1, splitting S={1,2,3,5,6,8,9,10} vs
    T={1,5,6,10} at the sparse points y1/y2 achieves perfect balance
    with zero duplication."""

    def test_zero_duplication_perfect_balance(self):
        S = np.array([[1.0], [2], [3], [5], [6], [8], [9], [10]])
        T = np.array([[1.0], [5], [6], [10]])
        eps = np.array([1.0])
        res = recpart(S, T, eps, w=2, seed=0, symmetric=False, termination="theoretical")
        ev = evaluate_partitioning(res.partitioning, S, T, eps)
        assert ev.dup_overhead == 0.0  # no T tuple within eps of any cut
        assert_partitioning_correct(res.partitioning, S, T, eps)

    def test_avoids_duplicating_cut(self):
        # a cut at x in [3.5, 4.5] would duplicate T tuples 5 (or 3)...
        # verify the chosen boundaries are > eps away from every T value
        S = np.array([[1.0], [2], [3], [5], [6], [8], [9], [10]])
        T = np.array([[1.0], [5], [6], [10]])
        eps = np.array([1.0])
        res = recpart(S, T, eps, w=2, seed=0, symmetric=False)
        ti, tt = res.partitioning.assign(T, "T", ids=np.arange(4))
        assert len(ti) == 4  # every T tuple assigned exactly once


class TestCorrectness:
    @pytest.mark.parametrize("d,eps_val", [(1, 0.0), (1, 20.0), (2, 40.0), (3, 60.0)])
    def test_result_equals_brute_force(self, d, eps_val):
        S = pareto_points(800, 1.5, d, seed=3)
        T = pareto_points(800, 1.5, d, seed=4)
        eps = np.full(d, eps_val)
        res = recpart(S, T, eps, w=6, seed=0)
        assert_partitioning_correct(res.partitioning, S, T, eps)

    @pytest.mark.parametrize("term", ["applied", "theoretical"])
    def test_both_terminations_correct(self, pareto3d, term):
        S, T = pareto3d
        eps = np.full(3, 50.0)
        res = recpart(S[:1000], T[:1000], eps, w=4, seed=0, termination=term)
        assert_partitioning_correct(res.partitioning, S[:1000], T[:1000], eps)


class TestBehaviour:
    def test_duplication_monotone_in_history(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=8, seed=0)
        dups = [h["dup_ov"] for h in res.history]
        assert all(b >= a - 1e-12 for a, b in zip(dups, dups[1:]))

    def test_w1_trivial(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=1, seed=0)
        ev = evaluate_partitioning(res.partitioning, S, T, np.full(3, 50.0))
        assert ev.dup_overhead == 0.0
        assert ev.load_overhead == pytest.approx(0.0, abs=1e-9)

    def test_more_workers_more_leaves(self, pareto3d):
        S, T = pareto3d
        l4 = recpart(S, T, np.full(3, 50.0), w=4, seed=0).partitioning.n_leaves
        l16 = recpart(S, T, np.full(3, 50.0), w=16, seed=0).partitioning.n_leaves
        assert l16 > l4

    def test_iterations_bounded_by_small_multiple_of_w(self, pareto3d):
        S, T = pareto3d
        for w in (4, 8, 16):
            res = recpart(S, T, np.full(3, 50.0), w=w, seed=0)
            assert res.n_iters <= 20 * w + 100

    def test_max_iters_respected(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=8, seed=0, max_iters=5)
        assert res.n_iters <= 5

    def test_opt_time_recorded(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=4, seed=0)
        assert res.opt_time > 0

    def test_quality_on_pareto(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=8, seed=0, termination="theoretical")
        ev = evaluate_partitioning(res.partitioning, S, T, np.full(3, 50.0))
        assert ev.dup_overhead < 0.35
        assert ev.load_overhead < 0.5

    def test_custom_cost_model_shifts_tradeoff(self, pareto3d):
        """Table 8/13: greater weight on local cost makes RecPart trade
        duplication for lower max load."""
        S, T = pareto3d
        eps = np.full(3, 80.0)
        lo = recpart(S, T, eps, w=8, seed=0, termination="applied",
                     cost_model=CostModel().with_ratio(1e-3))
        hi = recpart(S, T, eps, w=8, seed=0, termination="applied",
                     cost_model=CostModel().with_ratio(1e3))
        ev_lo = evaluate_partitioning(lo.partitioning, S, T, eps)
        ev_hi = evaluate_partitioning(hi.partitioning, S, T, eps)
        assert ev_hi.L_m <= ev_lo.L_m * 1.5
        assert ev_hi.I >= ev_lo.I


class TestSmallPartitions:
    def test_small_rect_uses_internal_grid(self):
        # band width comparable to the data spread: the root is "small"
        # immediately, so RecPart must refine via internal 1-Bucket cells
        rng = np.random.default_rng(0)
        S = rng.random((500, 2))
        T = rng.random((500, 2))
        eps = np.array([2.0, 2.0])
        res = recpart(S, T, eps, w=6, seed=0)
        part = res.partitioning
        assert part.n_leaves == 1
        assert part.n_tasks > 1  # r*c grew
        assert_partitioning_correct(part, S, T, eps)

    def test_eps0_heavy_value_fallback(self):
        # a massive equi-join point mass cannot be split recursively; the
        # 1-Bucket fallback must still spread its load
        S = np.vstack([np.full((900, 1), 5.0), np.array([[1.0], [2.0], [3.0]])])
        T = S.copy()
        eps = np.array([0.0])
        res = recpart(S, T, eps, w=8, seed=0, termination="theoretical")
        ev = evaluate_partitioning(res.partitioning, S, T, eps)
        assert_partitioning_correct(res.partitioning, S, T, eps)
        # without the fallback one worker would hold ~100% of the output
        assert ev.O_m < 0.6 * ev.O_total


class TestSymmetric:
    def test_symmetric_wins_on_rv_pareto(self):
        S = rv_pareto_points(4000, 1.5, 1, seed=5, side="S")
        T = rv_pareto_points(4000, 1.5, 1, seed=6, side="T")
        eps = np.array([1000.0])
        ev_s = evaluate_partitioning(
            recpart(S, T, eps, w=8, seed=0, symmetric=False).partitioning, S, T, eps
        )
        ev_sym = evaluate_partitioning(
            recpart(S, T, eps, w=8, seed=0, symmetric=True).partitioning, S, T, eps
        )
        # paper Table 9: RecPart-S cannot balance T's dense region; the
        # symmetric version reverses roles and lands near the lower bound
        assert ev_sym.I_m < ev_s.I_m
        assert ev_sym.load_overhead < 0.5

    def test_tie_on_similar_distributions(self):
        S = pareto_points(2000, 1.0, 1, seed=7)
        T = pareto_points(2000, 1.0, 1, seed=8)
        eps = np.array([10.0])
        ev_s = evaluate_partitioning(
            recpart(S, T, eps, w=6, seed=0, symmetric=False).partitioning, S, T, eps
        )
        ev_sym = evaluate_partitioning(
            recpart(S, T, eps, w=6, seed=0, symmetric=True).partitioning, S, T, eps
        )
        assert ev_sym.L_m <= ev_s.L_m * 1.3

    def test_symmetric_correct_on_rv(self):
        S = rv_pareto_points(1500, 1.5, 1, seed=9, side="S")
        T = rv_pareto_points(1500, 1.5, 1, seed=10, side="T")
        eps = np.array([1000.0])
        res = recpart(S, T, eps, w=6, seed=0, symmetric=True)
        assert_partitioning_correct(res.partitioning, S, T, eps)


class TestStopReason:
    def test_bound(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=8, seed=0, termination="theoretical")
        assert res.stop_reason == "bound"
        assert res.history[-1]["dup_ov"] > min(h["load_ov"] for h in res.history)

    def test_window(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=8, seed=0, termination="applied")
        assert res.stop_reason == "window"
        objs = [h["obj"] for h in res.history]
        assert min(objs) > 0.99 * min(objs[:-8])

    def test_max_iters(self, pareto3d):
        S, T = pareto3d
        res = recpart(S, T, np.full(3, 50.0), w=8, seed=0, max_iters=5)
        assert res.stop_reason == "max_iters"
        assert res.n_iters == 5

    def test_no_split(self):
        # one S and one T tuple at the same point: no split lowers the load
        res = recpart(np.array([[0.0]]), np.array([[0.0]]), np.array([0.0]), w=4, seed=0)
        assert res.stop_reason == "no_split"
        assert res.n_iters == 0

    def test_reported_by_build_partitioning(self, pareto3d):
        from repro.harness.runner import build_partitioning

        S, T = pareto3d
        _, _, extra = build_partitioning("recpart", S, T, np.full(3, 50.0), 8, CostModel())
        assert extra["stop_reason"] == "bound"
        assert set(extra) == {"iters", "leaves", "stop_reason"}
