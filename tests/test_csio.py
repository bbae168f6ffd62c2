"""Tests for the CS_IO quantile-stripe rectangle-covering baseline."""
import numpy as np
import pytest

from repro.baselines.csio import build_csio
from repro.core.cost_model import CostModel
from repro.dist.metrics import evaluate_partitioning
from repro.synth_data import pareto_points, rv_pareto_points

from tests.helpers import (
    STRIPE_CASES,
    assert_every_tuple_shipped,
    assert_partitioning_correct,
    stripe_case_inputs,
)


class TestCorrectness:
    @pytest.mark.parametrize("d,eps_val", [(1, 0.0), (1, 30.0), (2, 50.0), (3, 60.0)])
    def test_exact_result(self, d, eps_val):
        S = pareto_points(800, 1.5, d, seed=1)
        T = pareto_points(800, 1.5, d, seed=2)
        eps = np.full(d, eps_val)
        part = build_csio(S, T, eps, w=8, seed=0)
        assert_partitioning_correct(part, S, T, eps)

    def test_disjoint_ranges_zero_output(self):
        # rv-pareto-style gap: S and T share no band, so the output is
        # empty, yet every tuple must still be shipped
        S = rv_pareto_points(500, 1.5, 1, seed=3, side="S")
        T = rv_pareto_points(500, 1.5, 1, seed=4, side="T")
        eps = np.array([10.0])
        part = build_csio(S, T, eps, w=4, seed=0)
        assert_partitioning_correct(part, S, T, eps)

    def test_skewed_duplicated_quantiles(self):
        # heavy hitters collapse quantile boundaries; must stay correct
        S = np.vstack([np.full((700, 1), 7.0), pareto_points(100, 1.5, 1, seed=5)])
        T = np.vstack([np.full((700, 1), 7.0), pareto_points(100, 1.5, 1, seed=6)])
        eps = np.array([0.5])
        part = build_csio(S, T, eps, w=6, seed=0)
        assert_partitioning_correct(part, S, T, eps)


class TestStructure:
    def test_every_tuple_assigned(self):
        S = pareto_points(1000, 1.5, 1, seed=7)
        T = pareto_points(1000, 1.5, 1, seed=8)
        part = build_csio(S, T, np.array([5.0]), w=8, seed=0)
        assert_every_tuple_shipped(part, S, T)

    @pytest.mark.parametrize("case", STRIPE_CASES)
    def test_every_tuple_assigned_degenerate(self, case):
        # each side's stripes tile the real line, so every stripe has a
        # relevant cell and a rectangle
        S, T, eps = stripe_case_inputs(case)
        part = build_csio(S, T, eps, w=6, g=1 if case == "one_stripe" else None, seed=0)
        if case == "heavy_hitter":
            assert len(np.unique(part.bnd_s)) < len(part.bnd_s)
        assert_every_tuple_shipped(part, S, T)
        assert part.n_tasks <= 6

    def test_rect_count_at_most_w_plus_sinks(self):
        # the cover has at most w rectangles and there are no other tasks
        S = pareto_points(2000, 1.5, 1, seed=9)
        T = pareto_points(2000, 1.5, 1, seed=10)
        w = 8
        part = build_csio(S, T, np.array([5.0]), w=w, seed=0)
        assert part.n_tasks <= w

    def test_granularity_increases_opt_cost(self):
        import time

        S = pareto_points(4000, 1.5, 1, seed=11)
        T = pareto_points(4000, 1.5, 1, seed=12)
        eps = np.array([5.0])
        t0 = time.perf_counter()
        build_csio(S, T, eps, w=8, g=16, seed=0)
        coarse = time.perf_counter() - t0
        t0 = time.perf_counter()
        build_csio(S, T, eps, w=8, g=256, seed=0)
        fine = time.perf_counter() - t0
        assert fine > coarse

    def test_io_awareness_beats_naive_quantiles(self):
        """CS_IO's covering should duplicate far less than the sqrt(w)
        1-Bucket cover on a 1D band-join (paper Table 2a shape)."""
        S = pareto_points(5000, 1.5, 1, seed=13)
        T = pareto_points(5000, 1.5, 1, seed=14)
        eps = np.array([0.5])
        part = build_csio(S, T, eps, w=30, seed=0)
        ev = evaluate_partitioning(part, S, T, eps)
        assert ev.dup_overhead < 1.0  # 1-Bucket would be 4.5

    def test_custom_cost_model(self):
        S = pareto_points(1000, 1.5, 1, seed=15)
        T = pareto_points(1000, 1.5, 1, seed=16)
        part = build_csio(
            S, T, np.array([2.0]), w=4, cost_model=CostModel().with_ratio(10), seed=0
        )
        assert_partitioning_correct(part, S, T, np.array([2.0]))
