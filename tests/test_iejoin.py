"""Tests for the distributed-IEJoin quantile block-pair partitioning."""
import numpy as np
import pytest

from repro.baselines.iejoin import IEJoinPartitioning
from repro.dist.metrics import evaluate_partitioning
from repro.synth_data import pareto_points, rv_pareto_points

from tests.helpers import (
    STRIPE_CASES,
    assert_every_tuple_shipped,
    assert_partitioning_correct,
    stripe_case_inputs,
)


class TestCorrectness:
    @pytest.mark.parametrize("spb", [50, 200, 1000])
    def test_exact_result_across_block_sizes(self, spb):
        S = pareto_points(800, 1.5, 1, seed=1)
        T = pareto_points(800, 1.5, 1, seed=2)
        eps = np.array([20.0])
        part = IEJoinPartitioning(S, T, eps, 6, spb, seed=0)
        assert_partitioning_correct(part, S, T, eps)

    def test_multidim_sorts_on_first_attribute_only(self):
        S = pareto_points(600, 1.5, 3, seed=3)
        T = pareto_points(600, 1.5, 3, seed=4)
        eps = np.full(3, 60.0)
        part = IEJoinPartitioning(S, T, eps, 6, 100, seed=0)
        assert_partitioning_correct(part, S, T, eps)

    def test_eps0(self):
        S = pareto_points(500, 1.5, 1, seed=5)
        T = pareto_points(500, 1.5, 1, seed=6)
        part = IEJoinPartitioning(S, T, np.array([0.0]), 4, 100, seed=0)
        assert_partitioning_correct(part, S, T, np.array([0.0]))

    def test_disjoint_inputs(self):
        S = rv_pareto_points(300, 1.5, 1, seed=7, side="S")
        T = rv_pareto_points(300, 1.5, 1, seed=8, side="T")
        part = IEJoinPartitioning(S, T, np.array([5.0]), 4, 100, seed=0)
        assert_partitioning_correct(part, S, T, np.array([5.0]))


class TestBehaviour:
    def test_every_tuple_shipped(self):
        S = pareto_points(900, 1.5, 1, seed=9)
        T = pareto_points(900, 1.5, 1, seed=10)
        part = IEJoinPartitioning(S, T, np.array([3.0]), 6, 150, seed=0)
        assert_every_tuple_shipped(part, S, T)

    @pytest.mark.parametrize("case", STRIPE_CASES)
    def test_every_tuple_shipped_degenerate(self, case):
        # each side's blocks tile the real line, so every block is
        # joinable with some block of the other side
        S, T, eps = stripe_case_inputs(case)
        spb = len(S) if case == "one_stripe" else 100
        part = IEJoinPartitioning(S, T, eps, 6, spb, seed=0)
        if case == "heavy_hitter":  # 7 distinct bounds without repeats
            assert len(part.bnd_s) < len(S) // spb - 1
        if case == "one_stripe":
            assert part.n_tasks == 1
        assert_every_tuple_shipped(part, S, T)

    def test_block_size_matters(self):
        """Paper Tables 7/11: sizePerBlock is a sensitive meta-parameter;
        duplication varies across settings."""
        S = pareto_points(6000, 1.5, 1, seed=11)
        T = pareto_points(6000, 1.5, 1, seed=12)
        eps = np.array([1.0])
        Is = []
        for spb in (60, 300, 2000):
            part = IEJoinPartitioning(S, T, eps, 30, spb, seed=0)
            ev = evaluate_partitioning(part, S, T, eps, count_output=False)
            Is.append(ev.I)
        assert max(Is) > 1.15 * min(Is)

    def test_duplication_higher_than_lower_bound(self):
        S = pareto_points(4000, 1.5, 1, seed=13)
        T = pareto_points(4000, 1.5, 1, seed=14)
        part = IEJoinPartitioning(S, T, np.array([1.0]), 30, 400, seed=0)
        ev = evaluate_partitioning(part, S, T, np.array([1.0]))
        assert ev.dup_overhead > 0.1  # quantile blocks always duplicate
