"""Tests for 1-Bucket randomized matrix cover."""
import numpy as np
import pytest

from repro.baselines.one_bucket import OneBucketPartitioning, choose_grid
from repro.dist.metrics import evaluate_partitioning
from repro.synth_data import pareto_points

from tests.helpers import assert_partitioning_correct


class TestChooseGrid:
    def test_paper_w30_equal_inputs(self):
        # paper Table 2a: w=30, |S|=|T| -> 5x6 cover, I = 2200M for 400M
        r, c = choose_grid(200, 200, 30)
        assert sorted((r, c)) == [5, 6]

    def test_square_when_possible(self):
        assert choose_grid(100, 100, 16) == (4, 4)

    def test_skewed_sizes_skew_grid(self):
        r, c = choose_grid(1000, 10, 16)
        assert r > c  # big S -> more rows so each region gets less S

    def test_w1(self):
        assert choose_grid(5, 5, 1) == (1, 1)

    def test_never_exceeds_w(self):
        for w in range(1, 40):
            r, c = choose_grid(123, 456, w)
            assert r * c <= w


class TestPartitioning:
    def test_input_duplication_formula(self):
        n = 1000
        part = OneBucketPartitioning(n, n, 30, seed=0)
        pts = np.zeros((n, 1))
        si, _ = part.assign(pts, "S", ids=np.arange(n))
        ti, _ = part.assign(pts, "T", ids=np.arange(n))
        # I = c*|S| + r*|T| (each S-tuple to all c cells of its row)
        assert len(si) == part.c * n
        assert len(ti) == part.r * n

    def test_dimension_independent(self):
        # the cover ignores the join condition entirely (paper Tables
        # 2a vs 2b: identical 1-Bucket numbers)
        part = OneBucketPartitioning(500, 500, 30, seed=0)
        ids = np.arange(500, dtype=np.int64)
        for side, seed in (("S", 1), ("T", 2)):
            a = part.assign(pareto_points(500, 1.5, 1, seed=seed), side, ids=ids)
            b = part.assign(pareto_points(500, 1.5, 3, seed=seed + 10), side, ids=ids)
            assert a[0].tolist() == b[0].tolist()
            assert a[1].tolist() == b[1].tolist()

    @pytest.mark.parametrize("d", [1, 3])
    def test_correct_any_band(self, d):
        S = pareto_points(600, 1.5, d, seed=1)
        T = pareto_points(600, 1.5, d, seed=2)
        eps = np.full(d, 100.0)
        part = OneBucketPartitioning(len(S), len(T), 12, seed=0)
        assert_partitioning_correct(part, S, T, eps)

    def test_correct_at_eps0(self):
        S = pareto_points(600, 1.5, 1, seed=3)
        T = pareto_points(600, 1.5, 1, seed=4)
        part = OneBucketPartitioning(len(S), len(T), 6, seed=1)
        assert_partitioning_correct(part, S, T, np.array([0.0]))

    def test_near_perfect_load_balance(self):
        # randomization spreads skewed input evenly (the method's selling
        # point): worker inputs within ~15% of each other
        S = pareto_points(30_000, 2.0, 1, seed=5)
        T = pareto_points(30_000, 2.0, 1, seed=6)
        part = OneBucketPartitioning(len(S), len(T), 30, seed=0)
        ev = evaluate_partitioning(part, S, T, np.array([0.0]), reschedule=False)
        assert ev.worker_input.max() <= 1.15 * ev.worker_input.mean()

    def test_tasks_equal_workers(self):
        part = OneBucketPartitioning(100, 100, 30, seed=0)
        assert part.n_tasks == 30
        assert sorted(part.task_to_worker.tolist()) == list(range(30))

    def test_ids_required_for_determinism(self):
        part = OneBucketPartitioning(100, 100, 12, seed=0)
        pts = np.zeros((100, 1))
        ids = np.arange(100)
        a = part.assign(pts, "S", ids=ids)
        b = part.assign(pts, "S", ids=ids)
        assert (a[1] == b[1]).all()
