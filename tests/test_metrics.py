"""Tests for the exact distributed-execution simulator (Section 2
measures of success, Lemma 1 lower bounds)."""
import numpy as np
import pytest

from repro.baselines.csio import build_csio
from repro.baselines.grid_eps import GridPartitioning
from repro.baselines.iejoin import IEJoinPartitioning
from repro.baselines.one_bucket import OneBucketPartitioning
from repro.core.recpart import recpart
from repro.dist.metrics import evaluate_partitioning
from repro.synth_data import pareto_points

from tests.helpers import (
    assert_partitioning_correct,
    brute_force_count,
    collect_all_pairs,
)

DATASETS = {
    "pareto1d": (1, 20.0),
    "pareto2d": (2, 40.0),
    "pareto3d": (3, 60.0),
}


def _make(name, n=600, seed=0):
    d, e = DATASETS[name]
    return (
        pareto_points(n, 1.5, d, seed=seed * 2 + 30),
        pareto_points(n, 1.5, d, seed=seed * 2 + 31),
        np.full(d, e),
    )


def _builders(S, T, eps, w):
    return {
        "recpart": lambda: recpart(S, T, eps, w, seed=0).partitioning,
        "recpart_s": lambda: recpart(S, T, eps, w, seed=0, symmetric=False).partitioning,
        "one_bucket": lambda: OneBucketPartitioning(len(S), len(T), w, seed=0),
        "grid_eps": lambda: GridPartitioning(S, T, eps, eps, w),
        "csio": lambda: build_csio(S, T, eps, w, seed=0),
        "iejoin": lambda: IEJoinPartitioning(S, T, eps, w, 100, seed=0),
    }


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize(
    "method", ["recpart", "recpart_s", "one_bucket", "grid_eps", "csio", "iejoin"]
)
class TestEveryMethodEveryDataset:
    """Definition-1 correctness and exact O_total for the full matrix of
    (partitioner x dataset)."""

    def test_definition1_and_output_total(self, dataset, method):
        S, T, eps = _make(dataset)
        part = _builders(S, T, eps, 6)[method]()
        assert_partitioning_correct(part, S, T, eps)
        ev = evaluate_partitioning(part, S, T, eps)
        assert ev.O_total == brute_force_count(S, T, eps)


class TestEvalResult:
    @pytest.fixture(scope="class")
    def ev(self):
        S, T, eps = _make("pareto2d", n=2000)
        part = OneBucketPartitioning(len(S), len(T), 6, seed=0)
        return evaluate_partitioning(part, S, T, eps)

    def test_lower_bound_I(self, ev):
        assert ev.I >= ev.I_lower == ev.n_s + ev.n_t
        assert ev.dup_overhead >= 0

    def test_lower_bound_L(self, ev):
        assert ev.L_m >= ev.L_lower - 1e-9
        assert ev.L_lower == pytest.approx(
            (ev.beta2 * (ev.n_s + ev.n_t) + ev.beta3 * ev.O_total) / ev.w
        )

    def test_worker_arrays_consistent(self, ev):
        assert ev.worker_input.sum() == ev.I
        assert ev.worker_output.sum() == ev.O_total
        assert ev.I_m == ev.worker_input[
            np.argmax(ev.beta2 * ev.worker_input + ev.beta3 * ev.worker_output)
        ]

    def test_load_is_weighted_sum(self, ev):
        assert ev.L_m == pytest.approx(ev.beta2 * ev.I_m + ev.beta3 * ev.O_m)


class TestScheduling:
    def test_reschedule_never_worse(self):
        S, T, eps = _make("pareto1d", n=3000)
        part = recpart(S, T, eps, 8, seed=0).partitioning
        frozen = evaluate_partitioning(part, S, T, eps, reschedule=False)
        dyn = evaluate_partitioning(part, S, T, eps, reschedule=True)
        assert dyn.L_m <= frozen.L_m * 1.05
        assert dyn.I == frozen.I  # rescheduling never changes duplication
        assert dyn.O_total == frozen.O_total

    def test_custom_betas_change_lb(self):
        S, T, eps = _make("pareto1d")
        part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
        a = evaluate_partitioning(part, S, T, eps, beta2=4, beta3=1)
        b = evaluate_partitioning(part, S, T, eps, beta2=1, beta3=1)
        assert a.L_lower > b.L_lower

    def test_count_output_false_skips_join(self):
        S, T, eps = _make("pareto1d")
        part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
        ev = evaluate_partitioning(part, S, T, eps, count_output=False)
        assert ev.O_total == 0 and ev.worker_output.sum() == 0

    def test_1d_point_arrays_accepted(self):
        S = pareto_points(200, 1.5, 1, seed=40)[:, 0]
        T = pareto_points(200, 1.5, 1, seed=41)[:, 0]
        part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
        ev = evaluate_partitioning(part, S, T, np.array([5.0]))
        assert ev.n_s == 200


class TestCollectPairs:
    def test_pair_ids_respect_custom_ids(self):
        S, T, eps = _make("pareto1d", n=200)
        part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
        s_ids = np.arange(1000, 1200)
        t_ids = np.arange(5000, 5200)
        pairs = collect_all_pairs(part, S, T, eps, s_ids=s_ids, t_ids=t_ids)
        if len(pairs):
            assert pairs[:, 0].min() >= 1000 and pairs[:, 1].min() >= 5000
