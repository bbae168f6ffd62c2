"""Tests for the exact distributed-execution simulator (Section 2
measures of success, Lemma 1 lower bounds)."""
import dataclasses
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from repro.baselines.csio import build_csio
from repro.baselines.grid_eps import GridPartitioning
from repro.baselines.iejoin import IEJoinPartitioning
from repro.baselines.one_bucket import OneBucketPartitioning
from repro.core.cost_model import CostModel
from repro.core.recpart import recpart
from repro.dist import metrics
from repro.dist.metrics import evaluate_partitioning
from repro.dist.partitioning import Partitioning
from repro.harness.runner import build_partitioning
from repro.synth_data import pareto_points

from tests.helpers import (
    assert_partitioning_correct,
    brute_force_count,
    collect_all_pairs,
)
from tests.test_definition1 import METHODS

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


def _fields(ev) -> dict:
    return {f.name: getattr(ev, f.name) for f in dataclasses.fields(ev)}


def _assert_same_result(got, want):
    """Every ``EvalResult`` field equal, in value and in type."""
    for name, x in _fields(want).items():
        y = getattr(got, name)
        assert type(y) is type(x), name
        if isinstance(x, np.ndarray):
            assert y.dtype == x.dtype and np.array_equal(y, x), name
        else:
            assert y == x, name


def _evaluate_in_groups(part, S, T, eps, groups):
    """``evaluate_partitioning`` with its tasks cut into ``groups``
    task-id ranges, run by 4 threads whatever the machine."""
    with mock.patch.object(metrics, "_n_groups", lambda copies: groups), \
            mock.patch.object(metrics, "_threads", lambda: 4):
        return evaluate_partitioning(part, S, T, eps)


def _assert_any_group_count_identical(part, S, T, eps):
    want = _evaluate_in_groups(part, S, T, eps, 1)
    for groups in (2, 3, 8, part.n_tasks + 3):
        _assert_same_result(_evaluate_in_groups(part, S, T, eps, groups), want)
    return want


class _Copies(Partitioning):
    """A partitioning given as its (row, task) copies per side."""

    def __init__(self, s, t, n_tasks, w=3):
        self._copies = {"S": s, "T": t}
        self.n_tasks, self.w = n_tasks, w
        self.task_to_worker = np.arange(n_tasks) % w

    def assign(self, points, side, ids=None):
        return self._copies[side]


class _NoTCopies(Partitioning):
    """``part`` with the T copies of the tasks in ``drop`` (all, if
    None) removed, as the benchmark's fault injection does."""

    def __init__(self, part, drop=None):
        self.part, self.drop = part, drop
        self.n_tasks, self.w, self.task_to_worker = part.n_tasks, part.w, part.task_to_worker

    def assign(self, points, side, ids=None):
        idx, task = self.part.assign(points, side, ids)
        if side == "T":
            keep = np.zeros(len(task), bool) if self.drop is None else ~np.isin(task, self.drop)
            return idx[keep], task[keep]
        return idx, task


def _small_inputs(seed: int):
    """(S, T, eps): 1 to 80 rows per relation in 1 to 3 dimensions,
    Pareto-tailed or on a grid of half band widths (many pairs on the
    band edge)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    eps = rng.choice([0.5, 1.0, 2.5], d)
    n_s, n_t = (int(n) for n in rng.integers(1, 81, 2))
    if rng.random() < 0.5:
        return rng.integers(-8, 8, (n_s, d)) * eps / 2, rng.integers(-8, 8, (n_t, d)) * eps / 2, eps
    return (pareto_points(n_s, 1.5, d, seed=seed) / 10,
            pareto_points(n_t, 1.5, d, seed=seed + 1) / 10, eps)


class TestGroupsGiveIdenticalResults:
    """The per-task local joins run in task-id ranges on a thread pool;
    every ``EvalResult`` field must equal the one-range result for any
    number of ranges (the module docstring's identity argument)."""

    @settings(max_examples=15, deadline=None)
    @given(seed=hyp_st.integers(0, 2**16))
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method(self, method, seed):
        S, T, eps = _small_inputs(seed)
        part, _, _ = build_partitioning(method, S, T, eps, 4, CostModel(), seed=seed)
        ev = _assert_any_group_count_identical(part, S, T, eps)
        assert ev.O_total == brute_force_count(S, T, eps)

    def test_single_task(self):
        S, T, eps = _make("pareto2d", n=300)
        one = (np.arange(len(S)), np.zeros(len(S), np.int64))
        part = _Copies(one, (np.arange(len(T)), np.zeros(len(T), np.int64)), 1)
        ev = _assert_any_group_count_identical(part, S, T, eps)
        assert ev.O_total == brute_force_count(S, T, eps)

    def test_tasks_with_only_s_or_only_t_copies(self):
        # tasks 0, 2 hold only S copies, 1, 3 only T copies, 4, 5 both
        # and 6, 7 none
        S, T, eps = _make("pareto2d", n=300)
        rng = np.random.default_rng(0)
        s = (np.arange(len(S)), rng.choice([0, 2, 4, 5], len(S)))
        t = (np.arange(len(T)), rng.choice([1, 3, 4, 5], len(T)))
        ev = _assert_any_group_count_identical(_Copies(s, t, 8), S, T, eps)
        assert ev.O_total > 0

    def test_no_t_copy_at_all(self):
        S, T, eps = _make("pareto2d", n=300)
        part = _NoTCopies(OneBucketPartitioning(len(S), len(T), 6, seed=0))
        ev = _assert_any_group_count_identical(part, S, T, eps)
        assert ev.I_t == 0 and ev.O_total == 0 and not ev.worker_output.any()

    def test_one_task_without_its_t_copies(self):
        S, T, eps = _make("pareto3d", n=300)
        base = recpart(S, T, eps, 6, seed=0).partitioning
        full = evaluate_partitioning(base, S, T, eps)
        busiest = int(np.bincount(base.assign(S, "S")[1]).argmax())
        ev = _assert_any_group_count_identical(_NoTCopies(base, drop=[busiest]), S, T, eps)
        assert ev.O_total < full.O_total

    def test_grid_eps_with_far_more_tasks_than_copies(self):
        S, T, eps = _make("pareto3d", n=400)
        part = GridPartitioning(S, T, eps, eps, 6)
        s, t = S[:3], T[:3]
        copies = sum(len(part.assign(x, side)[0]) for x, side in ((s, "S"), (t, "T")))
        assert part.n_tasks > 20 * copies
        _assert_any_group_count_identical(part, s, t, eps)


class TestPool:
    """The simulator's helper threads: made on first use, never at
    import; errors and concurrent callers handled."""

    def test_import_starts_no_thread(self):
        code = (
            "import threading\n"
            "import repro.dist.band_join, repro.dist.metrics as m, repro.harness.runner\n"
            "assert m._pool is None, m._pool\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_exception_in_one_group_propagates(self):
        S, T, eps = _make("pareto2d", n=400)
        part = OneBucketPartitioning(len(S), len(T), 6, seed=0)
        join = metrics.band_join_tasks

        def failing(task_s, *a, **k):
            if len(task_s) and task_s.min() >= 3:
                raise RuntimeError("boom")
            return join(task_s, *a, **k)

        with mock.patch.object(metrics, "band_join_tasks", failing):
            with pytest.raises(RuntimeError, match="boom"):
                _evaluate_in_groups(part, S, T, eps, 6)
        # the pool still serves later evaluations
        _assert_any_group_count_identical(part, S, T, eps)

    def test_exception_in_a_pool_thread_propagates(self):
        caller, helper_ran = threading.current_thread(), threading.Event()

        def fn(i):
            if threading.current_thread() is caller:
                # let a pool thread take a range before the caller takes them all
                assert helper_ran.wait(10)
                return i
            helper_ran.set()
            raise RuntimeError("boom")

        with mock.patch.object(metrics, "_threads", lambda: 4):
            with pytest.raises(RuntimeError, match="boom"):
                metrics._map_threads(fn, [(i,) for i in range(8)])

    def test_concurrent_callers_get_the_serial_result(self):
        S, T, eps = _make("pareto3d", n=3000)
        parts = [OneBucketPartitioning(len(S), len(T), 6, seed=0),
                 GridPartitioning(S, T, eps, eps, 6)]
        want = [_evaluate_in_groups(p, S, T, eps, 1) for p in parts]
        start = threading.Barrier(2)

        def run(p):
            start.wait()
            return [evaluate_partitioning(p, S, T, eps) for _ in range(3)]

        with mock.patch.object(metrics, "_threads", lambda: 4), ThreadPoolExecutor(2) as callers:
            got = list(callers.map(run, parts))
        for evs, w in zip(got, want):
            for ev in evs:
                _assert_same_result(ev, w)

    def test_only_callers_submit_to_the_pool(self):
        S, T, eps = _make("pareto2d", n=2000)
        part = OneBucketPartitioning(len(S), len(T), 6, seed=0)
        with mock.patch.object(metrics, "_threads", lambda: 4):
            pool = metrics._get_pool()
        submit, callers = pool.submit, []

        def recording(*a, **k):
            callers.append(threading.current_thread())
            return submit(*a, **k)

        with mock.patch.object(pool, "submit", recording):
            _evaluate_in_groups(part, S, T, eps, 8)
        assert callers and all(c is threading.current_thread() for c in callers)
