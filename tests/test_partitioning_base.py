"""Tests for the partitioning base: LPT scheduling, id hashing, and the
shared fan-out primitives (range expansion, r x c matrix cells)."""
import heapq

import numpy as np
import pytest

from repro.baselines.grid_eps import GridPartitioning
from repro.baselines.one_bucket import OneBucketPartitioning
from repro.core.geometry import Rect
from repro.core.split_tree import FrozenTree, TreeNode
from repro.dist.local_join import band_join_tasks
from repro.dist.partitioning import expand_ranges, hash_ids, lpt_schedule
from repro.synth_data import pareto_points


def reference_lpt(task_loads, w):
    """Graham's LPT, one heap pop per task: tasks in argsort(-load)
    order, each to the worker with the least (load, worker id)."""
    loads = np.asarray(task_loads, dtype=float)
    out = np.zeros(len(loads), dtype=np.int64)
    heap = [(0.0, wk) for wk in range(w)]
    for t in np.argsort(-loads):
        load, wk = heapq.heappop(heap)
        out[t] = wk
        heapq.heappush(heap, (load + float(loads[t]), wk))
    return out


def _grid_task_loads(beta2, beta3):
    S = pareto_points(3000, 1.5, 3, seed=1)
    T = pareto_points(3000, 1.5, 3, seed=2)
    eps = np.full(3, 35.0)
    part = GridPartitioning(S, T, eps, eps, 30)
    si, st = part.assign(S, "S")
    ti, tt = part.assign(T, "T")
    per_s, _ = band_join_tasks(st, S[si], tt, T[ti], eps)
    n_in = np.bincount(st, minlength=part.n_tasks) + np.bincount(tt, minlength=part.n_tasks)
    n_out = np.bincount(st, weights=per_s, minlength=part.n_tasks)
    return beta2 * n_in + beta3 * n_out


LPT_CASES = {
    "grid_beta2_4": lambda: _grid_task_loads(4.0, 1.0),
    "grid_beta_nonint": lambda: _grid_task_loads(0.37, 0.013),
    "random_int_500k": lambda: np.random.default_rng(0).integers(0, 50, 500_000).astype(float),
    "absorbed_tiny": lambda: np.concatenate(
        [np.full(3, 1e6), np.full(5000, 1e-17), [5e5], np.full(700, 1e-17)]
    ),
    "all_zero": lambda: np.zeros(2000),
    "distinct_and_runs": lambda: np.concatenate([
        np.random.default_rng(1).random(400) * 100,
        np.full(3000, 7.0),
        np.full(250, 2.5),
        np.full(5000, 0.37 * 3 + 0.013),
        np.random.default_rng(2).integers(1, 4, 6000).astype(float),
        np.zeros(500),
    ]),
}


class TestLpt:
    def test_empty(self):
        assert lpt_schedule(np.array([]), 4).tolist() == []

    def test_single_worker(self):
        assert set(lpt_schedule(np.array([1.0, 2.0, 3.0]), 1)) == {0}

    def test_balanced_on_equal_loads(self):
        tw = lpt_schedule(np.ones(12), 4)
        counts = np.bincount(tw, minlength=4)
        assert counts.tolist() == [3, 3, 3, 3]

    def test_within_4_3_of_optimum(self):
        # classical LPT guarantee: makespan <= (4/3 - 1/3w) * OPT
        rng = np.random.default_rng(0)
        loads = rng.random(50) * 10
        w = 5
        tw = lpt_schedule(loads, w)
        makespan = np.bincount(tw, weights=loads, minlength=w).max()
        opt_lb = max(loads.max(), loads.sum() / w)
        assert makespan <= (4 / 3) * opt_lb + 1e-9

    def test_all_workers_get_tasks_when_enough(self):
        tw = lpt_schedule(np.arange(1, 21, dtype=float), 6)
        assert len(set(tw.tolist())) == 6

    def test_heaviest_task_alone_when_dominant(self):
        loads = np.array([100.0, 1.0, 1.0, 1.0])
        tw = lpt_schedule(loads, 2)
        heavy_worker = tw[0]
        assert all(tw[i] != heavy_worker for i in (1, 2, 3))

    @pytest.mark.parametrize("w", [1, 30, 60])
    @pytest.mark.parametrize("case", sorted(LPT_CASES))
    def test_equals_heap_reference(self, case, w):
        loads = LPT_CASES[case]()
        assert np.array_equal(lpt_schedule(loads, w), reference_lpt(loads, w))

    def test_one_worker_takes_a_whole_run(self):
        # the one worker without a 1e5 task stays lowest through all 50k unit tasks
        loads = np.concatenate([np.full(29, 1e5), np.ones(50_000)])
        tw = lpt_schedule(loads, 30)
        assert np.array_equal(tw, reference_lpt(loads, 30))
        assert set(tw[29:].tolist()) == {int(np.setdiff1d(np.arange(30), tw[:29])[0])}


class TestHashIds:
    def test_deterministic(self):
        ids = np.arange(1000, dtype=np.int64)
        a = hash_ids(ids, 7, 13)
        b = hash_ids(ids, 7, 13)
        assert (a == b).all()

    def test_range(self):
        out = hash_ids(np.arange(500, dtype=np.int64), 3, 7)
        assert out.min() >= 0 and out.max() < 7

    def test_seed_changes_assignment(self):
        ids = np.arange(1000, dtype=np.int64)
        assert (hash_ids(ids, 1, 16) != hash_ids(ids, 2, 16)).any()

    def test_roughly_uniform(self):
        out = hash_ids(np.arange(30_000, dtype=np.int64), 0, 10)
        counts = np.bincount(out, minlength=10)
        assert counts.min() > 2400 and counts.max() < 3600

    def test_consecutive_ids_decorrelated(self):
        out = hash_ids(np.arange(1000, dtype=np.int64), 0, 2)
        runs = np.abs(np.diff(out)).sum()  # ~half of steps should flip
        assert 350 < runs < 650

    def test_no_overflow_warning(self):
        with np.errstate(over="raise"):
            hash_ids(np.array([2**62], dtype=np.int64), 123456, 97)


def reference_expand(lo, hi):
    owner = [k for k in range(len(lo)) for _ in range(lo[k], hi[k])]
    pos = [p for k in range(len(lo)) for p in range(lo[k], hi[k])]
    return owner, pos


class TestExpandRanges:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            ([], []),
            ([3, 5, 5], [3, 5, 5]),  # all ranges empty
            ([0, 4, 4, 2, 9], [3, 4, 6, 2, 12]),  # zero widths between
            ([7], [8]),
            ([5, 0, 5], [9, 5, 6]),  # overlapping, not sorted
        ],
    )
    def test_matches_loop(self, lo, hi):
        owner, pos = expand_ranges(np.array(lo, np.int64), np.array(hi, np.int64))
        want_owner, want_pos = reference_expand(lo, hi)
        assert owner.tolist() == want_owner
        assert pos.tolist() == want_pos

    def test_matches_loop_random(self):
        rng = np.random.default_rng(0)
        lo = rng.integers(0, 1000, 300)
        hi = lo + rng.integers(0, 4, 300)
        owner, pos = expand_ranges(lo, hi)
        want_owner, want_pos = reference_expand(lo.tolist(), hi.tolist())
        assert owner.tolist() == want_owner
        assert pos.tolist() == want_pos


class TestMatrixCells:
    @pytest.mark.parametrize("n,w,seed", [(100, 6, 0), (500, 30, 3), (50, 12, 11)])
    def test_one_bucket_equals_one_leaf_tree(self, n, w, seed):
        """1-Bucket and a RecPart leaf with the same (r, c, seed) share
        one row/column seed convention."""
        ob = OneBucketPartitioning(n, n, w, seed=seed)
        root = TreeNode(Rect(np.array([0.0]), np.array([1.0])))
        root.r, root.c = ob.r, ob.c
        ft = FrozenTree(root, np.array([0.1]), w=w, seed=seed)
        pts = np.random.default_rng(seed).random((n, 1))
        ids = np.arange(1000, 1000 + n, dtype=np.int64)
        for side in "ST":
            a_idx, a_task = ob.assign(pts, side, ids=ids)
            b_idx, b_task = ft.assign(pts, side, ids=ids)
            assert a_idx.tolist() == b_idx.tolist()
            assert a_task.tolist() == b_task.tolist()
