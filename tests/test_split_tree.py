"""Tests for split-tree structure, routing (Algorithm 3), and the
exactly-one-common-leaf guarantee."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect
from repro.core.split_tree import FrozenTree, TreeNode
from repro.dist.partitioning import lpt_schedule

from tests.helpers import assert_partitioning_correct


def _tree_1d(dup_side="T"):
    """[0, 10) split at 5 on dim 0."""
    root = TreeNode(Rect(np.array([0.0]), np.array([10.0])))
    root.to_inner(0, 5.0, dup_side)
    return root


class TestStructure:
    def test_to_inner_creates_children_rects(self):
        root = _tree_1d()
        assert root.left.rect.hi[0] == 5.0
        assert root.right.rect.lo[0] == 5.0
        assert not root.is_leaf

    def test_leaves_order(self):
        root = _tree_1d()
        root.left.to_inner(0, 2.0, "T")
        assert [l.rect.lo[0] for l in root.leaves()] == [0.0, 2.0, 5.0]

    def test_clone_is_structural_copy(self):
        root = _tree_1d()
        root.left.payload = object()
        c = root.clone()
        assert c.left is not root.left
        assert c.left.payload is None
        assert c.value == 5.0 and c.dup_side == "T"


class TestRoutingTSplit:
    """T-split: S routed strictly, T duplicated within eps of boundary."""

    def _frozen(self, eps):
        return FrozenTree(_tree_1d("T"), np.array([eps]), w=2)

    def test_s_goes_to_one_side(self):
        ft = self._frozen(1.0)
        idx, task = ft.assign(np.array([[4.9], [5.0], [5.1]]), "S")
        assert len(idx) == 3
        assert task.tolist() == [0, 1, 1]  # boundary value goes right

    def test_t_duplicated_within_eps(self):
        ft = self._frozen(1.0)
        idx, task = ft.assign(np.array([[4.5]]), "T")
        assert sorted(task.tolist()) == [0, 1]  # 4.5 within 1.0 of 5.0

    def test_t_not_duplicated_outside_eps(self):
        ft = self._frozen(1.0)
        idx, task = ft.assign(np.array([[3.0], [7.5]]), "T")
        assert len(idx) == 2
        assert sorted(task.tolist()) == [0, 1]

    def test_t_boundary_edges(self):
        ft = self._frozen(1.0)
        # t + eps == boundary -> right child included (>= rule)
        _, task = ft.assign(np.array([[4.0]]), "T")
        assert sorted(task.tolist()) == [0, 1]
        # t - eps == boundary -> only right (strict < rule on left)
        _, task = ft.assign(np.array([[6.0]]), "T")
        assert task.tolist() == [1]

    def test_eps_zero_no_duplication(self):
        ft = self._frozen(0.0)
        idx, task = ft.assign(np.array([[5.0], [4.999]]), "T")
        assert len(idx) == 2

    def test_s_split_symmetric(self):
        ft = FrozenTree(_tree_1d("S"), np.array([1.0]), w=2)
        # now T routed strictly, S duplicated
        _, task = ft.assign(np.array([[4.5]]), "S")
        assert sorted(task.tolist()) == [0, 1]
        idx, task = ft.assign(np.array([[4.5], [5.5]]), "T")
        assert len(idx) == 2 and task.tolist() == [0, 1]


class TestSmallLeafCells:
    def _frozen_grid(self, r, c):
        root = TreeNode(Rect(np.array([0.0]), np.array([10.0])))
        root.r, root.c = r, c
        return FrozenTree(root, np.array([1.0]), w=r * c)

    def test_task_count(self):
        ft = self._frozen_grid(2, 3)
        assert ft.n_tasks == 6

    def test_s_copied_to_row(self):
        ft = self._frozen_grid(2, 3)
        idx, task = ft.assign(np.array([[1.0]]), "S", ids=np.array([42]))
        assert len(task) == 3
        rows = set(t // 3 for t in task.tolist())
        assert len(rows) == 1  # all cells of one row

    def test_t_copied_to_column(self):
        ft = self._frozen_grid(2, 3)
        idx, task = ft.assign(np.array([[1.0]]), "T", ids=np.array([42]))
        assert len(task) == 2
        cols = set(t % 3 for t in task.tolist())
        assert len(cols) == 1

    def test_pair_meets_in_exactly_one_cell(self):
        ft = self._frozen_grid(3, 4)
        s_ids = np.arange(50)
        t_ids = np.arange(50)
        _, st = ft.assign(np.zeros((50, 1)), "S", ids=s_ids)
        _, tt = ft.assign(np.zeros((50, 1)), "T", ids=t_ids)
        s_tasks = [set(st[i * 4 : (i + 1) * 4].tolist()) for i in range(50)]
        t_tasks = [set(tt[i * 3 : (i + 1) * 3].tolist()) for i in range(50)]
        for a in s_tasks:
            for b in t_tasks:
                assert len(a & b) == 1


class TestFrozenTree:
    def test_task_bases_contiguous(self):
        root = _tree_1d()
        root.left.r, root.left.c = 2, 2
        ft = FrozenTree(root, np.array([1.0]), w=4)
        assert ft.n_tasks == 5  # 4 cells + 1 regular leaf

    def test_schedule_length_checked(self):
        with pytest.raises(AssertionError):
            FrozenTree(_tree_1d(), np.array([1.0]), w=2, task_to_worker=np.zeros(5, np.int64))

    def test_schedule_kept(self):
        tw = lpt_schedule(np.array([3.0, 1.0]), 2)
        ft = FrozenTree(_tree_1d(), np.array([1.0]), w=2, task_to_worker=tw)
        assert ft.task_to_worker is tw
        assert ft.task_to_worker[0] != ft.task_to_worker[1]

    def test_uniform_default_schedule(self):
        root = _tree_1d()
        root.left.r, root.left.c = 2, 2
        ft = FrozenTree(root, np.array([1.0]), w=5)
        assert sorted(ft.task_to_worker.tolist()) == [0, 1, 2, 3, 4]

    def test_frozen_independent_of_original(self):
        root = _tree_1d()
        ft = FrozenTree(root, np.array([1.0]), w=2)
        root.left.to_inner(0, 2.0, "T")  # mutate original
        assert ft.n_tasks == 2  # frozen copy unchanged

    def test_1d_points_accepted(self):
        ft = FrozenTree(_tree_1d(), np.array([1.0]), w=2)
        idx, task = ft.assign(np.array([1.0, 6.0]), "S")
        assert task.tolist() == [0, 1]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), dup=st.sampled_from(["T", "S"]))
def test_property_every_pair_meets_exactly_once(seed, dup):
    """Random 2-level trees with mixed split sides and grids: every
    band-matching pair must share exactly one task."""
    rng = np.random.default_rng(seed)
    eps = np.array([rng.uniform(0.1, 1.0)])
    root = TreeNode(Rect(np.array([0.0]), np.array([10.0])))
    l, r = root.to_inner(0, rng.uniform(2, 8), dup)
    other = "S" if dup == "T" else "T"
    if rng.random() < 0.7:
        v = rng.uniform(l.rect.lo[0] + 0.1, l.rect.hi[0] - 0.1)
        l.to_inner(0, v, other)
    if rng.random() < 0.5:
        r.r, r.c = rng.integers(1, 4), rng.integers(1, 4)
    ft = FrozenTree(root, eps, w=4, seed=seed)
    S = rng.uniform(0, 10, (60, 1))
    T = rng.uniform(0, 10, (60, 1))
    assert_partitioning_correct(ft, S, T, eps)
