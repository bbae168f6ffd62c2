"""Split tree: the recursive partitioning structure of RecPart.

A path from the root to a leaf defines a rectangular partition of the
join-attribute space as the conjunction of the split predicates along
the path (paper Figure 7). Inner nodes carry ``(dim, value, dup_side)``:

* ``dup_side == 'T'`` is a *T-split* (paper default): S is partitioned
  without duplication (``s.A_dim < value`` goes left), while T-tuples
  within band width of the boundary are copied to both children
  (:func:`split_bounds`).
* ``dup_side == 'S'`` is the symmetric *S-split* (Section 4.2 extension).

Leaves may be in "small" 1-Bucket mode with an internal r x c matrix
grid: an S-tuple is hashed to a row (and copied to the row's c cells), a
T-tuple to a column (r cells), so every joining pair shares exactly one
cell. Regular leaves are the degenerate r = c = 1 case.

For every result pair (s, t) exactly one leaf cell receives both tuples:
at a T-split, s goes to exactly one child and (as the boundary's band
bounds hold the reach of every s on its side) t is always copied to
that child too; symmetric for S-splits; inside a leaf, row x column
intersect in one cell. This is the paper's
no-duplicate-output guarantee and is property-tested in the test suite.
"""
from __future__ import annotations

import numpy as np

from ..dist.partitioning import Partitioning, lpt_schedule, matrix_cells
from .geometry import Rect, band_bounds


def split_bounds(value, e):
    """``(hi, lo)`` of a split at ``value`` (scalars or arrays) of band
    width ``e``: a duplicated tuple goes left iff ``x <= hi``, the upper
    :func:`band_bounds` of the largest float below ``value`` (the left
    child's farthest-reaching value), and right iff ``x >= lo(value)``."""
    return band_bounds(np.nextafter(value, -np.inf), e)[1], band_bounds(value, e)[0]


def split_masks(x: np.ndarray, value: float, bounds, dup: bool):
    """``(left, right)`` masks of ``x`` at a split at ``value``: by
    ``bounds`` (:func:`split_bounds`) on the duplicated side, else
    ``x < value`` goes left and the rest right."""
    if not dup:
        left = x < value
        return left, ~left
    return x <= bounds[0], x >= bounds[1]


class TreeNode:
    """Mutable split-tree node. A node is a leaf iff ``left is None``.

    Leaves own optimizer sample state (attached by RecPart, not used for
    routing) plus the 1-Bucket grid shape ``(r, c)``.
    """

    __slots__ = (
        "rect", "dim", "value", "dup_side", "left", "right",
        "r", "c", "task_base", "payload", "bounds",
    )

    def __init__(self, rect: Rect):
        self.rect = rect
        self.dim = -1
        self.value = 0.0
        self.dup_side = ""
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None
        self.r = 1
        self.c = 1
        self.task_base = -1
        self.payload = None  # optimizer-owned leaf state
        self.bounds = None  # an inner node's split_bounds, set by FrozenTree

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_inner(self, dim: int, value: float, dup_side: str) -> tuple["TreeNode", "TreeNode"]:
        """Turn this leaf into an inner node with two fresh leaf children."""
        assert self.is_leaf
        lrect, rrect = self.rect.split(dim, value)
        self.dim, self.value, self.dup_side = dim, value, dup_side
        self.left, self.right = TreeNode(lrect), TreeNode(rrect)
        self.payload = None
        return self.left, self.right

    def leaves(self) -> list["TreeNode"]:
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()

    def clone(self) -> "TreeNode":
        """Structural deep copy (drops optimizer payloads)."""
        n = TreeNode(self.rect)
        n.r, n.c = self.r, self.c
        if not self.is_leaf:
            n.dim, n.value, n.dup_side = self.dim, self.value, self.dup_side
            n.left, n.right = self.left.clone(), self.right.clone()
        return n


class FrozenTree(Partitioning):
    """Immutable split tree acting as a :class:`Partitioning`.

    Task ids are assigned in leaf order: each leaf gets a contiguous
    block of ``r * c`` cell tasks. ``task_to_worker`` is the optimizer's
    LPT schedule of its per-cell load estimates — our stand-in for the
    paper's cluster scheduler — or LPT over uniform loads if absent.
    """

    def __init__(
        self,
        root: TreeNode,
        eps: np.ndarray,
        w: int,
        seed: int = 0,
        task_to_worker: np.ndarray | None = None,
    ):
        self.root = root.clone()
        self.eps = np.asarray(eps, dtype=float)
        self.w = int(w)
        self.seed = int(seed)
        base = 0
        self._leaves = self.root.leaves()
        for leaf in self._leaves:
            leaf.task_base = base
            base += leaf.r * leaf.c
        self.n_tasks = base
        if task_to_worker is None:
            task_to_worker = lpt_schedule(np.ones(self.n_tasks), self.w)
        assert len(task_to_worker) == self.n_tasks, (len(task_to_worker), self.n_tasks)
        self.task_to_worker = task_to_worker

    def _set_bounds(self) -> None:
        """Pads every split at once, on the first assign: RecPart freezes trees it never routes."""
        nodes = [self.root]
        for node in nodes:  # breadth first: the loop visits what it appends
            if not node.is_leaf:
                nodes += [node.left, node.right]
        inner = [n for n in nodes if not n.is_leaf]
        his, los = split_bounds(*np.array([(n.value, self.eps[n.dim]) for n in inner]).T)
        for node, hi, lo in zip(inner, his.tolist(), los.tolist()):
            node.bounds = (hi, lo)

    # -- Algorithm 3 (vectorized): route tuples down the tree ------------
    def assign(self, points, side, ids=None):
        if not self.root.is_leaf and self.root.bounds is None:
            self._set_bounds()
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        n = len(points)
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        out_idx: list[np.ndarray] = []
        out_task: list[np.ndarray] = []
        stack: list[tuple[TreeNode, np.ndarray]] = [(self.root, np.arange(n, dtype=np.int64))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if node.is_leaf:
                r, c = node.r, node.c
                if r == 1 and c == 1:
                    out_idx.append(idx)
                    out_task.append(np.full(len(idx), node.task_base, dtype=np.int64))
                else:
                    k, cells = matrix_cells(ids[idx], side, r, c, self.seed + node.task_base)
                    out_idx.append(idx[k])
                    out_task.append(node.task_base + cells)
                continue
            left, right = split_masks(
                points[idx, node.dim], node.value, node.bounds, side == node.dup_side
            )
            stack.append((node.left, idx[left]))
            stack.append((node.right, idx[right]))
        if not out_idx:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        idx = np.concatenate(out_idx)
        task = np.concatenate(out_task)
        order = np.argsort(idx, kind="stable")  # deterministic row order
        return idx[order], task[order]

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)
