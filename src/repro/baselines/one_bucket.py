"""1-Bucket (Okcan & Riedewald, SIGMOD 2011): randomized matrix cover.

Covers the entire join matrix S x T with an r x c grid of regions,
r * c <= w, one region per worker. Each S-tuple is assigned to a uniform
random row and therefore shipped to all c regions of that row; each
T-tuple to a random column (r regions). Every (s, t) pair meets in
exactly one region (row x column intersection), so any theta-join —
including any band-join — is computed correctly with near-perfect load
balance but ~sqrt(w)-fold input duplication: I = c*|S| + r*|T|
(e.g. the paper's Table 2a: w=30 -> r=5, c=6 -> I = 2200M for 400M
input). The cover ignores the join condition entirely, which is why its
numbers are identical across join dimensionalities in the paper.
"""
from __future__ import annotations

import numpy as np

from ..dist.partitioning import Partitioning, matrix_cells


def choose_grid(n_s: int, n_t: int, w: int) -> tuple[int, int]:
    """Pick (r, c), r*c <= w, minimizing the per-region input
    n_s/r + n_t/c (the paper's square-ish cover; for |S| = |T| this gives
    r, c ~ sqrt(w))."""
    best = (1, 1)
    best_cost = float("inf")
    for r in range(1, w + 1):
        c = w // r
        if c < 1:
            break
        cost = n_s / r + n_t / c
        # prefer lower cost; tie-break toward using more of the cluster
        if cost < best_cost - 1e-12 or (
            abs(cost - best_cost) <= 1e-12 and r * c > best[0] * best[1]
        ):
            best, best_cost = (r, c), cost
    return best


class OneBucketPartitioning(Partitioning):
    """r x c randomized cover; task (i, j) = cell i*c + j, one per worker."""

    def __init__(self, n_s: int, n_t: int, w: int, seed: int = 0):
        self.r, self.c = choose_grid(n_s, n_t, w)
        self.w = int(w)
        self.seed = int(seed)
        self.n_tasks = self.r * self.c
        # r*c <= w: each region is its own worker
        self.task_to_worker = np.arange(self.n_tasks, dtype=np.int64)

    def assign(self, points, side, ids=None):
        if ids is None:
            ids = np.arange(len(points), dtype=np.int64)
        return matrix_cells(ids, side, self.r, self.c, self.seed)
