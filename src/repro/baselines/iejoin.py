"""Distributed IEJoin partitioning (Khayyat et al., VLDBJ 2017; paper §6.6/A.1).

Distributed IEJoin sorts each input on one join attribute (A_1) and
range-partitions it into blocks of ``sizePerBlock`` rows using
approximate quantiles. Every pair of *joinable* blocks — blocks whose
A_1-intervals are within the band width — becomes a task assigned to one
of the w workers; a block is shipped to every worker that owns at least
one of its pairs. This is the "direct quantile partitioning" the paper
contrasts with covering-based methods: block boundaries cut through
dense regions and blocks belonging to many joinable pairs are duplicated
to many workers, so input duplication is high and quite sensitive to the
sizePerBlock meta-parameter (paper Tables 7/11).

Blocks are CS_IO's A_1 stripes (:class:`StripePartitioning`) with one
task per joinable cell. Local joins run per block pair, so each output
pair is produced exactly once (its (S-block, T-block) pair is a single
task). The outer block bounds are ±inf, so each side's blocks tile the
real line and every block is joinable with at least one block of the
other side: every tuple is shipped (Definition 1).
"""
from __future__ import annotations

import numpy as np

from ..core.sampling import Samples, draw_samples
from .csio import StripePartitioning, stripe_stats


class IEJoinPartitioning(StripePartitioning):
    def __init__(
        self,
        S_pts: np.ndarray,
        T_pts: np.ndarray,
        eps,
        w: int,
        size_per_block: int,
        beta2: float = 4.0,
        beta3: float = 1.0,
        samples: Samples | None = None,
        seed: int = 0,
    ):
        eps = np.asarray(eps, dtype=float)
        n_s, n_t = len(S_pts), len(T_pts)
        if samples is None:
            samples = draw_samples(
                np.asarray(S_pts, float), np.asarray(T_pts, float), eps, seed=seed
            )
        nb_s = max(1, int(np.ceil(n_s / size_per_block)))
        nb_t = max(1, int(np.ceil(n_t / size_per_block)))
        bnd_s = np.unique(
            np.quantile(samples.s_pts[:, 0], np.arange(1, nb_s) / nb_s)
        ) if nb_s > 1 else np.empty(0)
        bnd_t = np.unique(
            np.quantile(samples.t_pts[:, 0], np.arange(1, nb_t) / nb_t)
        ) if nb_t > 1 else np.empty(0)
        joinable, s_cnt, t_cnt, o_cells = stripe_stats(bnd_s, bnd_t, eps[0], samples)
        pairs = np.argwhere(joinable)  # task k = (S block, T block) pairs[k]
        bs, bt = pairs[:, 0], pairs[:, 1]
        loads = beta2 * (s_cnt[bs] + t_cnt[bt]) + beta3 * o_cells[bs, bt]
        super().__init__(bnd_s, bnd_t, pairs, np.arange(len(pairs)), loads, w)
