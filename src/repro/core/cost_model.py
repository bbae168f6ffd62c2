"""Abstract running-time model M(I, I_m, O_m) of Li et al. [24].

The paper estimates join time with the piecewise-linear model
``M(I, I_m, O_m) = b0 + b1*I + b2*I_m + b3*O_m`` whose coefficients are
fit by linear regression on a small benchmark of profiled runs
(Section 2 / Section 6.1). Two facts from the paper anchor defaults:

* profiling on their EMR cluster gave ``b2 / b3 ~= 4`` (an input tuple
  on the most loaded worker costs ~4x an output tuple), and
* Table 13 normalizes ``b1 = 1`` and sweeps ``b2`` to study the
  shuffle-vs-local-compute tradeoff.

``CostModel()`` uses those relative weights (b1=1, b2=4, b3=1) with
``unit=1e-6`` seconds per weighted tuple; the absolute scale only
affects reported seconds, never which method wins. :func:`fit` regresses
all four coefficients on measured runs (used by
``jobs/table12_model_accuracy.py``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostModel:
    """Join-time estimate in seconds from (I, I_m, O_m) in tuples."""

    b0: float = 0.0
    b1: float = 1.0   # per-tuple weight of total shuffled input I
    b2: float = 4.0   # per-tuple weight of input on the most loaded worker
    b3: float = 1.0   # per-tuple weight of output on the most loaded worker
    unit: float = 1e-6  # seconds per weighted tuple (absolute scale)

    def __post_init__(self):
        # a negative cost per tuple is non-physical, and RecPart's bounds
        # on split scores assume loads grow with the tuples counted
        if not all(b >= 0 for b in (self.b1, self.b2, self.b3)):
            raise ValueError(
                f"cost coefficients b1, b2, b3 must be >= 0, got {self.b1}, {self.b2}, {self.b3}"
            )

    def predict(self, I: float, I_m: float, O_m: float) -> float:
        return self.b0 + self.unit * (self.b1 * I + self.b2 * I_m + self.b3 * O_m)

    def with_ratio(self, b2_over_b1: float) -> "CostModel":
        """Table 8/13 sweep: fix b1, scale the local-cost block
        ``b2*(4*I_m + O_m)`` by the requested ratio (b2/b3 stays 4)."""
        return CostModel(
            b0=self.b0,
            b1=1.0,
            b2=4.0 * b2_over_b1,
            b3=1.0 * b2_over_b1,
            unit=self.unit,
        )


def fit(rows: np.ndarray, times: np.ndarray) -> CostModel:
    """Least-squares fit of (b0, b1, b2, b3) from measured runs.

    ``rows`` is (n, 3) of (I, I_m, O_m) in tuples, ``times`` in seconds.
    b1, b2, b3 are constrained to >= 0 (a negative cost per tuple is
    non-physical noise); the intercept is free, since fixed job overhead
    is real. The constrained optimum is the plain least-squares fit on
    the subset of (I, I_m, O_m) whose coefficients it leaves positive, so
    every subset is fitted and the best feasible one kept. Clipping the
    unconstrained fit instead would keep an intercept and slopes tuned
    to the negative coefficient it drops. The result is re-normalized so
    b3 = 1 with the absolute scale moved into ``unit``, matching how the
    paper reports b2/b3.
    """
    A = np.column_stack([np.ones(len(rows)), rows])
    best, coef = np.inf, np.zeros(4)
    for keep in itertools.product((False, True), repeat=3):
        cols = np.flatnonzero([True, *keep])
        c, *_ = np.linalg.lstsq(A[:, cols], times, rcond=None)
        sse = float(np.sum((A[:, cols] @ c - times) ** 2))
        if np.all(c[1:] >= 0) and sse < best:
            best, coef = sse, np.zeros(4)
            coef[cols] = c
    b0 = float(coef[0])
    b1, b2, b3 = coef[1:]
    if b3 <= 0:
        b3 = max(b2 / 4.0, 1e-12)
    return CostModel(b0=b0, b1=float(b1 / b3), b2=float(b2 / b3), b3=1.0, unit=float(b3))
