"""Hyper-rectangles over the join-attribute space.

A partition region is a half-open box ``[lo, hi)`` in the d-dimensional
space ``A_1 x ... x A_d``. Half-open boxes make recursive splits exact:
splitting ``[lo, hi)`` at ``v`` on dim ``i`` yields ``[lo, v)`` and
``[v, hi)`` with no point in both and none lost.

The eps-range around a tuple ``t`` is the *closed* box
``[t - eps, t + eps]`` (paper Section 2); a T-tuple must be copied to
every child region its eps-range intersects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def band_widths(eps, d: int) -> np.ndarray:
    """``eps`` as a float array of shape ``(d,)``: one band width per join
    attribute. Raises ``ValueError`` unless it has exactly ``d`` entries,
    none NaN or negative (a zero width is an equi-join on that attribute)."""
    e = np.asarray(eps, dtype=float)
    if e.shape != (d,):
        raise ValueError(f"eps needs one band width per dimension (d={d}), got shape {e.shape}")
    if np.isnan(e).any() or (e < 0).any():
        raise ValueError(f"band widths must be >= 0 and not NaN, got {e.tolist()}")
    return e


def check_relation(pts, name: str) -> None:
    """Raises ``ValueError`` naming relation ``name`` unless it has at
    least one tuple and every coordinate is finite. A NaN or infinite
    coordinate lies in no region (a NaN T-tuple would be shipped to no
    task), and sizing statistics on an empty relation divides by zero."""
    a = np.asarray(pts, dtype=float)
    if a.size == 0:
        raise ValueError(f"relation {name} is empty")
    bad = ~np.isfinite(a.reshape(len(a), -1)).all(axis=1)
    if bad.any():
        raise ValueError(
            f"relation {name} has a NaN or infinite coordinate in row {int(np.argmax(bad))}"
        )


@dataclass(frozen=True)
class Rect:
    """Half-open box ``[lo, hi)``; ``lo``/``hi`` are float arrays of shape (d,)."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def bounding(*point_sets: np.ndarray, pad: float = 1.0) -> "Rect":
        """Smallest box containing all points in all sets, padded so the
        max coordinate is strictly inside the half-open box."""
        stacked = np.vstack([p for p in point_sets if len(p)])
        lo = stacked.min(axis=0).astype(float)
        hi = stacked.max(axis=0).astype(float) + pad
        return Rect(lo, hi)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: point inside ``[lo, hi)``."""
        return np.all((pts >= self.lo) & (pts < self.hi), axis=1)

    def intersects_eps_range(self, pts: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Mask of points whose closed eps-range ``[p-eps, p+eps]``
        intersects this half-open box."""
        return np.all((pts + eps >= self.lo) & (pts - eps < self.hi), axis=1)

    def split(self, dim: int, value: float) -> tuple["Rect", "Rect"]:
        """Split at ``value`` on ``dim``; value must lie strictly inside."""
        if not (self.lo[dim] < value < self.hi[dim]):
            raise ValueError(
                f"split value {value} outside ({self.lo[dim]}, {self.hi[dim]}) on dim {dim}"
            )
        left_hi = self.hi.copy()
        left_hi[dim] = value
        right_lo = self.lo.copy()
        right_lo[dim] = value
        return Rect(self.lo, left_hi), Rect(right_lo, self.hi)

    def small_dims(self, eps: np.ndarray) -> np.ndarray:
        """Paper Section 4.2: a partition is "small" in dim i as soon as its
        side length is <= twice the band width in that dimension. A zero
        band width never makes a dimension small (Grid-eps is likewise
        undefined at eps=0)."""
        return (self.sides <= 2.0 * eps) & (eps > 0)

    def is_small(self, eps: np.ndarray) -> bool:
        return bool(np.all(self.small_dims(eps)))
