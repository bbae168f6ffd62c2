"""Hyper-rectangles over the join-attribute space.

A partition region is a half-open box ``[lo, hi)`` in the d-dimensional
space ``A_1 x ... x A_d``. Half-open boxes make recursive splits exact:
splitting ``[lo, hi)`` at ``v`` on dim ``i`` yields ``[lo, v)`` and
``[v, hi)`` with no point in both and none lost.

The eps-range around a tuple ``t`` is the *closed* box
``[t - eps, t + eps]`` (paper Section 2); a T-tuple must be copied to
every child region its eps-range intersects (:func:`band_bounds`).
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


def band_bounds(a, e) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``(lo, hi)`` holding every ``t`` that the local join's
    exact filter ``fl(|a - t|) <= e`` accepts: ``fl(a -+ e)``, or the
    float inside it where that rounded past the band, unless the float
    beyond still joins. The filter's slack, half an ulp of ``e``, then
    spans finer ulps (``a = 0.7, t = -1e-17`` join at ``e = 0.7``, yet
    ``fl(a - e) = 0``), and ``fl(a -+ e)`` moves out by four ulps of
    ``max(|a|, e)``, capped at the ulp of 2^1023 so that an infinite
    ``e`` gives infinite bounds. Rounding is monotone, so the bounds of
    a boundary hold the reach of every value on its side."""
    lo, hi = np.asarray(a - e), np.asarray(a + e)
    _snap(lo, a, e, -1)
    _snap(hi, a, e, 1)
    return lo, hi


def _snap(b, a, e, s: int) -> None:
    """Move ``b = fl(a + s*e)`` (``s`` = -1 for the lower bound, +1 for
    the upper) onto :func:`band_bounds`' value, in place, computing each
    correction only on the elements that need it. The float beyond a
    bound can join only where ``|b| / 4 < max(e, 2^-1020)``: elsewhere the
    floats around ``b`` are at least twice as far apart as those above
    ``e``, so the float beyond lies past the filter's half-ulp slack."""
    np.nextafter(b, -s * np.inf, out=b, where=~(np.abs(b - a) <= e))
    near = ~(0.25 * np.abs(b) >= np.maximum(e, 2.0**-1020))
    if not near.any():
        return
    i = np.flatnonzero(near)
    ai, ei = (np.broadcast_to(x, b.shape).flat[i] for x in (a, e))
    bi = b.flat[i]
    pad = 4 * np.spacing(np.minimum(np.maximum(np.abs(ai), ei), 2.0**1023))
    beyond_joins = np.abs(np.nextafter(bi, s * np.inf) - ai) <= ei
    b.flat[i] = np.where(beyond_joins, (ai + s * ei) + s * pad, bi)


def check_relation(pts, name: str) -> np.ndarray:
    """Relation ``name`` as a float array of shape (n, d); a 1-D relation
    has one join attribute, so (n,) becomes (n, 1). Raises
    ``ValueError`` naming the relation unless it is a 1-D or 2-D array
    with at least one tuple and every coordinate finite. A NaN or
    infinite coordinate lies in no region (a NaN T-tuple would be
    shipped to no task), and sizing statistics on an empty relation
    divides by zero."""
    a = np.asarray(pts, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError(f"relation {name} must be a 1-D or 2-D array, got {a.ndim} dimensions")
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        raise ValueError(f"relation {name} is empty")
    bad = ~np.isfinite(a).all(axis=1)
    if bad.any():
        raise ValueError(
            f"relation {name} has a NaN or infinite coordinate in row {int(np.argmax(bad))}"
        )
    return a


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
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: point inside ``[lo, hi)``."""
        return np.all((pts >= self.lo) & (pts < self.hi), axis=1)

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
