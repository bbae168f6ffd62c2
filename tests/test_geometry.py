"""Unit tests for the hyper-rectangle primitives."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect, band_bounds


@pytest.fixture
def unit3() -> Rect:
    return Rect(np.zeros(3), np.ones(3))


class TestBounding:
    def test_contains_all_points(self):
        pts = np.random.default_rng(0).random((100, 2)) * 10
        r = Rect.bounding(pts)
        assert r.contains(pts).all()

    def test_multiple_sets(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[5.0, -3.0]])
        r = Rect.bounding(a, b)
        assert r.contains(a).all() and r.contains(b).all()

    def test_max_point_strictly_inside(self):
        pts = np.array([[1.0], [7.0]])
        r = Rect.bounding(pts)
        assert r.hi[0] > 7.0

    def test_skips_empty_sets(self):
        pts = np.array([[1.0, 2.0]])
        r = Rect.bounding(np.empty((0, 2)), pts)
        assert r.contains(pts).all()


class TestContains:
    def test_half_open(self, unit3):
        assert unit3.contains(np.zeros((1, 3))).all()       # lo inclusive
        assert not unit3.contains(np.ones((1, 3))).any()    # hi exclusive

    def test_outside(self, unit3):
        assert not unit3.contains(np.array([[0.5, 0.5, 1.5]])).any()

    def test_inside(self, unit3):
        assert unit3.contains(np.array([[0.5, 0.2, 0.9]])).all()


def _accepts(s, t, e):
    """The local join's exact filter."""
    return np.abs(np.asarray(s) - np.asarray(t)) <= e


def _neighbours(x, k=8):
    """``x`` and its k float neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


class TestBandBounds:
    def test_holds_a_pair_beyond_the_unpadded_bound(self):
        # fl(0.7 - 0.7) = 0, yet t = -1e-17 joins a = 0.7 at e = 0.7
        assert _accepts(0.7, -1e-17, 0.7)
        lo, hi = band_bounds(0.7, 0.7)
        assert lo <= -1e-17 and hi >= 1.4

    @pytest.mark.parametrize("a, e", [
        (0.7, 0.7), (0.006369616873214543, 0.7), (-1.9037257264406253, 2.5),
        (1e6, 1e-3), (-3.0, 0.0), (123.45, 0.1), (1e-300, 1.0), (5.0, 1.0),
    ])
    def test_holds_every_accepted_neighbour(self, a, e):
        lo, hi = band_bounds(a, e)
        for t in np.concatenate([_neighbours(a - e), _neighbours(a + e)]):
            if _accepts(a, t, e):
                assert lo <= t <= hi, t

    def test_exact_where_the_filter_slack_is_under_one_float(self):
        # |a| >= e keeps the ulps of a -+ e at least those of e: the
        # bounds are then the least and greatest t the filter accepts
        rng = np.random.default_rng(0)
        a = np.round(rng.uniform(1, 100, 300), 2)
        e = np.round(rng.uniform(0, 1, 300), 1)
        lo, hi = band_bounds(a, e)
        for k in range(len(a)):
            ok = [t for t in np.concatenate([_neighbours(a[k] - e[k]), _neighbours(a[k] + e[k])])
                  if _accepts(a[k], t, e[k])]
            assert (lo[k], hi[k]) == (min(ok), max(ok)), (a[k], e[k])

    def test_integer_band_is_exact(self):
        assert band_bounds(4.0, 1.0) == (3.0, 5.0)
        assert band_bounds(1.0, 0.0) == (1.0, 1.0)

    def test_boundary_bounds_every_value_below_it(self):
        # the split-tree case: s < v, and t joins s, so t joins the
        # largest float below v and is at most its upper bound
        s, t, e = 0.006369616873214543, 0.7063696168732145, 0.7
        v = 0.006369616873214561
        assert s < v and _accepts(s, t, e)
        assert t <= band_bounds(np.nextafter(v, -np.inf), e)[1]
        # and the mirror: t < v <= s' joins only t >= lo(v)
        assert band_bounds(t, e)[0] <= s

    def test_broadcasts_per_dimension(self):
        pts = np.array([[0.0, 10.0], [1.0, -10.0]])
        lo, hi = band_bounds(pts, np.array([0.5, 2.0]))
        assert lo.shape == hi.shape == (2, 2)
        for i, j in np.ndindex(2, 2):
            assert (lo[i, j], hi[i, j]) == band_bounds(pts[i, j], [0.5, 2.0][j])
        # t = 0.5 - 2^-54 joins a = 1 at e = 0.5 (fl(1 - t) = 0.5)
        assert lo[1, 0] < np.nextafter(0.5, 0) < 0.5 == pts[1, 0] - 0.5

    def test_infinite_band_width_gives_infinite_bounds(self):
        lo, hi = band_bounds(np.array([-1.0, 1.0]), np.inf)
        assert lo.tolist() == [-np.inf, -np.inf] and hi.tolist() == [np.inf, np.inf]


def _all_branch_band_bounds(a, e):
    """``band_bounds`` as first written, every correction evaluated on
    every element: the reference the per-element corrections must match
    bit for bit."""
    lo, hi = a - e, a + e
    lo = np.where(np.abs(a - lo) <= e, lo, np.nextafter(lo, np.inf))
    hi = np.where(np.abs(hi - a) <= e, hi, np.nextafter(hi, -np.inf))
    pad = 4 * np.spacing(np.minimum(np.maximum(np.abs(a), e), 2.0**1023))
    lo = np.where(np.abs(a - np.nextafter(lo, -np.inf)) <= e, (a - e) - pad, lo)
    hi = np.where(np.abs(np.nextafter(hi, np.inf) - a) <= e, (a + e) + pad, hi)
    return lo, hi


_WIDTHS = st.one_of(
    st.floats(0.0, 1e300),
    st.sampled_from([0.0, np.inf, 0.1, 0.7, 2.5, 1e-3, 5e-324, 2.0**-1022, 2.0**-1020]),
)


@st.composite
def _values(draw, e: float):
    """A value for band width ``e``: any float, or one a few ulps from a
    power-of-two multiple of ``e`` (where ``fl(a -+ e)`` lands near zero
    or a binade edge), or ``s -+ e`` nudged by ulps as in the
    ``ulps_around_eps`` case of ``test_definition1``."""
    kind = draw(st.sampled_from(["any", "multiple", "ulps_around_eps"]))
    if kind == "any" or not 0 < e < 1e290:
        return draw(st.floats(-1e300, 1e300))
    if kind == "multiple":
        x = e * draw(st.sampled_from([1, -1, 1.5, -1.5])) * 2.0 ** draw(st.integers(-3, 3))
    else:
        s = draw(st.floats(-3, 3)) * draw(st.sampled_from([1e-6, 1.0, 1e3]))
        x = s + draw(st.sampled_from([-1, 1])) * e
    for _ in range(draw(st.integers(0, 3))):
        x = np.nextafter(x, draw(st.sampled_from([-np.inf, np.inf])))
    return float(x)


@st.composite
def _band_inputs(draw):
    e = np.array([draw(_WIDTHS), draw(_WIDTHS)])
    rows = draw(st.integers(1, 8))
    a = np.array([[draw(_values(e[j])) for j in range(2)] for _ in range(rows)])
    return a, e


class TestBandBoundsReference:
    @settings(max_examples=400, deadline=None)
    @given(_band_inputs())
    def test_bit_identical_to_the_all_branch_formula(self, inputs):
        a, e = inputs
        bits = [np.asarray(b).view(np.int64) for b in band_bounds(a, e)]
        want = [b.view(np.int64) for b in _all_branch_band_bounds(a, e)]
        assert all(np.array_equal(g, w) for g, w in zip(bits, want))
        # and elementwise, as the split tree calls it on one value
        got = band_bounds(float(a[0, 0]), float(e[0]))
        want = _all_branch_band_bounds(float(a[0, 0]), float(e[0]))
        assert [np.float64(x).view(np.int64) for x in got] == [
            np.float64(x).view(np.int64) for x in want
        ]


class TestSplit:
    def test_partitions_exactly(self, unit3):
        left, right = unit3.split(1, 0.4)
        pts = np.random.default_rng(1).random((200, 3))
        in_l = left.contains(pts)
        in_r = right.contains(pts)
        assert (in_l ^ in_r).all()

    def test_boundary_goes_right(self, unit3):
        left, right = unit3.split(0, 0.5)
        p = np.array([[0.5, 0.1, 0.1]])
        assert right.contains(p).all() and not left.contains(p).any()

    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, 2.0])
    def test_rejects_value_outside(self, unit3, value):
        with pytest.raises(ValueError):
            unit3.split(0, value)


class TestSmall:
    def test_small_when_sides_below_2eps(self):
        r = Rect(np.zeros(2), np.array([1.0, 1.0]))
        assert r.is_small(np.array([0.6, 0.6]))
        assert not r.is_small(np.array([0.4, 0.6]))

    def test_zero_eps_never_small(self):
        r = Rect(np.zeros(2), np.array([1e-12, 1e-12]))
        assert not r.is_small(np.zeros(2))
        assert not r.small_dims(np.zeros(2)).any()

    def test_small_dims_per_dimension(self):
        r = Rect(np.zeros(3), np.array([1.0, 10.0, 1.0]))
        sd = r.small_dims(np.array([0.6, 0.6, 0.0]))
        assert sd.tolist() == [True, False, False]

    def test_sides(self):
        r = Rect(np.array([1.0, 2.0]), np.array([4.0, 10.0]))
        assert r.sides.tolist() == [3.0, 8.0]
