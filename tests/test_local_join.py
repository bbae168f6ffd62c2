"""Tests for the vectorized per-task local band-join."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import local_join
from repro.dist.local_join import band_join_count, band_join_pairs, band_join_tasks

from tests.helpers import brute_force_count, brute_force_pairs


def _rand(n, d, seed, spread=10.0):
    return np.random.default_rng(seed).random((n, d)) * spread


class TestSingleTask:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_count_matches_brute_force(self, d):
        S, T = _rand(300, d, 1), _rand(400, d, 2)
        eps = np.full(d, 0.5)
        assert band_join_count(S, T, eps) == brute_force_count(S, T, eps)

    def test_pairs_match_brute_force(self):
        S, T = _rand(200, 2, 3), _rand(200, 2, 4)
        eps = np.array([0.7, 0.7])
        ps, pt = band_join_pairs(S, T, eps)
        got = set(zip(ps.tolist(), pt.tolist()))
        want = set(map(tuple, brute_force_pairs(S, T, eps).tolist()))
        assert got == want

    def test_eps_zero_equi(self):
        vals = np.array([[1.0], [2.0], [2.0], [3.0]])
        assert band_join_count(vals, vals, np.array([0.0])) == 1 + 4 + 1

    def test_boundary_exactly_eps_included(self):
        S = np.array([[0.0]])
        T = np.array([[0.5], [0.5000001], [-0.5]])
        assert band_join_count(S, T, np.array([0.5])) == 2

    def test_empty_sides(self):
        S = np.empty((0, 2))
        T = _rand(10, 2, 5)
        assert band_join_count(S, T, np.array([1.0, 1.0])) == 0
        assert band_join_count(T, S, np.array([1.0, 1.0])) == 0

    def test_identical_points(self):
        S = np.zeros((5, 3))
        assert band_join_count(S, S, np.zeros(3)) == 25

    def test_degenerate_dim0_span(self):
        # all dim-0 values equal -> normalization span is 0
        S = np.column_stack([np.ones(50), _rand(50, 1, 6)[:, 0]])
        T = np.column_stack([np.ones(60), _rand(60, 1, 7)[:, 0]])
        eps = np.array([0.0, 1.0])
        assert band_join_count(S, T, eps) == brute_force_count(S, T, eps)

    def test_large_band_full_cross_product(self):
        S, T = _rand(40, 1, 8), _rand(50, 1, 9)
        assert band_join_count(S, T, np.array([100.0])) == 40 * 50

    def test_infinite_band_width(self):
        # the padded dim-0 window must stay infinite, not turn NaN
        S, T = _rand(40, 2, 8), _rand(50, 2, 9)
        eps = np.array([np.inf, 2.0])
        assert band_join_count(S, T, eps) == brute_force_count(S, T, eps) > 0


class TestMultiTask:
    def test_tasks_are_isolated(self):
        # same coordinates in different tasks must not join
        S = np.array([[1.0], [1.0]])
        T = np.array([[1.0], [1.0]])
        counts, total = band_join_tasks(
            np.array([0, 1]), S, np.array([1, 0]), T, np.array([0.5])
        )
        assert total == 2  # each S matches only the T in its own task
        assert counts.tolist() == [1, 1]

    def test_matches_per_task_brute_force(self):
        rng = np.random.default_rng(10)
        S, T = _rand(500, 2, 11), _rand(600, 2, 12)
        ts = rng.integers(0, 7, len(S))
        tt = rng.integers(0, 7, len(T))
        eps = np.array([0.8, 0.8])
        _, total = band_join_tasks(ts, S, tt, T, eps)
        want = sum(
            brute_force_count(S[ts == k], T[tt == k], eps) for k in range(7)
        )
        assert total == want

    def test_pairs_mode_consistent_with_counts(self):
        rng = np.random.default_rng(13)
        S, T = _rand(300, 1, 14), _rand(300, 1, 15)
        ts = rng.integers(0, 4, len(S))
        tt = rng.integers(0, 4, len(T))
        eps = np.array([0.3])
        counts, total = band_join_tasks(ts, S, tt, T, eps)
        ps, pt, total2 = band_join_tasks(ts, S, tt, T, eps, produce_pairs=True)
        assert total == total2 == len(ps) == counts.sum()
        # every produced pair shares a task and satisfies the band
        assert (ts[ps] == tt[pt]).all()
        assert (np.abs(S[ps, 0] - T[pt, 0]) <= eps[0]).all()

    def test_sparse_task_ids(self):
        # non-contiguous large task ids must still isolate correctly
        S = np.array([[5.0], [5.0]])
        T = np.array([[5.0], [5.0]])
        counts, total = band_join_tasks(
            np.array([1_000_000, 2_000_000]), S,
            np.array([2_000_000, 1_000_000]), T, np.array([1.0]),
        )
        assert total == 2

    def test_chunking_gives_same_result(self):
        S, T = _rand(400, 2, 16), _rand(400, 2, 17)
        ts = np.zeros(len(S), np.int64)
        tt = np.zeros(len(T), np.int64)
        eps = np.array([2.0, 2.0])
        _, a = band_join_tasks(ts, S, tt, T, eps, chunk_candidates=97)
        _, b = band_join_tasks(ts, S, tt, T, eps)
        assert a == b == brute_force_count(S, T, eps)


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    d=st.integers(min_value=1, max_value=3),
    eps_val=st.floats(min_value=0.0, max_value=2.0),
)
def test_property_count_equals_brute_force(data, d, eps_val):
    n_s = data.draw(st.integers(1, 40))
    n_t = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    # grid-snapped values exercise exact boundary equality |x-y| == eps
    S = np.round(rng.random((n_s, d)) * 8) / 2.0
    T = np.round(rng.random((n_t, d)) * 8) / 2.0
    eps = np.full(d, round(eps_val * 2) / 2.0)
    assert band_join_count(S, T, eps) == brute_force_count(S, T, eps)


def _per_task_brute_force(ts, S, tt, T, eps):
    """Per-S counts and every pair by brute force within each task, the
    pairs in the kernel's order: S row, then T by (A_1, row)."""
    pairs = [np.empty((0, 2), np.int64)]
    for k in np.intersect1d(ts, tt):
        si, ti = np.flatnonzero(ts == k), np.flatnonzero(tt == k)
        p = brute_force_pairs(S[si], T[ti], eps)
        pairs.append(np.column_stack([si[p[:, 0]], ti[p[:, 1]]]))
    ps, pt = np.vstack(pairs).T
    by = np.lexsort((pt, T[pt, 0], ps))
    return np.bincount(ps, minlength=len(S)), ps[by], pt[by]


def _task_points(rng, n, d, dense, cents=False):
    """Half-integer coordinates (so |x - y| == eps happens exactly), some
    negative; ``dense`` squeezes dim 0 into one band so the dim-0 windows
    hold every row of the task. ``cents`` draws two-decimal coordinates
    in [0, 3] instead, whose differences round onto a decimal eps such as
    0.7 (half-integers never round)."""
    if cents:
        pts = np.round(rng.uniform(0, 3, (n, d)), 2)
        if dense:
            pts[:, 0] = np.round(rng.uniform(0, 0.5, n), 2)
        return pts
    pts = rng.integers(-12, 13, (n, d)) / 2.0
    if dense:
        pts[:, 0] = rng.integers(0, 2, n) / 2.0
    return pts


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.sampled_from([2, 3, 8]),
    ratio=st.sampled_from([0, local_join._GRID_MIN_RATIO, 10**18]),
    chunk=st.sampled_from([97, local_join.CHUNK_CANDIDATES, 8_000_000]),
    cents=st.booleans(),
)
def test_property_both_paths_equal_brute_force(data, d, ratio, chunk, cents):
    """Counts, total and ordered pairs on the ε-grid path (ratio 0), the
    dim-0 path (huge ratio) and the default choice, over several tasks
    (one with S rows only), dense clusters, eps 0 on grid dims, and
    half-integer or two-decimal coordinates."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    n_tasks = data.draw(st.integers(1, 3))
    dense = data.draw(st.booleans())
    n_t = 1000 if dense or cents else 40
    S = np.vstack([_task_points(rng, 25, d, dense, cents) for _ in range(n_tasks + 1)])
    T = np.vstack([_task_points(rng, n_t, d, dense, cents) for _ in range(n_tasks)])
    ts = np.repeat(np.arange(n_tasks + 1), 25)
    tt = np.repeat(np.arange(n_tasks), n_t)
    # permute rows so tasks and coordinates arrive unsorted
    s_perm, t_perm = rng.permutation(len(S)), rng.permutation(len(T))
    S, ts, T, tt = S[s_perm], ts[s_perm], T[t_perm], tt[t_perm]
    widths = [0.0, 0.1, 0.7, 1.3] if cents else [0.0, 0.5, 1.0, 2.0]
    eps = np.array(data.draw(st.lists(st.sampled_from(widths), min_size=d, max_size=d)))
    want_counts, want_s, want_t = _per_task_brute_force(ts, S, tt, T, eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_join, "_GRID_MIN_RATIO", ratio)
        counts, total = band_join_tasks(ts, S, tt, T, eps, chunk_candidates=chunk)
        ps, pt, total2 = band_join_tasks(
            ts, S, tt, T, eps, produce_pairs=True, chunk_candidates=chunk
        )
    assert np.array_equal(counts, want_counts)
    assert total == total2 == len(want_s)
    assert np.array_equal(ps, want_s) and np.array_equal(pt, want_t)


@pytest.mark.parametrize("seed", [24, 25])
def test_grid_path_keeps_pairs_the_filter_rounds_onto_eps(seed):
    """The exact filter passes some T rows below fl(s - eps) (e.g. s=0.7,
    t=-1e-17, eps=0.7); the grid cells must still reach them. Two-decimal
    coordinates around 0 make such pairs common."""
    rng = np.random.default_rng(seed)
    S = np.column_stack([np.zeros(300), np.round(rng.uniform(-2, 2, (300, 2)), 2)])
    T = np.column_stack([np.zeros(300), np.round(rng.uniform(-2, 2, (300, 2)), 2)])
    S[0, 1:], T[0, 1:] = (0.7, 0.0), (-1e-17, 0.0)
    eps = np.array([1.0, 0.7, 0.3])
    want_counts, want_s, want_t = _per_task_brute_force(
        np.zeros(300, int), S, np.zeros(300, int), T, eps
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_join, "_GRID_MIN_RATIO", 0)
        counts, _ = band_join_tasks(np.zeros(300, int), S, np.zeros(300, int), T, eps)
        ps, pt = band_join_pairs(S, T, eps)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(ps, want_s) and np.array_equal(pt, want_t)


@pytest.mark.parametrize("eps0, want", [(0.7, 1_651_657), (0.1, 261_146)])
@pytest.mark.parametrize("ratio", [0, 10**18], ids=["grid", "dim0"])
def test_dim0_window_keeps_pairs_the_filter_rounds_onto_eps(eps0, want, ratio):
    """fl(s - t) can round onto eps while t lies beyond fl(s -+ eps), so
    an unpadded dim-0 window drops pairs its own filter accepts (it
    counted 1,650,825 and 261,092 here). Two-decimal values in [0, 3];
    d=1 takes the dim-0 path, and a constant second dim with a finite
    eps lets the grid path, whose cells keep the dim-0 window, run too."""
    rng = np.random.default_rng(0)
    vals = [np.round(rng.uniform(0, 3, 2000), 2) for _ in "ST"]
    for S, T, eps in [
        (vals[0][:, None], vals[1][:, None], np.array([eps0])),
        (np.column_stack([vals[0], np.zeros(2000)]),
         np.column_stack([vals[1], np.zeros(2000)]), np.array([eps0, 1.0])),
    ]:
        zs, zt = np.zeros(2000, int), np.zeros(2000, int)
        want_counts, want_s, want_t = _per_task_brute_force(zs, S, zt, T, eps)
        assert len(want_s) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local_join, "_GRID_MIN_RATIO", ratio)
            counts, total = band_join_tasks(zs, S, zt, T, eps)
            ps, pt = band_join_pairs(S, T, eps)
        assert total == want and np.array_equal(counts, want_counts)
        assert np.array_equal(ps, want_s) and np.array_equal(pt, want_t)


@pytest.mark.parametrize("d, ratio", [(1, 10**18), (3, 10**18), (3, 0)], ids=["d1", "d3-dim0", "d3-grid"])
def test_dense_call_filters_in_small_chunks(d, ratio):
    """A 3,000 x 3,000 single-task call in which every pair joins: 9M
    candidates on either path. Expanding and filtering them a chunk at a
    time keeps the traced peak far below one candidate array (72 MB)."""
    rng = np.random.default_rng(30)
    S, T = rng.random((3000, d)), rng.random((3000, d))
    zs, zt = np.zeros(3000, int), np.zeros(3000, int)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_join, "_GRID_MIN_RATIO", ratio)
        tracemalloc.start()
        try:
            counts, total = band_join_tasks(zs, S, zt, T, np.ones(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert total == 9_000_000 and (counts == 3000).all()
    assert peak < 16 * 2**20


class TestPathChoice:
    @pytest.fixture
    def grid_calls(self, monkeypatch):
        calls = []
        real = local_join._grid_windows

        def spy(*args):
            calls.append(args[5])  # the grid dims
            return real(*args)

        monkeypatch.setattr(local_join, "_grid_windows", spy)
        return calls

    def test_dense_cluster_takes_grid_path(self, grid_calls):
        rng = np.random.default_rng(20)
        S, T = _task_points(rng, 30, 3, True), _task_points(rng, 600, 3, True)
        eps = np.array([1.0, 0.5, 0.5])
        counts, total = band_join_tasks(np.zeros(30, int), S, np.zeros(600, int), T, eps)
        assert grid_calls == [[1, 2]]
        assert total == brute_force_count(S, T, eps)

    def test_sparse_input_takes_dim0_path(self, grid_calls):
        S, T = _rand(300, 3, 21), _rand(400, 3, 22)
        eps = np.full(3, 0.5)
        assert band_join_count(S, T, eps) == brute_force_count(S, T, eps)
        assert grid_calls == []

    def test_grid_skips_dims_with_zero_eps(self, grid_calls):
        rng = np.random.default_rng(23)
        S, T = _task_points(rng, 30, 3, True), _task_points(rng, 600, 3, True)
        eps = np.array([1.0, 0.0, 0.5])
        assert band_join_count(S, T, eps) == brute_force_count(S, T, eps)
        assert grid_calls == [[2]]
        eps[2] = 0.0  # no grid dim left: dim-0 path however wide
        assert band_join_count(S, T, eps) == brute_force_count(S, T, eps)
        assert grid_calls == [[2]]
