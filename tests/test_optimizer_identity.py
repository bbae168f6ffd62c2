"""The bulk optimizer searches against the per-candidate loops they replace.

RecPart scores a leaf's candidate splits in one array pass (with a
bounding round on large leaves) and CS_IO packs its cover from cached
strip data. Both must choose exactly what a plain loop chooses: the
loops are kept here as references, and fixed-seed runs are pinned to
digests of the split sequence, schedule and history.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.csio import StripCover, build_csio
from repro.core import recpart as rp
from repro.core import split_tree
from repro.core.cost_model import CostModel
from repro.core.geometry import Rect
from repro.core.sampling import Samples
from repro.synth_data import pareto_points


# -- RecPart: per-(dim, side) reference scorer --------------------------------
def reference_best_split_regular(S, T, Os, Ot, rect, eps, cm, sm, symmetric):
    """Score the candidates one (dim, side) at a time, re-sorting per pair."""
    b2, b3 = cm.b2, cm.b3
    sw_s, sw_t, sw_o = sm.sw_s, sm.sw_t, sm.sw_o
    l_leaf = b2 * (sw_s * len(S) + sw_t * len(T)) + b3 * sw_o * len(Os)
    lsq = l_leaf * l_leaf
    best_key, best = -np.inf, None
    for dim in np.nonzero(~rect.small_dims(eps))[0]:
        lo, hi, e = rect.lo[dim], rect.hi[dim], eps[dim]
        for dup_side in ("T", "S") if symmetric else ("T",):
            if dup_side == "T":
                P, D, Or, sw_D = S[:, dim], T[:, dim], Os[:, dim], sw_t
            else:
                P, D, Or, sw_D = T[:, dim], S[:, dim], Ot[:, dim], sw_s
            u = np.unique(P)
            if len(u) < 2:
                continue
            mids = (u[:-1] + u[1:]) / 2.0
            mids = mids[(mids > lo) & (mids < hi)]
            if len(mids) == 0:
                continue
            Ps, Ds, Ors = np.sort(P), np.sort(D), np.sort(Or)
            pL = np.searchsorted(Ps, mids, side="left")
            dL = np.searchsorted(Ds, mids + e, side="left")
            dR = len(Ds) - np.searchsorted(Ds, mids - e, side="left")
            oL = np.searchsorted(Ors, mids, side="left")
            oR = len(Ors) - oL
            if dup_side == "T":
                sL, tL, sR, tR = pL, dL, len(Ps) - pL, dR
            else:
                tL, sL, tR, sR = pL, dL, len(Ps) - pL, dR
            l1 = b2 * (sw_s * sL + sw_t * tL) + b3 * sw_o * oL
            l2 = b2 * (sw_s * sR + sw_t * tR) + b3 * sw_o * oR
            dvar = lsq - l1 * l1 - l2 * l2
            dup_tuples = np.maximum((dL + dR - len(Ds)) * sw_D, sw_D)
            valid = dvar > 0
            if not valid.any():
                continue
            ratio = np.where(valid, dvar / dup_tuples, -np.inf)
            k = int(np.argmax(ratio))
            if ratio[k] > best_key:
                best_key = float(ratio[k])
                best = ("regular", int(dim), float(mids[k]), dup_side)
    return best_key, best


def _column(draw, n):
    """Values with ties, float neighbours and sometimes a single value."""
    base = draw(st.sampled_from([0.0, 1.0, -3.5, 1e6, 0.1]))
    kind = draw(st.sampled_from(["pool", "neighbours", "single", "uniform"]))
    if kind == "single":
        return np.full(n, base)
    if kind == "neighbours":
        steps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        out = np.full(n, base)
        for _ in range(max(steps, default=0)):
            out = np.where(np.array(steps) > 0, np.nextafter(out, np.inf), out)
            steps = [s - 1 for s in steps]
        return out
    if kind == "pool":
        pool = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4))
        idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        return base + np.array(pool)[idx]
    seed = draw(st.integers(0, 2**16))
    return base + np.random.default_rng(seed).uniform(-5, 5, n)


@st.composite
def leaves(draw):
    d = draw(st.integers(1, 3))
    n_s, n_t, n_o = draw(st.integers(1, 30)), draw(st.integers(1, 30)), draw(st.integers(0, 40))
    S = np.column_stack([_column(draw, n_s) for _ in range(d)])
    T = np.column_stack([_column(draw, n_t) for _ in range(d)])
    # ties across dimensions and across sides
    if draw(st.booleans()):
        S[:, 1:] = S[:, :1]
    if draw(st.booleans()):
        T, n_t = S.copy(), n_s
    # output pairs repeat tuples, as a band-join sample's pairs do
    si = np.array(draw(st.lists(st.integers(0, n_s - 1), min_size=n_o, max_size=n_o)), int)
    ti = np.array(draw(st.lists(st.integers(0, n_t - 1), min_size=n_o, max_size=n_o)), int)
    eps = np.array([draw(st.sampled_from([0.0, 0.0, 1e-9, 0.5, 3.0])) for _ in range(d)])
    weights = [draw(st.sampled_from([1.0, 2.5, 7.0])) for _ in range(3)]
    shrink = draw(st.sampled_from([0.0, 0.2, 0.45]))
    return S, T, S[si].reshape(n_o, d), T[ti].reshape(n_o, d), eps, weights, shrink


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("anchors", [(rp._ANCHOR_MIN, rp._ANCHOR_GAP), (1, 2), (1, 5)])
@settings(max_examples=150, deadline=None)
@given(leaf=leaves())
def test_bulk_scoring_equals_reference(symmetric, anchors, leaf):
    """Same score and split as the per-(dim, side) loop, with and without
    the bounding round (forced on tiny leaves by lowering its threshold)."""
    S, T, Os, Ot, eps, (sw_s, sw_t, sw_o), shrink = leaf
    sm = Samples(S, T, sw_s, sw_t, Os, Ot, sw_o, len(S), len(T))
    cm = CostModel()
    opt = rp._Optimizer(sm, eps, 4, cm, symmetric, "theoretical", 0, None)
    # a box narrower than the samples' bounding box, as deeper leaves have
    lo, hi = opt.root.rect.lo, opt.root.rect.hi
    rect = Rect(lo + shrink * (hi - lo), hi - shrink * (hi - lo))
    opt.root.rect = rect
    want = reference_best_split_regular(S, T, Os, Ot, rect, eps, cm, sm, symmetric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rp, "_ANCHOR_MIN", anchors[0])
        mp.setattr(rp, "_ANCHOR_GAP", anchors[1])
        assert opt._best_split_regular(opt.root) == want


def test_tie_across_dimensions_goes_to_lower_dimension():
    """Swapped columns make the S-split in dim 0 and the T-split in dim 1
    score alike; the lower dimension wins although its side comes second."""
    t0 = np.random.default_rng(3).uniform(0, 10, 40)
    S = np.column_stack([np.full(40, 5.0), t0])
    T = np.column_stack([t0, np.full(40, 5.0)])
    pairs = np.arange(0, 40, 3)
    sm = Samples(S, T, 2.0, 2.0, S[pairs], T[pairs], 3.0, 40, 40)
    eps, cm = np.array([0.5, 0.5]), CostModel()
    opt = rp._Optimizer(sm, eps, 4, cm, True, "theoretical", 0, None)
    want = reference_best_split_regular(S, T, S[pairs], T[pairs], opt.root.rect, eps, cm, sm, True)
    assert want[1][1] == 0 and want[1][3] == "S"
    assert opt._best_split_regular(opt.root) == want


@pytest.mark.parametrize("symmetric", [True, False])
@settings(max_examples=150, deadline=None)
@given(leaf=leaves(), small=st.booleans(), r=st.integers(1, 4), c=st.integers(1, 4))
def test_score_at_most_queue_bound(symmetric, leaf, small, r, c):
    """A leaf waits in the queue under ``_bound`` until that reaches the
    top, so no split of it, regular or small-mode, may score above it."""
    S, T, Os, Ot, eps, (sw_s, sw_t, sw_o), _ = leaf
    sm = Samples(S, T, sw_s, sw_t, Os, Ot, sw_o, len(S), len(T))
    if small:  # every side within twice the band width: 1-Bucket mode
        span = np.ptp(np.vstack([S, T]), axis=0)
        eps = np.maximum(eps, span + 1.0)
    opt = rp._Optimizer(sm, eps, 4, CostModel(), symmetric, "theoretical", 0, None)
    if small:
        assert opt.root.rect.is_small(eps)
        opt.root.r, opt.root.c = r, c
    key, _ = opt.best_split(opt.root)
    assert key <= opt._bound(opt.root)


@pytest.mark.parametrize("symmetric", [True, False])
def test_runs_score_at_most_queue_bound(symmetric, monkeypatch):
    """The same along a whole run that reaches small-mode leaves."""
    scored = []
    best_split = rp._Optimizer.best_split

    def checked(self, node):
        key, split = best_split(self, node)
        assert key <= self._bound(node)
        scored.append(split and split[0])
        return key, split

    monkeypatch.setattr(rp._Optimizer, "best_split", checked)
    S = pareto_points(4000, 1.5, 3, seed=1)
    T = pareto_points(4000, 1.5, 3, seed=2)
    rp.recpart(S, T, np.full(3, 200.0), 8, symmetric=symmetric, seed=0)
    assert "regular" in scored and "row" in scored


# -- RecPart: fixed-seed runs -------------------------------------------------
def recpart_digest(S, T, eps, w, **kw) -> str:
    """Digest of a run: every split applied, the best tree's nodes and
    grids, its task_to_worker, n_iters and every history obj."""
    splits = []
    to_inner = split_tree.TreeNode.to_inner

    def recording(self, dim, value, dup_side):
        splits.append((int(dim), float(value), dup_side))
        return to_inner(self, dim, value, dup_side)

    split_tree.TreeNode.to_inner = recording
    try:
        res = rp.recpart(S, T, eps, w, seed=0, **kw)
    finally:
        split_tree.TreeNode.to_inner = to_inner
    nodes, stack = [], [res.partitioning.root]
    while stack:
        n = stack.pop()
        nodes.append((int(n.dim), float(n.value), n.dup_side, n.r, n.c))
        if not n.is_leaf:
            stack += [n.right, n.left]
    h = hashlib.sha256()
    h.update(repr((splits, nodes, res.n_iters, [float(x["obj"]) for x in res.history])).encode())
    h.update(np.asarray(res.partitioning.task_to_worker, np.int64).tobytes())
    return h.hexdigest()[:16]


#: digests of the per-candidate loop's runs (pareto-1.5, 4000 x 4000, d=3)
FIXED_SEED_DIGESTS = {
    ("recpart", "theoretical"): "dcc46a8a8fd1b639",
    ("recpart", "applied"): "783ff2db6921897a",
    ("recpart_s", "theoretical"): "3c75837eac235389",
    ("recpart_s", "applied"): "61992b47fbe77bc3",
}


@pytest.mark.parametrize("method, termination", sorted(FIXED_SEED_DIGESTS))
def test_fixed_seed_runs_unchanged(method, termination):
    S = pareto_points(4000, 1.5, 3, seed=1)
    T = pareto_points(4000, 1.5, 3, seed=2)
    got = recpart_digest(
        S, T, np.full(3, 50.0), 8, symmetric=(method == "recpart"), termination=termination
    )
    assert got == FIXED_SEED_DIGESTS[(method, termination)]


# -- CS_IO: per-call reference packer -----------------------------------------
def reference_cover(R, s_in, t_in, o_cells, cm, w, cap):
    """The cover as one pack_strip call per (row, height, cap)."""
    gs, gt = R.shape
    o_row_prefix = np.vstack([np.zeros(gt), np.cumsum(o_cells, axis=0)])

    def pack_strip(i, h):
        rows = slice(i, i + h)
        rel_cols = np.flatnonzero(R[rows].any(axis=0))
        s_load = cm.b2 * s_in[rows].sum()
        out_cols = o_row_prefix[i + h] - o_row_prefix[i]
        rects, cur, cur_load = [], [], s_load
        for j in rel_cols:
            add = cm.b2 * t_in[j] + cm.b3 * out_cols[j]
            if cur and cur_load + add > cap:
                rects.append((i, i + h, np.array(cur)))
                cur, cur_load = [], s_load
            cur.append(int(j))
            cur_load += add
            if cur_load > cap and len(cur) == 1:
                return None
        if cur:
            rects.append((i, i + h, np.array(cur)))
        return rects, int(R[rows].sum())

    rects, i = [], 0
    while i < gs:
        best = None
        for h in range(1, gs - i + 1):
            got = pack_strip(i, h)
            if got is None:
                break
            score = got[1] / len(got[0])
            if best is None or score > best[0]:
                best = (score, h, got[0])
        if best is None:
            return None
        rects.extend(best[2])
        i += best[1]
        if len(rects) > w:
            return None
    return rects


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    gs=st.integers(1, 12),
    gt=st.integers(1, 12),
    w=st.integers(1, 10),
    density=st.sampled_from([0.1, 0.4, 0.9]),
)
def test_strip_cover_equals_reference(seed, gs, gt, w, density):
    """Same rectangles at every cap, from infeasible to one rectangle,
    on random relevance matrices (every row has a relevant cell)."""
    rng = np.random.default_rng(seed)
    R = rng.random((gs, gt)) < density
    R[np.arange(gs), rng.integers(0, gt, gs)] = True
    s_in, t_in = rng.integers(0, 50, gs) * 1.5, rng.integers(0, 50, gt) * 2.0
    o_cells = np.where(R, rng.integers(0, 20, (gs, gt)) * 0.75, 0.0)
    cm = CostModel()
    sc = StripCover(R, s_in, t_in, o_cells, cm, w)
    total = cm.b2 * (s_in.sum() + t_in.sum()) + cm.b3 * o_cells.sum()
    # loads are multiples of 0.25, so caps on that grid meet sums exactly;
    # so do the running loads of the first row's strip
    cols = np.flatnonzero(R[0])
    first = np.cumsum(np.r_[cm.b2 * s_in[0], cm.b2 * t_in[cols] + cm.b3 * o_cells[0, cols]])
    caps = np.concatenate([rng.integers(0, 4 * total + 1, 8) / 4, rng.uniform(0, total, 4), first])
    for cap in np.append(caps, total * 2 + 1.0):
        want = reference_cover(R, s_in, t_in, o_cells, cm, w, cap)
        got = sc.cover(cap)
        if want is None:
            assert got is None
            continue
        got = sc.rects(got)
        assert [(a, b, c.tolist()) for a, b, c in got] == [(a, b, c.tolist()) for a, b, c in want]


#: digest of the per-call packer's build (same inputs, eps=50, w=8)
CSIO_DIGEST = "25f3fc6f5e5ef49c"


def test_csio_fixed_seed_unchanged():
    """Cell -> rectangle map and rectangle loads of a fixed-seed build."""
    S = pareto_points(4000, 1.5, 3, seed=1)
    T = pareto_points(4000, 1.5, 3, seed=2)
    part = build_csio(S, T, np.full(3, 50.0), 8, seed=0)
    h = hashlib.sha256()
    for a in (part.bnd_s, part.bnd_t, *part._s, *part._t, part.task_to_worker):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == CSIO_DIGEST
