"""RecPart: recursive partitioning for distributed band-joins (Alg. 1-2).

Grows the split tree from a single root leaf. Each iteration pops the
leaf with the best split score from a priority queue and applies that
split: a regular leaf becomes an inner node with two children; a
"small" leaf (every side <= 2*eps) instead increments its internal
1-Bucket grid (r or c). Split score is the paper's new measure:

    ratio of load-variance reduction to input-duplication increase,

with zero-duplication splits ranked above all others and ordered among
themselves by variance reduction. Loads are estimated from fixed-size
input and output samples (Section 4.2); the (w-1)/w^2 factor of the
variance is constant across all comparisons and is dropped.

Two termination rules (Section 4.2):

* ``theoretical`` — track max{duplication overhead, load overhead} vs
  the Lemma-1 lower bounds; duplication overhead grows monotonically, so
  stop once it exceeds the best load overhead seen.
* ``applied`` — predict join time with the cost model M(I, I_m, O_m);
  stop when the best prediction improved < 1% over the last w
  iterations.

The best partitioning seen (by the active objective) is snapshotted as a
:class:`FrozenTree` and returned.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from ..dist.partitioning import expand_ranges, lpt_schedule
from .cost_model import CostModel
from .geometry import Rect
from .sampling import Samples, draw_samples
from .split_tree import FrozenTree, TreeNode, split_bounds, split_masks

#: split score = variance reduction / duplication increase. A sample
#: showing zero duplicates only bounds the true duplication below one
#: sample weight, so the denominator is floored at one sample tuple's
#: weight (add-one smoothing). This realizes the paper's rule — ratio
#: ranks splits, and among (estimated) zero-duplication splits the one
#: with the greatest variance reduction wins — without letting
#: negligible-variance zero-dup splits starve high-ratio splits.
ScoreKey = float
_NO_SPLIT: ScoreKey = -np.inf
#: leaves with at least this many candidate splits score them in two
#: rounds, every _ANCHOR_GAP-th candidate first (see _best_split_regular).
#: RecPart's time is flat for thresholds of 1024-8192 and gaps of 8-32 on
#: pareto d=8 (20k, w=60), pareto d=3 (100k, w=30) and ebird x cloud (w=30);
#: a threshold of 512 is slower on pareto d=8
_ANCHOR_MIN = 2048
_ANCHOR_GAP = 16


def _distinct_rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows, row of each point): rows compared as raw bytes."""
    pts = np.ascontiguousarray(pts, dtype=float)
    key = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1]))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return pts[first], inverse


@dataclass
class LeafState:
    """Optimizer-owned sample state of one split-tree leaf."""

    S: np.ndarray
    T: np.ndarray
    #: the leaf's output-sample pairs: for side 0 (S) and 1 (T), the row
    #: of each pair's tuple among that side's distinct output tuples
    #: (``_Optimizer.o_cols``)
    pairs: tuple[np.ndarray, np.ndarray]
    #: per side, the distinct rows the leaf's pairs use, sorted by value
    #: in each dimension: a (d, rows) array
    order: tuple[np.ndarray, np.ndarray]
    best_key: ScoreKey = _NO_SPLIT
    best_split: tuple | None = None
    stamp: int = 0


@dataclass
class RecPartResult:
    partitioning: FrozenTree
    opt_time: float
    n_iters: int
    objective: float
    history: list[dict] = field(default_factory=list)
    #: why the search stopped: "bound" (theoretical rule: duplication
    #: overhead passed the best load overhead), "window" (applied rule:
    #: under 1% better over the last w iterations), "max_iters", or
    #: "no_split" (no leaf has a split that lowers the load variance)
    stop_reason: str = ""


class _Optimizer:
    def __init__(self, samples, eps, w, cm, symmetric, termination, seed, max_iters):
        # the score bounds of the search assume loads grow with the tuples
        # counted; CostModel rejects negative coefficients
        assert min(samples.sw_s, samples.sw_t, samples.sw_o) > 0
        self.sm = samples
        self.eps = np.asarray(eps, dtype=float)
        self.w = int(w)
        self.cm = cm
        self.symmetric = symmetric
        self.termination = termination
        self.seed = seed
        self.max_iters = max_iters if max_iters is not None else 20 * w + 100
        root_rect = Rect.bounding(samples.s_pts, samples.t_pts, pad=1.0 + 1e-9)
        self.root = TreeNode(root_rect)
        # an output pair repeats tuples that join many others, so pairs are
        # kept as row numbers into each side's distinct tuples, stored one
        # dimension per row; children inherit the rows' sorted order
        (u_s, os), (u_t, ot) = _distinct_rows(samples.o_s), _distinct_rows(samples.o_t)
        self.o_cols = (u_s.T.copy(), u_t.T.copy())
        self.root.payload = LeafState(
            S=samples.s_pts, T=samples.t_pts, pairs=(os, ot),
            order=tuple(np.argsort(c, axis=1) for c in self.o_cols),
        )
        self.heap: list = []
        self.counter = itertools.count()
        self.history: list[dict] = []
        # the leaves in ``root.leaves()`` order, with one row of
        # _leaf_stats per leaf; a split replaces its leaf's row by two
        self.leaves: list[TreeNode] = [self.root]
        self.stats = np.array([self._leaf_stats(self.root)])

    # -- per-leaf load/estimate helpers ------------------------------------
    def _leaf_stats(self, node: TreeNode) -> tuple[float, float, int, float]:
        """(per-cell input est, per-cell output est, n_cells, input est
        with duplicates) of a leaf."""
        st: LeafState = node.payload
        r, c = node.r, node.c
        sw_s, sw_t = self.sm.sw_s, self.sm.sw_t
        inp = sw_s * len(st.S) / r + sw_t * len(st.T) / c
        out = self.sm.sw_o * len(st.pairs[0]) / (r * c)
        return inp, out, r * c, sw_s * len(st.S) * c + sw_t * len(st.T) * r

    def _leaf_sumsq(self, node: TreeNode) -> float:
        inp, out, n, _ = self._leaf_stats(node)
        l = self.cm.b2 * inp + self.cm.b3 * out
        return n * l * l

    # -- Algorithm 2: best_split -------------------------------------------
    def best_split(self, node: TreeNode) -> tuple[ScoreKey, tuple | None]:
        if node.rect.is_small(self.eps):
            return self._best_split_small(node)
        key, split = self._best_split_regular(node)
        if split is None:
            # No recursive split exists (e.g. a point-mass partition of a
            # heavy join value at eps=0). All tuples in such a partition
            # join with each other, which is precisely the Cartesian-
            # product regime the paper's small-partition mode targets, so
            # fall back to internal 1-Bucket refinement.
            return self._best_split_small(node)
        return key, split

    def _best_split_regular(self, node: TreeNode):
        """Score every candidate recursive split of a leaf in one pass.

        Candidates are the midpoints between consecutive distinct values
        of the partitioned side's sample, per splittable dimension and
        duplicated side: the T-split partitions S and copies T, the
        S-split the reverse. Each sample is sorted once, all dimensions
        in one call; each count is a ``searchsorted`` on a sorted
        column. The winner is the first maximum in (dimension, side T
        then S, ascending midpoint) order.
        """
        st: LeafState = node.payload
        b2, c3 = self.cm.b2, self.cm.b3 * self.sm.sw_o
        sw_s, sw_t = self.sm.sw_s, self.sm.sw_t
        n_s, n_t, n_o = len(st.S), len(st.T), len(st.pairs[0])
        l_leaf = b2 * (sw_s * n_s + sw_t * n_t) + c3 * n_o
        lsq = l_leaf * l_leaf
        dims = np.flatnonzero(~node.rect.small_dims(self.eps))
        lo, hi = node.rect.lo[dims, None], node.rect.hi[dims, None]
        S, T = np.sort(st.S.T[dims]), np.sort(st.T.T[dims])
        sides = (S, T) if self.symmetric else (S,)
        mids, cnt = [], []
        for P in sides:
            a, b = P[:, :-1], P[:, 1:]
            mid = (a + b) / 2.0
            ok = (a != b) & (mid > lo) & (mid < hi)
            mids.append(mid[ok])
            cnt.append(ok.sum(axis=1))
        n_side = [len(m) for m in mids]
        mids = np.concatenate(mids)
        if len(mids) == 0:
            return _NO_SPLIT, None
        cnt = np.concatenate(cnt)
        eps = self.eps[dims].tolist()
        # segment g holds the candidates of side g // k in dims[g % k]
        k = len(dims)
        seg = np.concatenate([[0], np.cumsum(cnt)])
        o_cum, o_vals = [], []
        for side in range(len(sides)):
            # output pairs below a value: a search in the sorted distinct
            # tuples, then a running count of their pairs
            order = st.order[side][dims]
            o_vals.append(self.o_cols[side][dims[:, None], order])
            o_cum.append(np.zeros((k, order.shape[1] + 1)))
            np.cumsum(np.bincount(st.pairs[side])[order], axis=1, out=o_cum[side][:, 1:])
        m_t = n_side[0]  # candidates before m_t are T-splits

        def count(q: np.ndarray) -> np.ndarray:
            """Counts of the candidates ``q`` (ascending), one column each:
            S and T tuples below the right child's lower and the left
            child's upper boundary (mid for the partitioned side, mid +-
            eps for the copied side), and output pairs below mid. Counts
            are exact in floats, so the scoring mixes no integers in."""
            out = np.empty((5, len(q)))
            s_lo, s_hi, t_lo, t_hi, o_lo = out
            at = q.searchsorted(seg).tolist()
            for g in range(len(seg) - 1):
                i, i2 = at[g], at[g + 1]
                if i == i2:
                    continue
                side, j = divmod(g, k)
                a, b = q[i], q[i2 - 1]
                m = mids[a:b + 1] if b - a == i2 - i - 1 else mids[q[i:i2]]
                if side == 0:  # T-split: S at mid, T at mid +- eps
                    s_lo[i:i2] = s_hi[i:i2] = S[j].searchsorted(m)
                    t_hi[i:i2] = T[j].searchsorted(m + eps[j])
                    t_lo[i:i2] = T[j].searchsorted(m - eps[j])
                else:  # S-split: T at mid, S at mid +- eps
                    s_hi[i:i2] = S[j].searchsorted(m + eps[j])
                    s_lo[i:i2] = S[j].searchsorted(m - eps[j])
                    t_lo[i:i2] = t_hi[i:i2] = T[j].searchsorted(m)
                o_lo[i:i2] = o_cum[side][j, o_vals[side][j].searchsorted(m)]
            return out

        def loads(left, right):
            """Estimated load of the left child from counts ``left`` and
            of the right child from counts ``right``."""
            l1 = b2 * (sw_s * left[1] + sw_t * left[3]) + c3 * left[4]
            l2 = b2 * (sw_s * (n_s - right[0]) + sw_t * (n_t - right[2])) + c3 * (n_o - right[4])
            return l1, l2

        def ratio(dvar, dup, q):
            w = np.where(q < m_t, sw_t, sw_s)  # weight of a copy
            return np.where(dvar > 0, dvar / np.maximum(dup * w, w), -np.inf)  # add-one floor

        def score(c, q):
            l1, l2 = loads(c, c)
            # copies of the duplicated side; one of the two terms is zero
            return ratio(lsq - l1 * l1 - l2 * l2, c[3] - c[2] + (c[1] - c[0]), q)

        # Large leaves are searched in two rounds. Counts grow with the
        # midpoint, so the counts of every _ANCHOR_GAP-th candidate (and
        # of each segment's ends) bound the loads and copies of those in
        # between, as loads grow with counts (cost coefficients and sample
        # weights are >= 0); float arithmetic is monotone, so the bound
        # holds for the computed score too, and only the runs between
        # anchors whose bound reaches the best anchor's score are counted.
        q = np.arange(len(mids))
        if len(mids) >= _ANCHOR_MIN:
            rel = q - np.repeat(seg[:-1], cnt)
            q = q[(rel % _ANCHOR_GAP == 0) | (rel == np.repeat(cnt, cnt) - 1)]
            c = count(q)
            l1, l2 = loads(c[:, :-1], c[:, 1:])
            dup = np.maximum(c[3, :-1] - c[2, 1:], 0) + np.maximum(c[1, :-1] - c[0, 1:], 0)
            bound = ratio(lsq - l1 * l1 - l2 * l2, dup, q[:-1])
            run = (bound >= score(c, q).max()) & (bound > -np.inf) & (q[1:] - q[:-1] > 1)
            rest = expand_ranges(q[:-1][run] + 1, q[1:][run])[1]
            q, c = np.concatenate([q, rest]), np.hstack([c, count(rest)])
        else:
            c = count(q)
        r = score(c, q)
        best = r.max()
        if best == -np.inf:
            return _NO_SPLIT, None
        # ties go to the lower dimension, then to the T-split, then to the
        # lower midpoint
        pos = q[r == best]
        g = seg.searchsorted(pos, "right") - 1
        t = int(np.argmin((2 * (g % k) + g // k) * len(mids) + pos))
        return float(best), ("regular", int(dims[g[t] % k]), float(mids[pos[t]]), "TS"[g[t] // k])

    def _best_split_small(self, node: TreeNode):
        """Small partition: score incrementing the internal 1-Bucket grid.
        A row increment duplicates every T-tuple once more; a column
        increment duplicates every S-tuple once more. RecPart-S never
        duplicates S (paper Section 6.2: "T is always the partitioned/
        duplicated relation"), so without symmetric partitioning only
        row increments are allowed — which is precisely why RecPart-S
        cannot break up a dense pure-T region (paper Table 9's
        reverse-Pareto rows) while full RecPart can."""
        st: LeafState = node.payload
        sw_s, sw_t = self.sm.sw_s, self.sm.sw_t
        cur = self._leaf_sumsq(node)

        def sumsq(r, c):
            inp = sw_s * len(st.S) / r + sw_t * len(st.T) / c
            out = self.sm.sw_o * len(st.pairs[0]) / (r * c)
            l = self.cm.b2 * inp + self.cm.b3 * out
            return r * c * l * l

        best_key: ScoreKey = _NO_SPLIT
        best: tuple | None = None
        options = [("row", sw_t * len(st.T), sw_t)]
        if self.symmetric:
            options.append(("col", sw_s * len(st.S), sw_s))
        for split, dup, floor in options:
            r = node.r + (split == "row")
            c = node.c + (split == "col")
            dvar = cur - sumsq(r, c)
            if dvar <= 0:
                continue
            key = dvar / max(dup, floor)
            if key > best_key:
                best_key, best = key, (split,)
        return best_key, best

    # -- queue management ----------------------------------------------------
    # A leaf is queued under an upper bound of its split score and scored
    # only when that bound reaches the top of the heap; it is then queued
    # again, under its score and its first counter value. Pops are those of
    # queueing every leaf under its score: the popped scored entry beats
    # every score, as each is at most its leaf's bound. Leaves that never
    # reach the top are never scored.
    def _bound(self, node: TreeNode) -> float:
        """At least the score of any split of the leaf: a small-mode split
        lowers the leaf's sum of squared cell loads by at most all of it,
        a recursive split (whose children's loads add up to at least the
        leaf's, as cost coefficients and sample weights are >= 0) by at
        most half of it, and either divides by at least the smallest copy
        weight."""
        sw = min(self.sm.sw_s, self.sm.sw_t) if self.symmetric else self.sm.sw_t
        return self._leaf_sumsq(node) / sw

    def _push(self, node: TreeNode):
        st: LeafState = node.payload
        st.best_key, st.best_split = _NO_SPLIT, None
        st.stamp += 1
        heapq.heappush(self.heap, (-self._bound(node), next(self.counter), node, st.stamp))

    def _pop(self) -> TreeNode | None:
        while self.heap:
            _, count, node, stamp = heapq.heappop(self.heap)
            st: LeafState = node.payload
            if st is None or not node.is_leaf or st.stamp != stamp:
                continue
            if st.best_split is not None:
                return node
            st.best_key, st.best_split = self.best_split(node)
            if st.best_split is not None:
                heapq.heappush(self.heap, (-st.best_key, count, node, stamp))
        return None

    # -- apply a split (one repeat-loop iteration of Algorithm 1) -----------
    def apply_split(self, node: TreeNode):
        st: LeafState = node.payload
        split = st.best_split
        if split[0] == "regular":
            _, dim, value, dup_side = split
            # samples go where FrozenTree.assign sends them, output pairs by the undivided side
            bounds = split_bounds(value, self.eps[dim])
            s_left, s_right = split_masks(st.S[:, dim], value, bounds, dup_side == "S")
            t_left, t_right = split_masks(st.T[:, dim], value, bounds, dup_side == "T")
            side = 0 if dup_side == "T" else 1
            o_mask = self.o_cols[side][dim, st.pairs[side]] < value
            left, right = node.to_inner(dim, value, dup_side)
            left.payload = LeafState(st.S[s_left], st.T[t_left], *self._output_part(st, o_mask))
            right.payload = LeafState(st.S[s_right], st.T[t_right], *self._output_part(st, ~o_mask))
            k = self.leaves.index(node)
            self.leaves[k:k + 1] = [left, right]
            self.stats = np.concatenate(
                [self.stats[:k], [self._leaf_stats(left), self._leaf_stats(right)], self.stats[k + 1:]]
            )
            self._push(left)
            self._push(right)
        else:
            if split[0] == "row":
                node.r += 1
            else:
                node.c += 1
            self.stats[self.leaves.index(node)] = self._leaf_stats(node)
            self._push(node)

    def _output_part(self, st: LeafState, mask: np.ndarray):
        """(pairs, order) of the leaf's output pairs selected by ``mask``."""
        pairs = tuple(p[mask] for p in st.pairs)
        order = []
        for side, p in enumerate(pairs):
            used = np.zeros(self.o_cols[side].shape[1], dtype=bool)
            used[p] = True
            o = st.order[side]
            order.append(o[used[o]].reshape(len(o), -1))
        return pairs, tuple(order)

    # -- global estimated state ----------------------------------------------
    def estimate_state(self) -> dict:
        """Estimated (I, I_m, O_m, L_m) of the current tree via LPT
        scheduling of all leaf cells onto the w workers. ``tw`` is that
        schedule, which a snapshot of the tree reuses."""
        inp, out, n, inputs = self.stats.T
        n = n.astype(np.int64)
        loads = np.repeat(self.cm.b2 * inp + self.cm.b3 * out, n)
        inps = np.repeat(inp, n)
        outs = np.repeat(out, n)
        tw = lpt_schedule(loads, self.w)
        w_load = np.bincount(tw, weights=loads, minlength=self.w)
        w_in = np.bincount(tw, weights=inps, minlength=self.w)
        w_out = np.bincount(tw, weights=outs, minlength=self.w)
        m = int(np.argmax(w_load))
        return {
            # summed in leaf order, one add at a time, like a running total
            "I": float(np.add.accumulate(inputs)[-1]),
            "I_m": float(w_in[m]),
            "O_m": float(w_out[m]),
            "L_m": float(w_load[m]),
            "tw": tw,
        }

    def snapshot(self, state: dict) -> FrozenTree:
        return FrozenTree(self.root, self.eps, self.w, self.seed, task_to_worker=state["tw"])

    def run(self) -> RecPartResult:
        t_start = time.perf_counter()
        n_in = self.sm.n_s + self.sm.n_t
        O_est = self.sm.o_total_est
        L0 = (self.cm.b2 * n_in + self.cm.b3 * O_est) / self.w

        def objective(state):
            dup_ov = (state["I"] - n_in) / n_in
            load_ov = (state["L_m"] - L0) / L0 if L0 > 0 else 0.0
            if self.termination == "theoretical":
                return max(dup_ov, load_ov), dup_ov, load_ov
            t = self.cm.predict(state["I"], state["I_m"], state["O_m"])
            return t, dup_ov, load_ov

        self._push(self.root)
        state = self.estimate_state()
        obj, dup_ov, load_ov = objective(state)
        best_obj = obj
        best_tree = self.snapshot(state)
        best_load_ov = load_ov
        objs = [obj]
        self.history.append({"iter": 0, "obj": obj, "dup_ov": dup_ov, "load_ov": load_ov})

        stop = "max_iters"
        for it in range(1, self.max_iters + 1):
            node = self._pop()
            if node is None:
                stop = "no_split"
                break
            self.apply_split(node)
            state = self.estimate_state()
            obj, dup_ov, load_ov = objective(state)
            objs.append(obj)
            self.history.append(
                {"iter": it, "obj": obj, "dup_ov": dup_ov, "load_ov": load_ov}
            )
            if obj < best_obj:
                best_obj = obj
                best_tree = self.snapshot(state)
            best_load_ov = min(best_load_ov, load_ov)
            if self.termination == "theoretical":
                # duplication overhead is monotone; once it alone exceeds the
                # best load overhead seen, no later tree can win.
                if dup_ov > best_load_ov:
                    stop = "bound"
                    break
            else:
                if len(objs) > self.w:
                    if min(objs) > 0.99 * min(objs[: -self.w]):
                        stop = "window"
                        break
        return RecPartResult(
            partitioning=best_tree,
            opt_time=time.perf_counter() - t_start,
            n_iters=len(objs) - 1,
            objective=best_obj,
            history=self.history,
            stop_reason=stop,
        )


def recpart(
    S_pts: np.ndarray,
    T_pts: np.ndarray,
    eps,
    w: int,
    *,
    symmetric: bool = True,
    termination: str = "applied",
    cost_model: CostModel | None = None,
    seed: int = 0,
    max_iters: int | None = None,
    samples: Samples | None = None,
) -> RecPartResult:
    """Run RecPart (``symmetric=True``) or RecPart-S (``symmetric=False``)
    and return the best frozen partitioning plus optimization stats.
    Without ``samples`` it draws them at :func:`draw_samples`' sizes."""
    eps = np.asarray(eps, dtype=float)
    cm = cost_model or CostModel()
    if samples is None:
        samples = draw_samples(
            np.asarray(S_pts, dtype=float), np.asarray(T_pts, dtype=float), eps, seed=seed
        )
    opt = _Optimizer(samples, eps, w, cm, symmetric, termination, seed, max_iters)
    return opt.run()
