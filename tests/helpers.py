"""Shared test utilities: brute-force band-join ground truth, the
partitioned execution's result pairs, partitioning-correctness
assertions (Definition 1), a Catalyst band-join count and the
degenerate 1-D inputs of the stripe-coverage tests."""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.dist.local_join import band_join_tasks
from repro.dist.partitioning import Partitioning
from repro.synth_data import pareto_points, rv_pareto_points


def brute_force_pairs(S: np.ndarray, T: np.ndarray, eps) -> np.ndarray:
    """All (s_row, t_row) band-join pairs by dense comparison."""
    S = np.atleast_2d(np.asarray(S, float))
    T = np.atleast_2d(np.asarray(T, float))
    if S.shape[0] == 1 and S.shape[1] > 1 and np.asarray(eps).size == 1:
        S = S.T
    if T.shape[0] == 1 and T.shape[1] > 1 and np.asarray(eps).size == 1:
        T = T.T
    eps = np.asarray(eps, float)
    out = []
    for i in range(0, len(S), 512):
        chunk = S[i : i + 512]
        ok = np.ones((len(chunk), len(T)), bool)
        for d in range(S.shape[1]):
            ok &= np.abs(chunk[:, d][:, None] - T[:, d][None, :]) <= eps[d]
        si, ti = np.nonzero(ok)
        out.append(np.column_stack([si + i, ti]))
    return np.vstack(out) if out else np.empty((0, 2), np.int64)


def brute_force_count(S, T, eps) -> int:
    return len(brute_force_pairs(S, T, eps))


def collect_all_pairs(
    part: Partitioning,
    S_pts: np.ndarray,
    T_pts: np.ndarray,
    eps,
    s_ids: np.ndarray | None = None,
    t_ids: np.ndarray | None = None,
) -> np.ndarray:
    """All (s_id, t_id) output pairs the partitioned execution produces,
    **with multiplicity** — tests assert these are duplicate-free and
    equal to the brute-force band-join (Definition 1)."""
    eps = np.asarray(eps, dtype=float)
    S_pts = np.asarray(S_pts, dtype=float)
    T_pts = np.asarray(T_pts, dtype=float)
    if S_pts.ndim == 1:
        S_pts = S_pts[:, None]
    if T_pts.ndim == 1:
        T_pts = T_pts[:, None]
    if s_ids is None:
        s_ids = np.arange(len(S_pts), dtype=np.int64)
    if t_ids is None:
        t_ids = np.arange(len(T_pts), dtype=np.int64)
    si, st = part.assign(S_pts, "S", ids=s_ids)
    ti, tt = part.assign(T_pts, "T", ids=t_ids)
    ps, pt, _ = band_join_tasks(
        st, S_pts[si], tt, T_pts[ti], eps, produce_pairs=True
    )
    return np.column_stack([s_ids[si[ps]], t_ids[ti[pt]]])


def catalyst_band_join_count(
    spark: SparkSession, S_df: DataFrame, T_df: DataFrame, eps, dims: list[str]
) -> int:
    """Reference plan: plain Catalyst band-join (range predicates), used
    as a result-cardinality oracle on Spark itself."""
    cond = None
    for c, e in zip(dims, np.asarray(eps, dtype=float)):
        this = F.abs(S_df[c] - T_df[c]) <= float(e)
        cond = this if cond is None else cond & this
    return S_df.alias("s").join(T_df.alias("t"), cond).count()


def assert_partitioning_correct(part, S, T, eps) -> None:
    """Definition 1: the partitioned execution must produce exactly the
    band-join result, each pair exactly once."""
    got = collect_all_pairs(part, S, T, eps)
    want = brute_force_pairs(S, T, eps)
    got_keys = set(map(tuple, got.tolist()))
    want_keys = set(map(tuple, want.tolist()))
    assert len(got) == len(got_keys), "a result pair was produced more than once"
    assert got_keys == want_keys, (
        f"result mismatch: missing={len(want_keys - got_keys)} "
        f"extra={len(got_keys - want_keys)}"
    )


def assert_every_tuple_shipped(part, S, T) -> None:
    """Definition 1 coverage: every tuple of both sides goes to a task."""
    si, _ = part.assign(S, "S")
    ti, _ = part.assign(T, "T")
    assert np.array_equal(np.unique(si), np.arange(len(S)))
    assert np.array_equal(np.unique(ti), np.arange(len(T)))


#: degenerate inputs for quantile stripes; "one_stripe" is ordinary data
#: that the caller cuts into a single stripe
STRIPE_CASES = ["disjoint", "heavy_hitter", "eps0", "one_stripe"]


def stripe_case_inputs(case: str):
    """``(S, T, eps)`` for one of :data:`STRIPE_CASES`."""
    if case == "disjoint":  # rv-pareto: S and T share no band
        S = rv_pareto_points(800, 1.5, 1, seed=3, side="S")
        T = rv_pareto_points(800, 1.5, 1, seed=4, side="T")
    elif case == "heavy_hitter":  # quantile bounds repeat
        S = np.vstack([np.full((700, 1), 7.0), pareto_points(100, 1.5, 1, seed=5)])
        T = np.vstack([np.full((700, 1), 7.0), pareto_points(100, 1.5, 1, seed=6)])
    else:
        S = pareto_points(800, 1.5, 1, seed=1)
        T = pareto_points(800, 1.5, 1, seed=2)
    return S, T, np.array([0.0 if case == "eps0" else 5.0])
