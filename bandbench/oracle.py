"""DuckDB answer for a band-join, computed in a child process and cached.

The benchmark checks every query against DuckDB, never against the code
it measures. DuckDB runs in its own process, so it takes no time from a
timed region and no memory from the benchmark's peak RSS; its threads
are capped at the CPUs this process may use. Answers are cached under a
digest of (inputs, ε, answer kind), so a repeated seed pays once.

DuckDB plans ``abs(s.a - t.a) <= ε`` over several columns as an
inequality join, which takes minutes at ebird scale. The query here
gives it equality keys instead: cell ``floor(a / 2ε)`` on up to three
dimensions, with each T row copied to its 3^k neighbouring cells. Two
tuples within ε have quotients within 0.5 of each other, so their cells
differ by at most one and the pair meets in exactly one copy; the exact
band condition on every dimension then decides. The benchmark's tests
check this query against the plain inequality join.

Run as a script: ``python3 oracle.py <inputs.npz> <answer.npz>``.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

#: dimensions that get a cell key; more copies T 3^k times
MAX_KEY_DIMS = 3


def band_join_sql(d: int, eps: np.ndarray, pairs: bool) -> str:
    """SQL over tables ``s`` and ``t`` with columns ``id, a0..a{d-1}``."""
    eps = [float(e) for e in eps]
    if any(not e > 0 for e in eps):
        raise ValueError(f"the oracle needs every band width > 0, got {eps}")
    keys = range(min(d, MAX_KEY_DIMS))
    cols = ", ".join(f"a{i}" for i in range(d))
    s_keys = "".join(f", floor(a{k} / '{2 * eps[k]!r}'::DOUBLE)::BIGINT AS b{k}" for k in keys)
    t_keys = "".join(
        f", floor(a{k} / '{2 * eps[k]!r}'::DOUBLE)::BIGINT + o{k} AS b{k}" for k in keys
    )
    offsets = "".join(f", (SELECT unnest([-1, 0, 1]) AS o{k})" for k in keys)
    on = " AND ".join(f"sc.b{k} = tc.b{k}" for k in keys)
    band = " AND ".join(f"abs(sc.a{i} - tc.a{i}) <= '{eps[i]!r}'::DOUBLE" for i in range(d))
    select = "sc.id AS s_id, tc.id AS t_id" if pairs else "count(*) AS n"
    return (
        f"WITH sc AS (SELECT id, {cols}{s_keys} FROM s), "
        f"tc AS (SELECT id, {cols}{t_keys} FROM t{offsets}) "
        f"SELECT {select} FROM sc JOIN tc ON {on} WHERE {band}"
    )


def pair_keys(s_id: np.ndarray, t_id: np.ndarray, n_t: int) -> np.ndarray:
    """Sorted int64 keys ``s_id * n_t + t_id``: equal arrays iff equal
    (s_id, t_id) multisets."""
    return np.sort(np.asarray(s_id, np.int64) * n_t + np.asarray(t_id, np.int64))


def digest(S: np.ndarray, T: np.ndarray, eps: np.ndarray, pairs: bool) -> str:
    h = hashlib.sha256()
    for a in (S, T, eps):
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    h.update(b"pairs" if pairs else b"count")
    return h.hexdigest()[:32]


def answer(
    S: np.ndarray, T: np.ndarray, eps: np.ndarray, pairs: bool, cache_dir: Path
) -> tuple[int | np.ndarray, bool]:
    """The band-join's result count, or its sorted pair keys (see
    :func:`pair_keys`) when ``pairs``; plus whether it came from the cache.
    Row positions are the tuple ids."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = digest(S, T, eps, pairs)
    out = cache_dir / f"{key}.npz"
    cached = out.exists()
    if not cached:
        inp = cache_dir / f"{key}.in.npz"
        np.savez(inp, S=S, T=T, eps=eps, pairs=pairs)
        try:
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), str(inp), str(out)],
                check=True,
                timeout=900,
                env={**os.environ, "TMPDIR": str(cache_dir)},
            )
        finally:
            inp.unlink(missing_ok=True)
    with np.load(out) as z:
        return (z["keys"] if pairs else int(z["count"])), cached


def _compute(inp: Path, out: Path) -> None:
    import duckdb
    import pandas as pd

    with np.load(inp) as z:
        S, T, eps, pairs = z["S"], z["T"], z["eps"], bool(z["pairs"])
    d = S.shape[1]

    def frame(x: np.ndarray) -> pd.DataFrame:
        df = pd.DataFrame(x, columns=[f"a{i}" for i in range(d)])
        df.insert(0, "id", np.arange(len(x), dtype=np.int64))
        return df

    con = duckdb.connect()
    try:
        con.execute(f"SET threads = {len(os.sched_getaffinity(0))}")
        con.execute(f"SET temp_directory = '{out.parent / 'duckdb_tmp'}'")
        con.register("s", frame(S))
        con.register("t", frame(T))
        res = con.execute(band_join_sql(d, eps, pairs)).fetchnumpy()
    finally:
        con.close()
    tmp = out.with_suffix(".tmp.npz")
    if pairs:
        np.savez(tmp, keys=pair_keys(res["s_id"], res["t_id"], len(T)))
    else:
        np.savez(tmp, count=np.int64(res["n"][0]))
    os.replace(tmp, out)


if __name__ == "__main__":
    _compute(Path(sys.argv[1]), Path(sys.argv[2]))
