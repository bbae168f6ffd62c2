"""Distributed band-join on Spark, driven by any :class:`Partitioning`.

This is the map-shuffle-reduce pipeline of the paper (Section 2) as a
DataFrame program:

1. **map**: ``mapInPandas`` over each input applies the partitioning —
   the custom partitioner, shipped to executors inside the serialized
   UDF — emitting one row per (tuple, task); duplication happens here.
2. **shuffle**: ``repartition(w, "worker")`` groups rows by the worker
   that owns the task — exactly the full shuffle a Hadoop custom
   ``Partitioner`` would drive.
3. **reduce**: ``applyInPandas`` per worker runs the vectorized local
   band-join *per task* (Section 6.1's index-nested-loop), producing
   either the (s_id, t_id) result pairs or per-worker statistics.

Everything is DataFrame/Catalyst; the only Python-side compute is the
partitioning UDF and the local join, mirroring how the paper's operator
sits below the dataflow engine. Inputs must carry a unique ``id``
column plus the join-attribute columns.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.geometry import band_widths
from .local_join import band_join_tasks
from .partitioning import Partitioning


def _fanout(df: DataFrame, part: Partitioning, side: str, dims: list[str]) -> DataFrame:
    """Map each row to its tasks (one output row per assignment)."""
    t2w = part.task_to_worker

    def gen(batches):
        for pdf in batches:
            pts = pdf[dims].to_numpy(dtype=float)
            ids = pdf["id"].to_numpy(dtype=np.int64)
            idx, task = part.assign(pts, side, ids=ids)
            out = pdf.iloc[idx][["id", *dims]].copy()
            out["task"] = task
            out["worker"] = t2w[task]
            out["side"] = side
            yield out

    schema = (
        "id long, "
        + ", ".join(f"{c} double" for c in dims)
        + ", task long, worker int, side string"
    )
    return df.mapInPandas(gen, schema=schema)


def distributed_band_join(
    spark: SparkSession,
    S_df: DataFrame,
    T_df: DataFrame,
    part: Partitioning,
    eps,
    dims: list[str],
    produce_pairs: bool = False,
):
    """Run the band-join under ``part``.

    Returns ``(result, stats, wall_seconds)`` where ``result`` is a
    pandas DataFrame of (s_id, t_id) pairs when ``produce_pairs`` else
    None, and ``stats`` is a pandas DataFrame with one row per worker:
    (worker, input_s, input_t, output). Raises ``ValueError`` unless
    ``eps`` holds one band width >= 0 per entry of ``dims``.
    """
    eps = band_widths(eps, len(dims))
    fan_s = _fanout(S_df, part, "S", dims)
    fan_t = _fanout(T_df, part, "T", dims)
    allrows = fan_s.unionByName(fan_t).repartition(part.w, F.col("worker"))

    def join_group(pdf: pd.DataFrame) -> pd.DataFrame:
        s = pdf[pdf["side"] == "S"]
        t = pdf[pdf["side"] == "T"]
        task_s = s["task"].to_numpy(np.int64)
        task_t = t["task"].to_numpy(np.int64)
        pts_s = s[dims].to_numpy(float)
        pts_t = t[dims].to_numpy(float)
        if produce_pairs:
            ps, pt, _ = band_join_tasks(
                task_s, pts_s, task_t, pts_t, eps, produce_pairs=True
            )
            return pd.DataFrame(
                {
                    "s_id": s["id"].to_numpy(np.int64)[ps],
                    "t_id": t["id"].to_numpy(np.int64)[pt],
                }
            )
        _, total = band_join_tasks(task_s, pts_s, task_t, pts_t, eps)
        worker = int(pdf["worker"].iloc[0]) if len(pdf) else -1
        # shuffle input = one record per (tuple, task) copy, the paper's
        # MapReduce accounting (each grid cell / block pair is its own
        # reduce group)
        return pd.DataFrame(
            {
                "worker": [worker],
                "input_s": [len(s)],
                "input_t": [len(t)],
                "output": [total],
            }
        )

    t0 = time.perf_counter()
    if produce_pairs:
        res = (
            allrows.groupBy("worker")
            .applyInPandas(join_group, schema="s_id long, t_id long")
            .toPandas()
        )
        wall = time.perf_counter() - t0
        return res, None, wall
    stats = (
        allrows.groupBy("worker")
        .applyInPandas(
            join_group, schema="worker int, input_s long, input_t long, output long"
        )
        .toPandas()
    )
    wall = time.perf_counter() - t0
    return None, stats, wall


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
