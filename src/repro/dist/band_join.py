"""Distributed band-join on Spark, driven by any :class:`Partitioning`.

This is the map-shuffle-reduce pipeline of the paper (Section 2) as a
DataFrame program:

1. **map**: ``mapInPandas`` over each input applies the partitioning —
   the custom partitioner, shipped to executors inside the serialized
   UDF — emitting one row per (tuple, task); duplication happens here.
   Each row carries its worker's partition key ``pkey``.
2. **shuffle**: ``repartition(w, "pkey")`` — the full shuffle a Hadoop
   custom ``Partitioner`` would drive, into ``w`` Spark partitions. Spark
   sends a row to partition ``pmod(hash(pkey), w)`` (Murmur3), and
   :func:`partition_keys` picks worker i's key so that this is i: one
   logical worker is exactly one Spark partition and one reduce task.
3. **reduce**: ``applyInPandas`` per worker runs the vectorized local
   band-join *per task* (Section 6.1's index-nested-loop), producing
   either the (s_id, t_id) result pairs or per-worker statistics. Rows
   are already clustered by ``pkey``, so grouping adds no second shuffle.

Everything is DataFrame/Catalyst; the only Python-side compute is the
partitioning UDF and the local join, mirroring how the paper's operator
sits below the dataflow engine. Inputs must carry a unique ``id``
column plus the join-attribute columns, and should be frames whose plan
does not embed their rows, as :func:`repro.synth_data.to_spark`'s local
checkpoints are: a ``createDataFrame`` frame's rows travel inside every
map task that scans them (7 MB per task for the 254k-row ebird
stand-in) and are canonicalized by every plan and adaptive re-plan.

Spark's Python workers run under :mod:`._daemon` where the driver's
pyspark can serve them (see :func:`_install_site_daemon`).
"""
from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyspark
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.geometry import band_widths, check_relation
from . import _daemon
from .local_join import band_join_tasks
from .partitioning import Partitioning

DAEMON_KEY = "spark.python.daemon.module"
_U32 = 0xFFFFFFFF


def _install_site_daemon(spark: SparkSession) -> None:
    """Have the session's next Python workers run under :mod:`._daemon`.

    Only when no daemon module is set, and the driver's pyspark matches
    the JVM and does not come from a zip: then the workers' site-packages
    pyspark is this one. The key goes on the live SparkConf, which new
    tasks read; ``spark.conf.set`` would only reach the SQL conf.
    """
    conf = spark.sparkContext._conf
    if (
        conf.get(DAEMON_KEY) is None
        and pyspark.__version__ == spark.version
        and os.path.isfile(pyspark.__file__)
    ):
        conf.set(DAEMON_KEY, _daemon.__name__)


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return ((x << r) | (x >> (32 - r))) & _U32


def _spark_hash_int(k: np.ndarray) -> np.ndarray:
    """Spark's ``hash`` of an int column: Murmur3_x86_32 of 4 bytes,
    seed 42, as int32."""
    k = (np.asarray(k).astype(np.uint64) & _U32) * 0xCC9E2D51 & _U32
    k = _rotl(k, 15) * 0x1B873593 & _U32
    h = _rotl(k ^ 42, 13) * 5 + 0xE6546B64 & _U32
    h ^= 4
    h ^= h >> 16
    h = h * 0x85EBCA6B & _U32
    h ^= h >> 13
    h = h * 0xC2B2AE35 & _U32
    h ^= h >> 16
    return h.astype(np.uint32).view(np.int32)


def partition_keys(w: int) -> np.ndarray:
    """``keys[i]``: the least int k >= 0 with ``pmod(hash(k), w) == i``,
    so ``repartition(w, key)`` sends ``keys[i]`` to Spark partition i."""
    n = 64 * w
    while True:
        part, first = np.unique(_spark_hash_int(np.arange(n)) % w, return_index=True)
        if len(part) == w:
            return first.astype(np.int32)
        n *= 2


def _fanout(
    df: DataFrame, part: Partitioning, side: str, dims: list[str], task_key: np.ndarray
) -> DataFrame:
    """Map each row to its tasks (one output row per assignment), tagged
    with the partition key ``task_key[task]`` of the task's worker. A
    row no partitioning can route (NaN or inf) fails the query."""

    def gen(batches):
        for pdf in batches:
            pts = pdf[dims].to_numpy(dtype=float)
            if len(pts):
                check_relation(pts, side)
            ids = pdf["id"].to_numpy(dtype=np.int64)
            idx, task = part.assign(pts, side, ids=ids)
            out = pdf.iloc[idx][["id", *dims]].copy()
            out["task"] = task
            out["pkey"] = task_key[task]
            out["side"] = side
            yield out

    schema = (
        "id long, "
        + ", ".join(f"{c} double" for c in dims)
        + ", task long, pkey int, side string"
    )
    return df.mapInPandas(gen, schema=schema)


def band_join_frame(
    S_df: DataFrame,
    T_df: DataFrame,
    part: Partitioning,
    eps: np.ndarray,
    dims: list[str],
    produce_pairs: bool,
) -> DataFrame:
    """The lazy pipeline behind :func:`distributed_band_join`: (s_id, t_id)
    rows if ``produce_pairs``, else one row per worker (worker, input_s,
    input_t, output, seconds), the last being its local-join time. Its
    one Exchange is the repartition; the inputs are scanned as they are,
    so their plans should not embed their rows (see the module docstring)."""
    keys = partition_keys(part.w)
    worker_of = {int(k): i for i, k in enumerate(keys)}
    task_key = keys[part.task_to_worker]
    fan_s = _fanout(S_df, part, "S", dims, task_key)
    fan_t = _fanout(T_df, part, "T", dims, task_key)
    allrows = fan_s.unionByName(fan_t).repartition(part.w, F.col("pkey"))

    def join_group(pdf: pd.DataFrame) -> pd.DataFrame:
        t0 = time.perf_counter()
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
        # shuffle input = one record per (tuple, task) copy, the paper's
        # MapReduce accounting (each grid cell / block pair is its own
        # reduce group)
        return pd.DataFrame(
            {
                "worker": [worker_of[int(pdf["pkey"].iloc[0])]],
                "input_s": [len(s)],
                "input_t": [len(t)],
                "output": [total],
                "seconds": [time.perf_counter() - t0],
            }
        )

    if produce_pairs:
        schema = "s_id long, t_id long"
    else:
        schema = "worker int, input_s long, input_t long, output long, seconds double"
    return allrows.groupBy("pkey").applyInPandas(join_group, schema=schema)


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
    None, and ``stats`` is a pandas DataFrame with one row per worker
    that received rows: (worker, input_s, input_t, output, seconds),
    ``seconds`` being the worker's local-join time. Raises
    ``ValueError`` unless ``eps`` holds one band width >= 0 per entry of
    ``dims``; a NaN or infinite coordinate fails the query (:func:`check_relation`).
    ``S_df`` and ``T_df`` should be frames whose plan does not embed
    their rows, such as :func:`repro.synth_data.to_spark`'s local
    checkpoints. A local checkpoint lives in its executor's block manager
    and is lost with that executor; in local mode the executor is the
    driver's own JVM.
    """
    eps = band_widths(eps, len(dims))
    _install_site_daemon(spark)
    t0 = time.perf_counter()
    out = band_join_frame(S_df, T_df, part, eps, dims, produce_pairs).toPandas()
    wall = time.perf_counter() - t0
    return (out, None, wall) if produce_pairs else (None, out, wall)


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
