"""Distributed band-join on Spark, driven by any :class:`Partitioning`.

This is the map-shuffle-reduce pipeline of the paper (Section 2) as a
DataFrame program:

1. **map**: ``mapInArrow`` over each input applies the partitioning —
   the custom partitioner, shipped to executors inside the serialized
   UDF — emitting one row ``(id, a1..ad, task, pkey, is_s)`` per
   (tuple, task); duplication happens here. ``pkey`` is the partition
   key of the task's worker.
2. **shuffle**: ``repartition(w, "pkey")`` — the full shuffle a Hadoop
   custom ``Partitioner`` would drive, into ``w`` Spark partitions. Spark
   sends a row to partition ``pmod(hash(pkey), w)`` (Murmur3), and
   :func:`partition_keys` picks worker i's key so that this is i: one
   logical worker is exactly one Spark partition and one reduce task.
3. **reduce**: ``mapInArrow`` over the repartitioned frame, ``pkey``
   dropped, runs the vectorized local band-join *per task* (Section
   6.1's index-nested-loop) on each partition's rows as they arrive,
   producing either the (s_id, t_id) result pairs or one statistics row
   per non-empty partition, ``TaskContext.partitionId()`` being its
   worker.

Everything is DataFrame/Catalyst; the only Python-side compute is the
partitioning UDF and the local join, mirroring how the paper's operator
sits below the dataflow engine. Inputs must carry a unique ``id``
column plus the join-attribute columns, and should be frames whose plan
does not embed their rows, as :func:`repro.synth_data.to_spark`'s local
checkpoints are: a ``createDataFrame`` frame's rows travel inside every
map task that scans them (7 MB per task for the 254k-row ebird
stand-in) and are canonicalized by every plan and adaptive re-plan.

The join's time should be set by the shuffled input and the busiest
worker's load; what Spark adds per row or per task is overhead, and
three choices remove most of it (``ebird-spark`` benchmark, ebird×cloud
RecPart in pairs mode on ``local[2]``, 4-core VM):

* **Arrow UDFs on both sides.** Batches are read column by column into
  numpy and written back the same way, with no pandas frame and no
  string column. The reduce is a plain ``mapInArrow`` rather than
  ``groupBy("pkey").applyInPandas``, whose plan sorts every partition by
  ``pkey`` although each holds one key.
* **No per-row Arrow byte check.** Spark 4.1 feeds Python with
  ``BatchedPythonArrowInput.writeSizedBatch``, which estimates the
  batch's byte size after every row (``ArrowWriter.sizeInBytes()``)
  unless ``spark.sql.execution.arrow.maxBytesPerBatch`` is 2^31−1. A
  JFR profile of a session that loads the inputs and runs the query
  seven times found it in 106 of the executor threads' 694 samples
  (15%), and ``writeSizedBatch`` in 239.
  :func:`distributed_band_join` runs its query at that value and
  restores the session's own afterwards. Batches stay bounded by
  ``maxRecordsPerBatch`` rows of d+3 fixed-width columns (about 0.6 MB
  at 10k rows and d = 3, against the 64 MiB default cap), so the cap
  never binds here; only its per-row check goes.
* **Frozen worker heap.** See :mod:`._daemon`: reused Python workers no
  longer walk every imported module's objects after each task.

Within a task, Spark's writer thread feeds the Python worker while the
worker computes, so the slower of the two sets the task's time, and no
one of these changes pays much alone. In a ``local[2]`` driver script
(median query seconds of two sessions each) the parent took 1.74–1.81 s,
Arrow UDFs alone 1.78–1.80 s, any two of the three 1.58–1.73 s and all
three 1.27–1.38 s. Per query, the executor threads' CPU fell from
1.55–1.67 to 0.87–1.01 s and the Python workers' from 2.60–2.73 to
0.89–1.09 s. On the benchmark, ``exec_s`` fell from 1.495 to 1.132 s
(medians of 10 paired runs, 10 of 10 won).

Spark's Python workers run under :mod:`._daemon` where the driver's
pyspark can serve them (see :func:`_install_site_daemon`).
"""
from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyspark
from pyspark import TaskContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.geometry import band_widths, check_relation
from . import _daemon
from .local_join import band_join_tasks
from .partitioning import Partitioning

DAEMON_KEY = "spark.python.daemon.module"
MAX_BYTES_KEY = "spark.sql.execution.arrow.maxBytesPerBatch"
#: the value at which Spark skips its per-row Arrow batch size estimate
NO_BYTE_CAP = 2**31 - 1
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
    with the partition key ``task_key[task]`` of the task's worker and
    with ``is_s``. A row no partitioning can route (NaN or inf; a null
    reads as NaN) fails the query."""
    names = ["id", *dims, "task", "pkey", "is_s"]

    def gen(batches):
        for b in batches:
            cols = [b.column(c).to_numpy(zero_copy_only=False) for c in dims]
            pts = np.column_stack(cols)
            if len(pts):
                check_relation(pts, side)
            ids = b.column("id").to_numpy(zero_copy_only=False)
            idx, task = part.assign(pts, side, ids=ids)
            task = np.asarray(task, dtype=np.int64)
            yield pa.RecordBatch.from_arrays(
                [
                    pa.array(ids[idx], pa.int64()),
                    *(pa.array(c[idx], pa.float64()) for c in cols),
                    pa.array(task),
                    pa.array(task_key[task], pa.int32()),
                    pa.array(np.full(len(task), side == "S")),
                ],
                names=names,
            )

    schema = (
        "id long, "
        + ", ".join(f"{c} double" for c in dims)
        + ", task long, pkey int, is_s boolean"
    )
    return df.mapInArrow(gen, schema=schema)


def band_join_frame(
    S_df: DataFrame,
    T_df: DataFrame,
    part: Partitioning,
    eps: np.ndarray,
    dims: list[str],
    produce_pairs: bool,
) -> DataFrame:
    """The lazy pipeline behind :func:`distributed_band_join`: (s_id, t_id)
    rows if ``produce_pairs``, else one row per worker that received rows
    (worker, input_s, input_t, output, seconds), the last being its
    local-join time. Its one Exchange is the repartition; the inputs are
    scanned as they are, so their plans should not embed their rows (see
    the module docstring)."""
    task_key = partition_keys(part.w)[part.task_to_worker]
    fan_s = _fanout(S_df, part, "S", dims, task_key)
    fan_t = _fanout(T_df, part, "T", dims, task_key)
    allrows = fan_s.unionByName(fan_t).repartition(part.w, F.col("pkey")).drop("pkey")

    def join_partition(batches):
        batches = [b for b in batches if b.num_rows]
        if not batches:
            return
        t0 = time.perf_counter()
        rows = pa.Table.from_batches(batches)
        is_s = rows.column("is_s").to_numpy()
        is_t = ~is_s
        ids = rows.column("id").to_numpy()
        task = rows.column("task").to_numpy()
        pts = np.column_stack([rows.column(c).to_numpy() for c in dims])
        args = (task[is_s], pts[is_s], task[is_t], pts[is_t], eps)
        if produce_pairs:
            ps, pt, _ = band_join_tasks(*args, produce_pairs=True)
            yield pa.RecordBatch.from_arrays(
                [pa.array(ids[is_s][ps]), pa.array(ids[is_t][pt])],
                names=["s_id", "t_id"],
            )
            return
        _, total = band_join_tasks(*args)
        # shuffle input = one record per (tuple, task) copy, the paper's
        # MapReduce accounting (each grid cell / block pair is its own
        # reduce group)
        n_s = int(is_s.sum())
        yield pa.RecordBatch.from_arrays(
            [
                pa.array([TaskContext.get().partitionId()], pa.int32()),
                pa.array([n_s], pa.int64()),
                pa.array([len(is_s) - n_s], pa.int64()),
                pa.array([total], pa.int64()),
                pa.array([time.perf_counter() - t0], pa.float64()),
            ],
            names=["worker", "input_s", "input_t", "output", "seconds"],
        )

    if produce_pairs:
        schema = "s_id long, t_id long"
    else:
        schema = "worker int, input_s long, input_t long, output long, seconds double"
    return allrows.mapInArrow(join_partition, schema=schema)


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

    The query runs with :data:`MAX_BYTES_KEY` at :data:`NO_BYTE_CAP`
    (see the module docstring); the session's own setting, or its
    absence, is restored afterwards, also when the query fails.
    """
    eps = band_widths(eps, len(dims))
    _install_site_daemon(spark)
    before = spark.conf.get(MAX_BYTES_KEY, None)
    spark.conf.set(MAX_BYTES_KEY, str(NO_BYTE_CAP))
    try:
        t0 = time.perf_counter()
        out = band_join_frame(S_df, T_df, part, eps, dims, produce_pairs).toPandas()
        wall = time.perf_counter() - t0
    finally:
        if before is None:
            spark.conf.unset(MAX_BYTES_KEY)
        else:
            spark.conf.set(MAX_BYTES_KEY, before)
    return (out, None, wall) if produce_pairs else (None, out, wall)
