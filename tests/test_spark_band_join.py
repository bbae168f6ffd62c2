"""Spark integration tests: the distributed band-join operator under
every partitioning, verified row-by-row against the DuckDB oracle."""
import gc
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pyspark
import pytest
from pyspark.sql import functions as F

from repro.baselines.grid_eps import GridPartitioning
from repro.baselines.iejoin import IEJoinPartitioning
from repro.baselines.one_bucket import OneBucketPartitioning
from repro.core.recpart import recpart
from repro.dist import _daemon
from repro.dist.band_join import (
    DAEMON_KEY,
    MAX_BYTES_KEY,
    _install_site_daemon,
    band_join_frame,
    distributed_band_join,
    partition_keys,
)
from repro.dist.metrics import evaluate_partitioning
from repro.oracle import assert_equivalent
from repro.synth_data import lineitem, orders, pareto_points, to_spark

from tests.helpers import catalyst_band_join_count

N = 1200
D = 2
EPS = np.array([40.0, 40.0])
DIMS = ["a1", "a2"]


@pytest.fixture(scope="module")
def data(spark):
    S = pareto_points(N, 1.5, D, seed=1)
    T = pareto_points(N, 1.5, D, seed=2)
    s_pdf = pd.DataFrame(S, columns=DIMS)
    s_pdf.insert(0, "id", np.arange(N, dtype=np.int64))
    t_pdf = pd.DataFrame(T, columns=DIMS)
    t_pdf.insert(0, "id", np.arange(N, dtype=np.int64))
    return S, T, s_pdf, t_pdf, to_spark(spark, S), to_spark(spark, T)


PAIR_SQL = """
    select s.id as s_id, t.id as t_id
    from s, t
    where abs(s.a1 - t.a1) <= 40 and abs(s.a2 - t.a2) <= 40
"""


def _parts(S, T):
    return {
        "recpart": recpart(S, T, EPS, 4, seed=0).partitioning,
        "recpart_s": recpart(S, T, EPS, 4, seed=0, symmetric=False).partitioning,
        "one_bucket": OneBucketPartitioning(len(S), len(T), 4, seed=0),
        "grid_eps": GridPartitioning(S, T, EPS, EPS, 4),
        "iejoin": IEJoinPartitioning(S, T, EPS, 4, 200, seed=0),
    }


@pytest.mark.parametrize(
    "method", ["recpart", "recpart_s", "one_bucket", "grid_eps", "iejoin"]
)
def test_operator_result_matches_duckdb_oracle(spark, data, method):
    """Every partitioner's distributed execution must return exactly the
    DuckDB band-join rows — the core Definition-1 guarantee, end to end
    through the real map-shuffle-reduce pipeline."""
    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = _parts(S, T)[method]
    pairs, _, _ = distributed_band_join(spark, S_df, T_df, part, EPS, DIMS, produce_pairs=True)
    result_df = spark.createDataFrame(pairs[["s_id", "t_id"]])
    assert_equivalent(result_df, PAIR_SQL, s=s_pdf, t=t_pdf)


def test_counts_path_matches_pairs_path(spark, data):
    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
    pairs, _, _ = distributed_band_join(spark, S_df, T_df, part, EPS, DIMS, produce_pairs=True)
    _, stats, _ = distributed_band_join(spark, S_df, T_df, part, EPS, DIMS)
    assert list(pairs.columns) == ["s_id", "t_id"]
    assert list(stats.columns) == ["worker", "input_s", "input_t", "output", "seconds"]
    assert (stats["seconds"] > 0).all()
    assert stats["output"].sum() == len(pairs)


def test_spark_stats_match_simulator(spark, data):
    """The Spark execution's per-worker shuffle inputs must equal the
    numpy simulator's exact accounting."""
    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
    _, stats, _ = distributed_band_join(spark, S_df, T_df, part, EPS, DIMS)
    ev = evaluate_partitioning(part, S, T, EPS, reschedule=False)
    assert int(stats["input_s"].sum() + stats["input_t"].sum()) == ev.I
    assert int(stats["output"].sum()) == ev.O_total
    got = stats.set_index("worker").sort_index()
    want_in = ev.worker_input
    assert [int(got.loc[i, "input_s"] + got.loc[i, "input_t"]) for i in got.index] == [
        int(want_in[i]) for i in got.index
    ]


def test_stats_skip_workers_without_tuples(spark, data):
    """At w = 5, 1-Bucket's 2 x 2 cover occupies four tasks; the fifth
    worker receives no tuple and reports no row."""
    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 5, seed=0)
    assert part.n_tasks == 4
    _, stats, _ = distributed_band_join(spark, S_df, T_df, part, EPS, DIMS)
    assert sorted(stats["worker"]) == [0, 1, 2, 3]
    assert (stats["input_s"] + stats["input_t"] > 0).all()


def test_catalyst_reference_count(spark, data):
    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
    _, stats, _ = distributed_band_join(spark, S_df, T_df, part, EPS, DIMS)
    assert stats["output"].sum() == catalyst_band_join_count(spark, S_df, T_df, EPS, DIMS)


def test_eps_zero_equi_join(spark, data):
    S, T, s_pdf, t_pdf, S_df, T_df = data
    eps0 = np.array([0.0, 0.0])
    part = recpart(S, T, eps0, 4, seed=0).partitioning
    pairs, _, _ = distributed_band_join(spark, S_df, T_df, part, eps0, DIMS, produce_pairs=True)
    result_df = spark.createDataFrame(
        pairs[["s_id", "t_id"]], schema="s_id long, t_id long"
    )
    assert_equivalent(
        result_df,
        "select s.id as s_id, t.id as t_id from s, t where s.a1 = t.a1 and s.a2 = t.a2",
        s=s_pdf,
        t=t_pdf,
    )


def test_nan_row_in_t_fails_the_query(spark, data):
    """A NaN coordinate lies in no region: the split tree would ship the
    row to no task. The map stage rejects it, naming the relation."""
    S, T, s_pdf, t_pdf, S_df, T_df = data
    bad = T.copy()
    bad[7, 1] = np.nan
    part = recpart(S, T, EPS, 4, seed=0).partitioning
    with pytest.raises(Exception, match="relation T has a NaN or infinite coordinate"):
        distributed_band_join(spark, S_df, to_spark(spark, bad), part, EPS, DIMS)


@pytest.mark.parametrize("eps", [[-40.0, 40.0], [40.0, np.nan], [40.0], 40.0])
def test_bad_eps_raises(spark, data, eps):
    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
    with pytest.raises(ValueError, match="band width"):
        distributed_band_join(spark, S_df, T_df, part, eps, DIMS)


@pytest.mark.parametrize("caller_value", [None, "1m"])
def test_arrow_byte_cap_restored(spark, data, caller_value):
    """The query lifts the Arrow byte cap for itself alone: the session's
    setting, or its absence, is back after a query and after one that
    fails."""
    S, T, s_pdf, t_pdf, S_df, T_df = data
    bad = T.copy()
    bad[7, 1] = np.nan
    part = recpart(S, T, EPS, 4, seed=0).partitioning
    if caller_value is None:
        spark.conf.unset(MAX_BYTES_KEY)
    else:
        spark.conf.set(MAX_BYTES_KEY, caller_value)
    try:
        distributed_band_join(spark, S_df, T_df, part, EPS, DIMS)
        assert spark.conf.get(MAX_BYTES_KEY, None) == caller_value
        with pytest.raises(Exception, match="NaN or infinite"):
            distributed_band_join(spark, S_df, to_spark(spark, bad), part, EPS, DIMS)
        assert spark.conf.get(MAX_BYTES_KEY, None) == caller_value
    finally:
        spark.conf.unset(MAX_BYTES_KEY)


def test_workers_import_pyspark_outside_zips(spark, data):
    """After a join, Spark's Python workers load pyspark from
    site-packages and hold no zip importer, whose re-reading on every
    task is the fixed per-task cost the daemon removes."""

    def imports(batches):
        for _ in batches:
            cache = sys.path_importer_cache.values()
            yield pd.DataFrame(
                {
                    "file": [pyspark.__file__],
                    "zips": [sum(isinstance(f, zipimport.zipimporter) for f in cache)],
                }
            )

    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
    distributed_band_join(spark, S_df, T_df, part, EPS, DIMS)
    got = (
        spark.range(4, numPartitions=2)
        .mapInPandas(imports, "file string, zips int")
        .toPandas()
    )
    assert not got["file"].str.contains(".zip", regex=False).any()
    assert (got["zips"] == 0).all()


def test_worker_heap_frozen_by_daemon(spark, data):
    """After a join, Spark's Python workers inherit the daemon's frozen
    heap, so pyspark's post-task ``gc.collect()`` skips the imported
    modules."""

    def frozen(batches):
        for _ in batches:
            yield pd.DataFrame({"frozen": [gc.get_freeze_count()]})

    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
    distributed_band_join(spark, S_df, T_df, part, EPS, DIMS)
    got = spark.range(4, numPartitions=2).mapInPandas(frozen, "frozen long").toPandas()
    assert (got["frozen"] > 0).all()


def _without_daemon_key(spark):
    conf = spark.sparkContext._conf
    before = conf.get(DAEMON_KEY)
    conf._jconf.remove(DAEMON_KEY)
    return conf, before


@pytest.mark.parametrize(
    "attr, value",
    [("__version__", "0.0.0"), ("__file__", "/x/lib/pyspark.zip/pyspark/__init__.py")],
)
def test_stock_daemon_kept_unless_driver_pyspark_serves_workers(
    spark, monkeypatch, attr, value
):
    """A driver pyspark of another version than the JVM, or one read from
    a zip, says nothing of a site-packages pyspark the workers could use."""
    conf, before = _without_daemon_key(spark)
    monkeypatch.setattr(pyspark, attr, value)
    try:
        _install_site_daemon(spark)
        assert conf.get(DAEMON_KEY) is None
    finally:
        if before is not None:
            conf.set(DAEMON_KEY, before)


def test_explicit_daemon_module_is_kept(spark):
    conf, before = _without_daemon_key(spark)
    conf.set(DAEMON_KEY, "pyspark.daemon")
    try:
        _install_site_daemon(spark)
        assert conf.get(DAEMON_KEY) == "pyspark.daemon"
    finally:
        conf._jconf.remove(DAEMON_KEY)
        if before is not None:
            conf.set(DAEMON_KEY, before)


def test_daemon_path_kept_when_pyspark_is_only_zipped(tmp_path):
    zipped = tmp_path / "pyspark.zip"
    with zipfile.ZipFile(zipped, "w") as z:
        z.writestr("pyspark/__init__.py", "")
    plain = tmp_path / "plain"
    plain.mkdir()
    path = [str(zipped), str(plain), str(tmp_path / "core.jar")]
    assert _daemon.site_path(path) == path
    (plain / "pyspark").mkdir()
    (plain / "pyspark" / "__init__.py").write_text("")
    assert _daemon.site_path(path) == [str(plain)]


@pytest.mark.parametrize("w", [1, 4, 30, 97])
def test_partition_keys_hash_to_their_partition(spark, w):
    keys = partition_keys(w)
    df = spark.createDataFrame(
        pd.DataFrame({"i": np.arange(w, dtype=np.int32), "k": keys})
    )
    assert df.filter(F.pmod(F.hash("k"), F.lit(w)) != F.col("i")).count() == 0


def test_one_worker_per_spark_partition(spark, data):
    """Each logical worker is its own Spark partition, and the reduce
    reads its partition as it arrives: no shuffle and no sort after the
    repartition. The inputs are scanned from their checkpoint blocks, not
    from rows the plan carries into every map task."""
    S, T, s_pdf, t_pdf, S_df, T_df = data
    part = OneBucketPartitioning(len(S), len(T), 4, seed=0)
    frame = band_join_frame(S_df, T_df, part, EPS, DIMS, produce_pairs=False)
    got = frame.select("worker", F.spark_partition_id().alias("p")).toPandas()
    assert sorted(got["worker"]) == [0, 1, 2, 3]
    assert (got["worker"] == got["p"]).all()
    plan = frame._jdf.queryExecution().executedPlan().toString()
    assert plan.count("Exchange") == 1
    assert "Sort" not in plan
    assert "LocalTableScan" not in plan


class TestTpchDateBandJoin:
    """Band-join on TPC-H-lite date columns: the operator vs a plain
    Catalyst/DuckDB formulation, exercising the provided generators."""

    @pytest.fixture(scope="class")
    def tpch(self, spark):
        li = lineitem(spark, sf=0.002).withColumn(
            "ship_day", F.datediff("l_shipdate", F.lit("1992-01-01")).cast("double")
        )
        o = orders(spark, sf=0.002).withColumn(
            "order_day", F.datediff("o_orderdate", F.lit("1992-01-01")).cast("double")
        )
        li_p = li.select("l_orderkey", "ship_day").toPandas()
        o_p = o.select("o_orderkey", "order_day").toPandas()
        return li_p, o_p

    def test_orders_lineitem_within_2_days(self, spark, tpch):
        li_p, o_p = tpch
        li_sub = li_p.head(1500).reset_index(drop=True)
        o_sub = o_p.head(1500).reset_index(drop=True)
        S = li_sub[["ship_day"]].to_numpy(float)
        T = o_sub[["order_day"]].to_numpy(float)
        eps = np.array([2.0])
        part = recpart(S, T, eps, 4, seed=0).partitioning
        S_df = to_spark(spark, S)
        T_df = to_spark(spark, T)
        pairs, _, _ = distributed_band_join(
            spark, S_df, T_df, part, eps, ["a1"], produce_pairs=True
        )
        s_pdf = pd.DataFrame({"id": np.arange(len(S)), "a1": S[:, 0]})
        t_pdf = pd.DataFrame({"id": np.arange(len(T)), "a1": T[:, 0]})
        assert_equivalent(
            spark.createDataFrame(pairs[["s_id", "t_id"]]),
            "select s.id as s_id, t.id as t_id from s, t where abs(s.a1 - t.a1) <= 2",
            s=s_pdf,
            t=t_pdf,
        )

    def test_aggregate_over_band_join(self, spark, tpch):
        """Aggregation on top of the operator's output checked against
        DuckDB: matches-per-order histogram."""
        li_p, o_p = tpch
        S = li_p[["ship_day"]].head(1000).to_numpy(float)
        T = o_p[["order_day"]].head(1000).to_numpy(float)
        eps = np.array([1.0])
        part = recpart(S, T, eps, 4, seed=0).partitioning
        pairs, _, _ = distributed_band_join(
            spark, to_spark(spark, S), to_spark(spark, T), part, eps, ["a1"],
            produce_pairs=True,
        )
        agg = (
            spark.createDataFrame(pairs[["s_id", "t_id"]])
            .groupBy("t_id")
            .agg(F.count("*").alias("n"))
        )
        s_pdf = pd.DataFrame({"id": np.arange(len(S)), "a1": S[:, 0]})
        t_pdf = pd.DataFrame({"id": np.arange(len(T)), "a1": T[:, 0]})
        assert_equivalent(
            agg,
            """select t.id as t_id, count(*) as n from s, t
               where abs(s.a1 - t.a1) <= 1 group by t.id""",
            s=s_pdf,
            t=t_pdf,
        )
