"""One benchmark run: set up, measure a closed loop, check, report.

Set-up generates the run's input draws and issues one untimed warm-up
query set. Then one client issues query sets round-robin over the draws,
waits for each to return, checks every query against the DuckDB oracle,
and issues the next until ``seconds`` have passed and every draw has had
a set; the set in flight always completes. Every metric is the median
over one input draw's sets, averaged over the draws. Checking and
the exact partition quality the Spark workload needs are computed
between sets, outside every timed region.

With ``trace`` the run wraps the program's entry points (tracing.py)
and, on Spark, reads the event log (sparklog.py), and reports per-layer
metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.metadata
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.core.cost_model import CostModel
from repro.dist.band_join import distributed_band_join
from repro.dist.metrics import evaluate_partitioning

from . import oracle
from .sparklog import SPARK_METRICS, read_groups
from .tracing import SPAN_METRICS, Tracer, install, span_metrics
from .workloads import WORKLOADS, Corrupt, Query, QuerySet, Workload, run_query_set

ROOT = Path(__file__).resolve().parent.parent

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "exec_s": "s",
    "dup_overhead": "ratio",
    "load_overhead": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_METRICS = {
    **SPAN_METRICS,
    **SPARK_METRICS,
    "exact.I": "count",
    "traced.wall_s": "s",
    "traced.plan_s": "s",
}
#: input generation is repeated and its median taken, so set-up time
#: is steady even where generation takes milliseconds
GEN_REPEATS = 3


class SparkEnv:
    """A local Spark session holding the cached inputs of one workload."""

    def __init__(self, cores: int, workdir: Path, event_log: bool):
        from pyspark.sql import SparkSession

        # Spark's Python workers import repro (and, for a fault-injecting
        # test, this package) on their own.
        extra = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), *extra])
        local, tmp = workdir / "spark-local", workdir / "tmp"
        for p in (local, tmp):
            p.mkdir(parents=True, exist_ok=True)
        os.environ["SPARK_LOCAL_DIRS"] = str(local)
        # the JVM that builds Spark's launch command writes /tmp/hsperfdata_* otherwise
        os.environ["SPARK_LAUNCHER_OPTS"] = (
            os.environ.get("SPARK_LAUNCHER_OPTS", "") + " -XX:-UsePerfData"
        ).strip()
        b = (
            SparkSession.builder.master(f"local[{cores}]")
            .appName("bandbench")
            .config("spark.driver.memory", "2g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        )
        self.log_dir: Path | None = None
        if event_log:
            self.log_dir = workdir / "eventlog"
            shutil.rmtree(self.log_dir, ignore_errors=True)
            self.log_dir.mkdir(parents=True)
            b = (
                b.config("spark.eventLog.enabled", "true")
                .config("spark.eventLog.dir", self.log_dir.as_uri())
                .config("spark.eventLog.compress", "false")
                .config("spark.eventLog.rolling.enabled", "false")
            )
        self.master = f"local[{cores}]"
        self.spark = b.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")

    def load(self, S: np.ndarray, T: np.ndarray) -> None:
        from repro.synth_data import to_spark

        self.dims = [f"a{i + 1}" for i in range(S.shape[1])]
        self.S_df = to_spark(self.spark, S).cache()
        self.T_df = to_spark(self.spark, T).cache()
        self.S_df.count()
        self.T_df.count()

    def group(self, name: str) -> None:
        self.spark.sparkContext.setJobGroup(name, name)

    def join(self, part, eps: np.ndarray) -> np.ndarray:
        pairs, _, _ = distributed_band_join(
            self.spark, self.S_df, self.T_df, part, eps, self.dims, produce_pairs=True
        )
        return pairs[["s_id", "t_id"]].to_numpy(np.int64)

    def stop(self) -> None:
        """Stop the session and the JVM it runs in, and wait for the JVM."""
        from pyspark import SparkContext

        self.spark.stop()
        gw = SparkContext._gateway
        if gw is None:
            return
        proc = getattr(gw, "proc", None)
        gw.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def exact_eval(part, S, T, eps, cm: CostModel, memo: dict):
    """``evaluate_partitioning`` of ``part``, once per distinct assignment:
    I and L_m are a function of which tuples reach which tasks, and a
    deterministic optimizer returns the same partitioning every set."""
    key = hashlib.sha256()
    for side, pts in (("S", S), ("T", T)):
        for a in part.assign(pts, side, ids=np.arange(len(pts), dtype=np.int64)):
            key.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    key = key.hexdigest()
    if key not in memo:
        memo[key] = evaluate_partitioning(part, S, T, eps, beta2=cm.b2, beta3=cm.b3)
    return memo[key]


def check(q: Query, wl: Workload, S, T, truth, cm: CostModel, memo: dict) -> str | None:
    """Why ``q`` failed, or None. On Spark, also fills in ``q.ev``."""
    if q.error is not None:
        return q.error
    if wl.spark:
        got = oracle.pair_keys(q.pairs[:, 0], q.pairs[:, 1], len(T))
        if not np.array_equal(got, truth):
            return f"{q.method}: result pairs differ from the oracle ({len(got)} vs {len(truth)})"
        q.ev = exact_eval(q.part, S, T, wl.eps_vec, cm, memo)
    elif q.ev.O_total != truth:
        return f"{q.method}: {q.ev.O_total} results, the oracle has {truth}"
    return None


def _worst(qs: QuerySet, attr: str) -> float | None:
    vals = [getattr(q.ev, attr) for q in qs.queries if q.ev is not None and q.error is None]
    return max(vals) if vals else None


def per_draw_mean(rows: list[tuple[int, dict[str, float | None]]]) -> dict[str, float]:
    """Each metric's median over the query sets of one input draw, then
    the mean of those medians over the draws. ``rows`` holds (draw,
    metrics of one set); a None value (every query failed) is left out.
    The median damps a slow stretch of the machine; the mean over draws
    weighs every draw's data alike."""
    by_draw: dict[int, list[dict]] = {}
    for j, row in rows:
        by_draw.setdefault(j, []).append(row)
    out = {}
    for k in rows[0][1] if rows else ():
        meds = [statistics.median(vs) for ds in by_draw.values()
                if (vs := [r[k] for r in ds if r[k] is not None])]
        out[k] = statistics.fmean(meds) if meds else 0.0
    return out


def versions() -> dict[str, str | None]:
    out: dict[str, str | None] = {"python": platform.python_version()}
    for pkg in ("numpy", "pandas", "pyspark", "duckdb"):
        out[pkg] = importlib.metadata.version(pkg)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    try:
        r = subprocess.run(
            [java, "-XX:-UsePerfData", "-version"], capture_output=True, text=True, timeout=60
        )
        out["java"] = (r.stderr or r.stdout).splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        out["java"] = None
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _result(metrics: dict[str, float], units: dict[str, str], attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scale: float = 1.0,
    corrupt: Corrupt | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    wl = WORKLOADS[workload]
    cm = CostModel()
    gen_s = []
    for _ in range(GEN_REPEATS):
        t = time.perf_counter()
        draws = wl.inputs(seed, scale)
        gen_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    answers = [oracle.answer(S, T, wl.eps_vec, wl.spark, workdir / "oracle") for S, T in draws]
    oracle_s = time.perf_counter() - t
    truths = [a for a, _ in answers]
    o_totals = [int(len(a) if wl.spark else a) for a in truths]
    setup_s = statistics.median(gen_s)
    memo: dict = {}

    # Two Spark task slots leave the other CPUs of a 4-core VM to the JVM's
    # own threads and the driver. With a busy-loop process on one CPU, a
    # set took 14-23% longer at local[4] and local[3], 0-6% longer at
    # local[2]. Over ten alternating runs, local[2] was 18% slower than
    # local[4] and its wall_s spread half as wide (6.8% against 13.3%).
    cores = min(2, len(os.sched_getaffinity(0)))
    tracer = Tracer() if trace else None
    spark: SparkEnv | None = None
    sets: list[tuple[int, QuerySet]] = []  # (draw, query set)
    set_spans: list[list] = []
    failures: list[str] = []
    try:
        t = time.perf_counter()
        if wl.spark:
            spark = SparkEnv(cores, workdir, event_log=trace)
            spark.load(*draws[0])
            spark.group("warmup")
        # the first set in a process runs up to 1.5x slower than later ones
        run_query_set(wl, *draws[0], cm, spark.join if spark else None)
        setup_s += time.perf_counter() - t
        epoch_offset = time.time() - time.perf_counter()
        deadline = time.perf_counter() + seconds
        with install(tracer) if tracer else contextlib.nullcontext():
            # round-robin over the draws, every draw at least once
            while time.perf_counter() < deadline or len(sets) < len(draws):
                j = len(sets) % len(draws)
                S, T = draws[j]
                if spark is not None:
                    spark.group(f"set{len(sets)}")
                gc.collect()  # so no set pays for the garbage of the one before
                first = len(tracer.spans) if tracer else 0
                with tracer.span("query_set") if tracer else contextlib.nullcontext():
                    qs = run_query_set(wl, S, T, cm, spark.join if spark else None, corrupt)
                if tracer:
                    set_spans.append(tracer.spans[first:])
                for q in qs.queries:
                    why = check(q, wl, S, T, truths[j], cm, memo)
                    if why is not None:
                        q.error = why
                        failures.append(why)
                for q in qs.queries:  # keep only what the metrics read
                    q.part = q.pairs = None
                sets.append((j, qs))
    finally:
        if spark is not None:
            spark.stop()

    attempted = sum(len(qs.queries) for _, qs in sets)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "query_sets": len(sets),
        "set_wall_s": [qs.wall_s for _, qs in sets],
        "set_exec_s": [qs.exec_s for _, qs in sets],
        "queries_per_set": len(wl.methods),
        "input_draws": wl.draws,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "oracle_cached": all(c for _, c in answers),
        "oracle_s": oracle_s,
        "result_sizes": o_totals,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "spark_master": spark.master if spark else None,
        "spark_cores": cores if spark else None,
        "versions": versions(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "git_commit": git_commit(),
    }
    if not trace:
        # Not an end-to-end metric: on ebird-spark, planning right after a
        # Spark job overlaps the JVM's post-job work, and on a 4-core VM its
        # median spread 35% from run to run, wider than any bound allowed.
        e2e = per_draw_mean([
            (j, {"wall_s": qs.wall_s, "exec_s": qs.exec_s, "plan_s": qs.plan_s,
                 "dup_overhead": _worst(qs, "dup_overhead"),
                 "load_overhead": _worst(qs, "load_overhead")})
            for j, qs in sets
        ])
        record["plan_s"] = e2e.pop("plan_s")
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return _result(e2e, E2E_METRICS, attempted, len(failures)), record

    groups = read_groups(spark.log_dir) if spark and spark.log_dir else {}
    rows = []
    for i, ((j, qs), spans) in enumerate(zip(sets, set_spans)):
        row = span_metrics(spans, o_totals[j])
        row["exact.I"] = sum(q.ev.I for q in qs.queries if q.ev is not None)
        row["traced.wall_s"] = qs.wall_s
        row["traced.plan_s"] = qs.plan_s
        g = groups.get(f"set{i}")
        row.update({k: (g or {}).get(k, 0.0) for k in SPARK_METRICS})
        joins = [s for s in spans if s.name == "spark_join"]
        if g and joins:
            row["spark.driver_collect_s"] = joins[-1].end + epoch_offset - g["reduce_end_epoch_s"]
        rows.append((j, row))
    return _result(per_draw_mean(rows), LAYER_METRICS, attempted, len(failures)), record
