"""Table 12: accuracy of the running-time model.

Fits M(I, I_m, O_m) by regression on measured Spark runs (the method of
Li et al. [24] the paper uses) across datasets, band widths, sizes and
methods. Each configuration's predicted time comes from a model fitted
on the other configurations only (leave-one-out), so every reported
error is out of sample; the model fitted on all of them is reported on
its own line. The measured time is the slowest worker's local join, as
the operator reports it per worker; (I, I_m, O_m) are those of the
schedule that ran. The paper's bar: <20% relative error in >70% of
cases, never off by more than 1.8x, and correct method ranking.

This job genuinely runs the distributed band-join on the local Spark
session (real shuffles, real local joins).

Usage: spark-submit jobs/table12_model_accuracy.py [--scale 0.1]
"""
from __future__ import annotations

import argparse

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.grid_eps import GridPartitioning
from repro.baselines.one_bucket import OneBucketPartitioning
from repro.core.cost_model import fit
from repro.core.recpart import recpart
from repro.dist.band_join import distributed_band_join
from repro.dist.metrics import evaluate_partitioning
from repro.harness import experiments as X
from repro.harness.jobio import emit
from repro.synth_data import to_spark


def _configs(scale: float):
    """Vary dataset, band width AND input size so the regression sees a
    wide (I, I_m, O_m) range rather than a single cluster (a one-size
    benchmark would be absorbed by the intercept)."""
    out = []
    for frac in (0.25, 0.5, 1.0):
        n = max(100, int(X.N0 * scale * frac))
        S, T = X.pareto_inputs(n, 1.5, 1)
        out.append((f"pareto d=1 n={n} eps=0.2", S, T, np.array([0.2])))
        S3, T3 = X.pareto_inputs(n, 1.5, 3)
        out.append((f"pareto d=3 n={n} eps=35", S3, T3, np.full(3, X.EPS_3D[1])))
    e_, c_ = X.ebird_cloud_inputs(scale * 0.4)
    out.append(("ebird x cloud eps=2", e_, c_, np.full(3, 2.0)))
    return out


def _methods(S, T, eps, w):
    yield "RecPart-S", recpart(S, T, eps, w, seed=0, symmetric=False).partitioning
    yield "1-Bucket", OneBucketPartitioning(len(S), len(T), w, seed=0)
    if np.all(eps > 0):
        yield "Grid-eps", GridPartitioning(S, T, eps, eps, w, seed=0)


def max_error_factor(errs: np.ndarray) -> float:
    """Largest factor by which a prediction is off, from signed relative
    errors ``(predicted - measured) / measured``: predicted/measured is
    ``1 + err``, so -50% is off by 2x just as +100% is."""
    return float(np.maximum(1 + errs, 1 / (1 + errs)).max())


def run(scale: float = 0.1, w: int = 8, spark: SparkSession | None = None) -> list[str]:
    spark = spark or SparkSession.builder.appName("table12").getOrCreate()
    rows, times, labels = [], [], []
    # warm up executors / Arrow so the first measured run is not inflated
    Sw, Tw = X.pareto_inputs(500, 1.5, 1)
    distributed_band_join(
        spark, to_spark(spark, Sw), to_spark(spark, Tw),
        OneBucketPartitioning(500, 500, 2, seed=0), np.array([0.1]), ["a1"],
    )
    for name, S, T, eps in _configs(scale):
        dims = [f"a{i+1}" for i in range(S.shape[1])]
        S_df = to_spark(spark, S)
        T_df = to_spark(spark, T)
        for mname, part in _methods(S, T, eps, w):
            # Spark runs the partitioning's own task-to-worker schedule
            ev = evaluate_partitioning(part, S, T, eps, reschedule=False)
            # the modelled time is the slowest worker's local join; of two
            # runs keep the faster, since warm-up noise is not part of it
            slowest = []
            for _ in range(2):
                _, stats, _ = distributed_band_join(spark, S_df, T_df, part, eps, dims)
                slowest.append(stats["seconds"].max())
            rows.append([ev.I, ev.I_m, ev.O_m])
            times.append(min(slowest))
            labels.append(f"{name} {mname}")
    rows = np.array(rows, dtype=float)
    times = np.array(times)
    cm = fit(rows, times)
    lines = [
        f"| fitted model (all {len(rows)} configurations) | b0={cm.b0:.3f} b1={cm.b1:.2f} "
        f"b2={cm.b2:.2f} b3={cm.b3:.2f} unit={cm.unit:.3g} | | | | | | |"
    ]
    errs = []
    for k, (lab, r, t) in enumerate(zip(labels, rows, times)):
        # leave-one-out: the model that predicts a configuration never saw it
        pred = fit(np.delete(rows, k, axis=0), np.delete(times, k)).predict(*r)
        err = (pred - t) / t
        errs.append(err)
        lines.append(
            f"| {lab} | predicted={pred:.2f}s measured={t:.2f}s | err={err:+.1%} "
            f"| - | {int(r[0])} | {int(r[1])} | {int(r[2])} | |"
        )
    errs = np.array(errs)
    lines.append(
        f"| summary (leave-one-out) | <20% err in {np.mean(np.abs(errs) < 0.2):.0%} of cases, "
        f"max factor {max_error_factor(errs):.2f} | | | | | | |"
    )
    return lines


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--workers", type=int, default=8)
    args = ap.parse_args()
    emit("12", "running-time model accuracy (real Spark runs)", run(args.scale, args.workers))


if __name__ == "__main__":
    main()
