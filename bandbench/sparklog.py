"""Map, shuffle and reduce metrics from Spark's own event log.

The traced Spark run writes an uncompressed, non-rolling event log
(Spark 4 defaults to a zstd-compressed rolling directory). Each query
set runs under its own job group; its stages split into the map side
(stages that write shuffle records: the ``mapInPandas`` fan-out) and
the reduce side (result stages that read them: ``applyInPandas``, one
task per Spark partition). A reduce partition that reads no record is
unused, so two logical workers that hash to one partition show up as
``reduce_partitions_used`` below the worker count.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

SPARK_METRICS = {
    "spark.map_stage_s": "s",
    "spark.reduce_stage_s": "s",
    "spark.reduce_task_max_s": "s",
    "spark.reduce_task_p50_s": "s",
    "spark.fetch_wait_s": "s",
    "spark.shuffle_records": "count",
    "spark.shuffle_bytes": "B",
    "spark.reduce_partitions_used": "count",
    "spark.reduce_records_max": "count",
    "spark.driver_collect_s": "s",
}


def read_groups(log_dir: Path) -> dict[str, dict[str, float]]:
    """Per job group: the :data:`SPARK_METRICS` other than
    ``driver_collect_s``, plus ``reduce_end_epoch_s``, the wall-clock time
    the last reduce stage completed."""
    group_of: dict[int, str] = {}
    window: dict[int, tuple[float, float]] = {}
    tasks: dict[int, list[dict]] = defaultdict(list)
    for path in sorted(log_dir.iterdir()):
        with open(path) as f:
            for line in f:
                ev = json.loads(line)
                kind = ev["Event"]
                if kind == "SparkListenerStageSubmitted":
                    group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                    if group is not None:
                        group_of[ev["Stage Info"]["Stage ID"]] = group
                elif kind == "SparkListenerStageCompleted":
                    info = ev["Stage Info"]
                    window[info["Stage ID"]] = (
                        info["Submission Time"] / 1000, info["Completion Time"] / 1000
                    )
                elif kind == "SparkListenerTaskEnd" and "Task Metrics" in ev:
                    tasks[ev["Stage ID"]].append(ev["Task Metrics"])

    out: dict[str, dict[str, float]] = {}
    for group in set(group_of.values()):
        stages = [sid for sid, g in group_of.items() if g == group and sid in window]
        m = dict.fromkeys(SPARK_METRICS, 0.0)
        reduce_tasks: list[dict] = []
        reduce_end = 0.0
        for sid in stages:
            written = [t["Shuffle Write Metrics"] for t in tasks[sid]]
            read = [t["Shuffle Read Metrics"]["Total Records Read"] for t in tasks[sid]]
            start, end = window[sid]
            if sum(w["Shuffle Records Written"] for w in written):
                m["spark.map_stage_s"] += end - start
                m["spark.shuffle_records"] += sum(w["Shuffle Records Written"] for w in written)
                m["spark.shuffle_bytes"] += sum(w["Shuffle Bytes Written"] for w in written)
            elif sum(read):
                m["spark.reduce_stage_s"] += end - start
                reduce_tasks += tasks[sid]
                reduce_end = max(reduce_end, end)
        if reduce_tasks:
            run_s = [t["Executor Run Time"] / 1000 for t in reduce_tasks]
            records = [t["Shuffle Read Metrics"]["Total Records Read"] for t in reduce_tasks]
            m["spark.reduce_task_max_s"] = max(run_s)
            m["spark.reduce_task_p50_s"] = statistics.median(run_s)
            m["spark.fetch_wait_s"] = sum(
                t["Shuffle Read Metrics"]["Fetch Wait Time"] for t in reduce_tasks
            ) / 1000
            m["spark.reduce_partitions_used"] = sum(r > 0 for r in records)
            m["spark.reduce_records_max"] = max(records)
        del m["spark.driver_collect_s"]
        m["reduce_end_epoch_s"] = reduce_end
        out[group] = m
    return out
