"""The benchmark's own tests: every workload emits every named metric,
a broken partitioning is caught, and the oracle and the comparison
command say what they claim.

    python3 -m pytest bandbench/tests -q
"""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pytest

from bandbench import compare, sweep
from bandbench.bench import E2E_METRICS, LAYER_METRICS, run_benchmark
from bandbench.oracle import band_join_sql
from bandbench.workloads import WORKLOADS
from repro.dist.local_join import band_join_tasks

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: shrinks each workload to about a thousand tuples per relation
TINY = {"ebird-spark": 0.01, "baselines3d": 0.08}


class DropTaskT:
    """Ships no T tuple to the task that produces the most results, so
    every pair that task should produce goes missing."""

    def __init__(self, part, S, T, eps):
        self.part = part
        self.w, self.n_tasks, self.task_to_worker = part.w, part.n_tasks, part.task_to_worker
        si, st = part.assign(S, "S", ids=np.arange(len(S), dtype=np.int64))
        ti, tt = part.assign(T, "T", ids=np.arange(len(T), dtype=np.int64))
        per_s, _ = band_join_tasks(st, S[si], tt, T[ti], eps)
        self.task = int(np.bincount(st, weights=per_s, minlength=part.n_tasks).argmax())

    def assign(self, points, side, ids=None):
        idx, task = self.part.assign(points, side, ids)
        if side == "T":
            keep = task != self.task
            return idx[keep], task[keep]
        return idx, task


def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(tmp_path, workload, trace):
    result, record = run_benchmark(workload, 3, 0, bool(trace), tmp_path, scale=TINY[workload])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = LAYER_METRICS if trace else E2E_METRICS
    assert list(result["metrics"]) == list(names)
    wl = WORKLOADS[workload]
    assert record["query_sets"] == wl.draws and record["failed_frac"] == 0
    assert result["attempted"] == wl.draws * len(wl.methods)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "ebird-spark":
        assert m["spark.shuffle_records"] == m["exact.I"] > 0
        assert 0 < m["spark.reduce_partitions_used"] <= 30
    elif trace:
        assert m["assign.copies"] == m["exact.I"] > 0
    else:
        assert all(v > 0 for k, v in m.items() if not k.endswith("_overhead"))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_partitioning_raises_failed_frac(tmp_path, workload):
    result, record = run_benchmark(
        workload, 3, 0, False, tmp_path, scale=TINY[workload],
        corrupt=functools.partial(DropTaskT, eps=WORKLOADS[workload].eps_vec),
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert record["failed_frac"] == 1.0


@pytest.mark.parametrize("d", [1, 2, 4])
def test_oracle_query_matches_the_inequality_join(d):
    g = np.random.default_rng(d)
    eps = np.array([0.5, 1.0, 0.25, 2.0][:d])
    # points on a grid of eps multiples, so many pairs sit exactly on the band edge
    S = g.integers(-8, 8, (300, d)) * eps / 2
    T = g.integers(-8, 8, (300, d)) * eps / 2
    con = duckdb.connect()
    for name, x in (("s", S), ("t", T)):
        df = pd.DataFrame(x, columns=[f"a{i}" for i in range(d)])
        df.insert(0, "id", np.arange(len(x), dtype=np.int64))
        con.register(name, df)
    band = " AND ".join(f"abs(s.a{i} - t.a{i}) <= {eps[i]!r}" for i in range(d))
    plain = con.execute(f"SELECT s.id, t.id FROM s, t WHERE {band} ORDER BY 1, 2").fetchall()
    keyed = con.execute(f"{band_join_sql(d, eps, True)} ORDER BY 1, 2").fetchall()
    (count,) = con.execute(band_join_sql(d, eps, False)).fetchone()
    assert keyed == plain and count == len(plain) > 0


def test_compare_verdicts():
    base = {s: 10.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(base, dict(base), "lower", 0.1) == "unchanged"
    assert compare.verdict(base, {s: v * 1.2 for s, v in base.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, "lower", 0.1) == "better"
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, "higher", 0.1) == "worse"
    noisy = {s: 10.0 * (1 + (-1) ** s * 0.3) for s in range(10)}
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"


def test_compare_rejects_a_seed_run_twice():
    run = {"workload": "baselines3d", "seed": 1, "trace": 0,
           "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
    with pytest.raises(ValueError, match="two runs"):
        compare._by_seed({"runs": [run, run]}, "baselines3d", 0, "wall_s")


def test_sweep_alternates_the_two_checkouts(tmp_path, monkeypatch):
    order = []

    def fake_run(checkout, wl, seed, trace, bench):
        order.append((checkout, seed))
        return {"workload": wl, "seed": seed, "trace": trace, "run_s": 0.0,
                "record": {}, "result": {"metrics": {}}}

    monkeypatch.setattr(sweep, "_run", fake_run)
    new, base = tmp_path / "new.json", tmp_path / "base.json"
    args = ["--out", str(new), "--base", str(tmp_path), "--base-out", str(base),
            "--seeds", "1-3", "--workloads", "baselines3d"]
    assert sweep.main(args) == 0
    here, there = sweep.ROOT, tmp_path.resolve()
    assert order == [(here, 1), (there, 1), (there, 2), (here, 2), (here, 3), (there, 3)]
    for f in (new, base):
        assert [r["seed"] for r in json.loads(f.read_text())["runs"]] == [1, 2, 3]
    with pytest.raises(SystemExit):  # the files already hold these seeds
        sweep.main(args)


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bandbench", tmp_path / "bandbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bandbench/run.py", "--workload", "baselines3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
