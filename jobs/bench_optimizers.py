"""Optimizer-layer benchmark: RecPart and CS_IO search time, parent vs change.

Times only the optimizers (``recpart`` and ``build_csio`` on pre-drawn
samples, as the tables' opt-time column does) on fixed workloads in two
source trees: this checkout's ``src`` and a ``--base`` tree (an unpacked
copy of the parent commit). Each tree runs in its own subprocess, so
both import their own ``repro``; ``--rounds`` subprocesses per tree run
in alternating order, ``--repeat`` timed runs each, and a case keeps
its best time.

Besides the times, every case records a digest of what the optimizer
produced, and the two trees' digests must match:

* RecPart: the sequence of recursive splits applied, the best tree's
  nodes with their (r, c) grids, ``task_to_worker``, ``n_iters`` and
  every history ``obj``;
* CS_IO: the stripe bounds, each relevant cell's rectangle and the
  rectangle loads;
* both: the routing, ``assign`` of the full S and of the full T
  (row, task) under the partitioning returned.

Usage (from the repository root)::

    git archive <parent> | tar -x -C /path/to/parent
    python jobs/bench_optimizers.py --base /path/to/parent/src \\
        --out BENCH_optimizers.json

Without ``--base`` only this checkout is timed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: (name, inputs, eps per dimension, d, w); inputs are built by ``_inputs``
INPUTS = [
    ("ebird_cloud_w30", "ebird", 2.0, 3, 30),
    ("pareto_d8_20k_w60", "pareto8", 400.0, 8, 60),
    ("pareto_d3_100k_w30", "pareto3", 140.0, 3, 30),
    ("baselines3d", "baselines3d", 35.0, 3, 30),
]
#: (optimizer, termination) per input; baselines3d runs no RecPart
OPTIMIZERS = [
    ("recpart", "theoretical"),
    ("recpart", "applied"),
    ("recpart_s", "theoretical"),
    ("recpart_s", "applied"),
    ("csio", None),
]
#: cases whose times are recorded; the others are checked for identity only
TIMED = {"recpart", "csio"}


def _inputs(kind: str):
    from repro.harness import experiments as X

    if kind == "ebird":
        return X.ebird_cloud_inputs()
    if kind == "pareto8":
        return X.pareto_inputs(X.N8, 1.5, 8)
    if kind == "pareto3":
        return X.pareto_inputs(X.N0, 1.5, 3)
    # the benchmark's baselines3d workload, seed 1
    return X.pareto_inputs(12_500, 1.5, 3, seed=1)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _routing(part, S, T) -> list:
    """``(idx, task)`` of ``part.assign`` on all of S, then of T."""
    return [*part.assign(S, "S"), *part.assign(T, "T")]


def _recpart_digest(run, S, T) -> str:
    """Run ``run()`` while recording every split the optimizer applies."""
    from repro.core import split_tree

    splits = []
    to_inner = split_tree.TreeNode.to_inner

    def recording(self, dim, value, dup_side):
        splits.append((int(dim), float(value), dup_side))
        return to_inner(self, dim, value, dup_side)

    split_tree.TreeNode.to_inner = recording
    try:
        res = run()
    finally:
        split_tree.TreeNode.to_inner = to_inner
    nodes, stack = [], [res.partitioning.root]
    while stack:
        n = stack.pop()
        nodes.append((int(n.dim), float(n.value), n.dup_side, n.r, n.c))
        if not n.is_leaf:
            stack += [n.right, n.left]
    objs = [float(h["obj"]) for h in res.history]
    part = res.partitioning
    return _digest([splits, nodes, part.task_to_worker, res.n_iters, objs, *_routing(part, S, T)])


def _csio_digest(run, S, T) -> str:
    """Run ``run()`` while recording the arguments CS_IO gives its
    :class:`StripePartitioning`."""
    from repro.baselines import csio

    seen = []
    base = csio.StripePartitioning

    class Recording(base):
        def __init__(self, bnd_s, bnd_t, cells, cell_task, task_loads, w):
            seen.append([bnd_s, bnd_t, cells, np.asarray(cell_task),
                         np.asarray(task_loads, float), w])
            super().__init__(bnd_s, bnd_t, cells, cell_task, task_loads, w)

    csio.StripePartitioning = Recording
    try:
        part = run()
    finally:
        csio.StripePartitioning = base
    return _digest([*seen[0], *_routing(part, S, T)])


def worker(repeat: int, only: set[str] | None) -> dict:
    """Time and digest every case in the tree on ``sys.path``."""
    from repro.baselines.csio import build_csio
    from repro.core.cost_model import CostModel
    from repro.core.recpart import recpart
    from repro.core.sampling import draw_samples

    cm = CostModel()
    out = {}
    for name, kind, e, d, w in INPUTS:
        if only and name not in only:
            continue
        S, T = _inputs(kind)
        eps = np.full(d, e)
        samples = draw_samples(S, T, eps, seed=0)
        for method, term in OPTIMIZERS:
            if kind == "baselines3d" and method != "csio":
                continue
            if method == "csio":
                def run():
                    return build_csio(S, T, eps, w, cost_model=cm, samples=samples, seed=0)
                digest = _csio_digest(run, S, T)
                case = f"{name}/csio"
            else:
                def run():
                    return recpart(
                        S, T, eps, w, symmetric=(method == "recpart"), termination=term,
                        cost_model=cm, seed=0, samples=samples,
                    )
                digest = _recpart_digest(run, S, T)
                case = f"{name}/{method}/{term}"
            secs = []
            if method in TIMED:
                for _ in range(repeat):
                    t0 = time.perf_counter()
                    run()
                    secs.append(time.perf_counter() - t0)
            out[case] = {"digest": digest, "best_s": min(secs) if secs else None}
    return out


def _run_tree(src: str, repeat: int, only: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--repeat", str(repeat)]
    for name in only:
        cmd += ["--only", name]
    got = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(got.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="src directory of the parent tree")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per case and round")
    ap.add_argument("--rounds", type=int, default=3, help="worker processes per tree")
    ap.add_argument("--only", action="append", default=[], help="input name (repeatable)")
    ap.add_argument("--out", default="BENCH_optimizers.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(args.repeat, set(args.only))))
        return
    # rounds alternate which tree goes first; a case keeps its best time
    change, base = {}, {}
    trees = [(SRC, change)] + ([(args.base, base)] if args.base else [])
    for r in range(args.rounds):
        for src, into in trees[:: 1 if r % 2 == 0 else -1]:
            for case, got in _run_tree(src, args.repeat, args.only).items():
                if case in into:
                    assert into[case]["digest"] == got["digest"], f"{case} differs between rounds"
                    if got["best_s"] is not None:
                        got["best_s"] = min(got["best_s"], into[case]["best_s"])
                into[case] = got
    cases = []
    for case, got in change.items():
        row = {"case": case, "change_s": got["best_s"]}
        if case in base:
            row["base_s"] = base[case]["best_s"]
            row["identical"] = base[case]["digest"] == got["digest"]
            if got["best_s"]:
                row["speedup"] = round(row["base_s"] / got["best_s"], 2)
        cases.append(row)
        print(json.dumps(row))
    report = {
        "layer": "optimization (recpart / build_csio on pre-drawn samples, seed 0)",
        "timing": f"best of {args.repeat} runs in each of {args.rounds} alternating rounds, seconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "all_identical": all(r.get("identical", True) for r in cases) if base else None,
        "cases": cases,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
