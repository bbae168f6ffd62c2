"""Paired layer benchmarks: one layer's cases timed in two source trees.

A benchmark script defines ``worker(repeat, only) -> {case: {"digest",
"best_s"}}``, which times and digests its cases in the tree on
``sys.path``, and hands it to :func:`main`. The script then runs as::

    git archive <parent> | tar -x -C /path/to/parent
    python jobs/<script>.py --base /path/to/parent/src --out BENCH_<layer>.json

Each tree runs in its own subprocess of the script (``--worker``), so
both import their own ``repro``. ``--rounds`` subprocesses per tree run
in alternating order, ``--repeat`` timed runs each, and a case keeps its
best time. A case's digest must repeat across rounds, and the report
says whether the two trees' digests match. Without ``--base`` only this
checkout is timed.
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
from typing import Callable

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: ``worker(repeat, only)``: every case of the tree on ``sys.path``
Worker = Callable[[int, "set[str] | None"], dict]


def digest(parts) -> str:
    """sha256 over arrays' bytes and other values' ``repr``."""
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def best_time(run: Callable[[], object], repeat: int) -> float:
    """Fewest seconds of ``repeat`` calls of ``run``."""
    secs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        secs.append(time.perf_counter() - t0)
    return min(secs)


def _run_tree(script: str, src: str, repeat: int, only: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, script, "--worker", "--repeat", str(repeat)]
    for name in only:
        cmd += ["--only", name]
    got = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(got.stdout)


def main(doc: str, worker: Worker, layer: str, out: str) -> None:
    """Command line of a paired benchmark script whose docstring is ``doc``;
    ``layer`` describes what it times in the report, ``out`` is the
    default report file."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--base", help="src directory of the parent tree")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per case and round")
    ap.add_argument("--rounds", type=int, default=3, help="worker processes per tree")
    ap.add_argument("--only", action="append", default=[], help="input name (repeatable)")
    ap.add_argument("--out", default=out)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(args.repeat, set(args.only))))
        return
    script = os.path.abspath(sys.argv[0])
    # rounds alternate which tree goes first; a case keeps its best time
    change, base = {}, {}
    trees = [(SRC, change)] + ([(args.base, base)] if args.base else [])
    for r in range(args.rounds):
        for src, into in trees[:: 1 if r % 2 == 0 else -1]:
            for case, got in _run_tree(script, src, args.repeat, args.only).items():
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
        "layer": layer,
        "timing": f"best of {args.repeat} runs in each of {args.rounds} alternating rounds, seconds",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "usable_cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__},
        "all_identical": all(r.get("identical", True) for r in cases) if base else None,
        "cases": cases,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
