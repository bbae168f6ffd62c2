"""Run one benchmark workload and print its result as JSON.

    python3 bandbench/run.py --workload baselines3d --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is ``{"run_record": ...}``: seed, versions, core
counts and the failures, if any. Scratch files (the oracle cache, Spark's
local and event-log directories) go to ``.bench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: glibc malloc: serve blocks up to 32 MB (the most it allows) from the
#: heap, never give freed heap memory back, and grow the heap 256 MB at a time
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bandbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # A query set allocates and frees hundreds of MB of numpy temporaries.
    # By default glibc maps large blocks fresh and unmaps them on free, so
    # every set page-faulted about 0.5-0.9 million 4 KB pages back in, and
    # on a VM the cost of a fault moves with the host's load: a baselines3d
    # set took about 3.7 s with the faults and 3.0 s without, and its
    # wall_s spread 22% over six seeds against 11% without. So the
    # run keeps freed memory in its heap for reuse. glibc reads these
    # settings at start-up, hence the re-exec; Spark's Python workers
    # inherit them.
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **MALLOC_ENV})
    # numpy asks the kernel for 2 MB pages for its large arrays, and gets
    # them only while free memory is unfragmented. A query set took 36%
    # longer without them, so timings drifted with the machine's memory
    # state. Every numpy in the run, Spark's Python workers included,
    # uses 4 KB pages instead.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".bench_work"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")

    from bandbench.bench import run_benchmark
    from bandbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    result, record = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir
    )
    print(json.dumps({"run_record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
