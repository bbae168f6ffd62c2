"""Run the benchmark over workloads and seeds into one results file.

    python3 bandbench/sweep.py --out new.json --seeds 1-10
    python3 bandbench/sweep.py --out new.json --seeds 1-3 --trace 1 --workloads baselines3d
    python3 bandbench/sweep.py --out new.json --base ../base --base-out base.json --seeds 1-10

Each run is ``bandbench/run.py`` in its own process, for as long as
BENCHMARK.json's ``run_seconds``. With ``--base``, a second checkout (the
parent commit, say) is measured too: for every workload and seed, the two
sides run back to back, and which side runs first alternates from seed to
seed. A same-seed pair in the two files is then measured next to each
other in time, so ``compare.py`` can count wins over pairs.

A results file is rewritten after every run and accumulates across
invocations, so a traced sweep can be added to an untraced one. It holds
at most one run per (workload, seed, trace): a sweep that would repeat
one stops before it starts.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {"runs": []}


def _run(checkout: Path, wl: str, seed: int, trace: int, bench: dict) -> dict | None:
    cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    took = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"{checkout}: {wl} seed {seed}: exit {proc.returncode} after {took:.0f}s",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    print(f"{checkout}: {wl} seed {seed} trace {trace}: {took:.0f}s correct={result['correct']}",
          file=sys.stderr)
    return {"workload": wl, "seed": seed, "trace": trace, "run_s": took,
            "record": json.loads(lines[-2])["run_record"], "result": result}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", type=Path, help="a second checkout, run alternately with this one")
    ap.add_argument("--base-out", type=Path, help="results file of the --base checkout")
    args = ap.parse_args(argv)
    if (args.base is None) != (args.base_out is None):
        ap.error("--base and --base-out go together")
    wls = args.workloads.split(",")
    for wl in wls:
        if wl not in names:
            ap.error(f"unknown workload {wl!r}; choose from {names}")

    sides = [(ROOT, args.out)]
    if args.base is not None:
        sides.append((args.base.resolve(), args.base_out))
    docs = [_load(out) for _, out in sides]
    planned = {(wl, s, args.trace) for wl in wls for s in seeds(args.seeds)}
    for (_, out), doc in zip(sides, docs):
        held = planned & {(r["workload"], r["seed"], r["trace"]) for r in doc["runs"]}
        if held:
            ap.error(f"{out} already holds runs {sorted(held)}; choose other seeds or files")

    for wl in wls:
        for i, seed in enumerate(seeds(args.seeds)):
            order = list(range(len(sides)))
            if i % 2:
                order.reverse()
            for k in order:
                checkout, out = sides[k]
                run = _run(checkout, wl, seed, args.trace, bench)
                if run is None:
                    return 1
                docs[k]["runs"].append(run)
                out.write_text(json.dumps(docs[k], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
