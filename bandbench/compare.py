"""Compare two results files from ``sweep.py``, one workload per row.

    python3 bandbench/compare.py before.json after.json

For each workload and end-to-end metric it prints each side's median
and quartiles over the untraced runs, the change of the medians, and a
verdict against the bound in BENCHMARK.json:

* ``worse``      the median got worse by more than the bound;
* ``better``     it improved by more than the base's own quartile spread
                 and the change won at least 9 of 10 same-seed pairs
                 (measure both files with ``sweep.py --base``, so that
                 each pair ran back to back);
* ``unchanged``  neither, and both sides' spreads are within the bound;
* ``unresolved`` a side's spread is wider than the bound and the runs
                 overlap, so the data cannot tell.

It also prints each side's failed/attempted queries and, where a file
holds traced runs too, the tracing overhead (traced minus untraced
``wall_s``). Exits 1 if any verdict is ``worse`` or the change fails
more queries.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    """``base``/``new`` map seed -> value of one metric on one workload."""
    a, b = list(base.values()), list(new.values())
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    if qa[1] == 0:
        return "unresolved"
    change = sign * (qb[1] - qa[1]) / abs(qa[1])  # > 0 is worse
    spread_a = (qa[2] - qa[0]) / abs(qa[1])
    spread_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else float("inf")
    if max(spread_a, spread_b) > bound:
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "better"
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    paired = [s for s in base if s in new]
    wins = sum(sign * new[s] < sign * base[s] for s in paired)
    if -change > spread_a and paired and wins >= 0.9 * len(paired):
        return "better"
    return "unchanged"


def _by_seed(doc: dict, wl: str, trace: int, metric: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for r in doc["runs"]:
        if r["workload"] == wl and r["trace"] == trace and metric in r["result"]["metrics"]:
            if r["seed"] in out:
                raise ValueError(f"two runs of {wl} seed {r['seed']} trace {trace} in one file")
            out[r["seed"]] = r["result"]["metrics"][metric]["value"]
    return out


def _fmt(xs: list[float]) -> str:
    q1, q2, q3 = quartiles(xs)
    return f"{q2:11.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    status = 0
    print(f"{'workload':12} {'metric':14} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8}  verdict")
    for w in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            a, b = _by_seed(base, w, 0, m["name"]), _by_seed(new, w, 0, m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            change = f"{(mb - ma) / ma:+8.1%}" if ma else "     n/a"
            print(f"{w:12} {m['name']:14} {_fmt(list(a.values())):>32} "
                  f"{_fmt(list(b.values())):>32} {change}  {v}")
            status |= v == "worse"
        fails = []
        for doc in (base, new):
            runs = [r["result"] for r in doc["runs"] if r["workload"] == w]
            fails.append((sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
        if fails[0][1] and fails[1][1]:
            print(f"{w:12} {'failed':14} {'%d/%d' % fails[0]:>32} {'%d/%d' % fails[1]:>32}")
            status |= fails[1][0] / fails[1][1] > fails[0][0] / fails[0][1]
        for side, doc in (("base", base), ("new", new)):
            traced = _by_seed(doc, w, 1, "traced.wall_s")
            plain = _by_seed(doc, w, 0, "wall_s")
            if traced and plain:
                over = statistics.median(traced.values()) - statistics.median(plain.values())
                print(f"{w:12} tracing overhead ({side}): {over:+.3f} s")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
