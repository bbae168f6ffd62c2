"""Optimizer-layer benchmark: RecPart and CS_IO search time, parent vs change.

Times only the optimizers (``recpart`` and ``build_csio`` on pre-drawn
samples, as the tables' opt-time column does) on fixed workloads in two
source trees: this checkout's ``src`` and a ``--base`` tree (an unpacked
copy of the parent commit).

Besides the times, every case records a digest of what the optimizer
produced, and the two trees' digests must match:

* RecPart: the sequence of recursive splits applied, the best tree's
  nodes with their (r, c) grids, ``task_to_worker``, ``n_iters`` and
  every history ``obj``;
* CS_IO: the stripe bounds, each relevant cell's rectangle and the
  rectangle loads;
* both: the routing, ``assign`` of the full S and of the full T
  (row, task) under the partitioning returned.

The paired runs and the report are :mod:`paired`'s. Usage (from the
repository root)::

    git archive <parent> | tar -x -C /path/to/parent
    python jobs/bench_optimizers.py --base /path/to/parent/src \\
        --out BENCH_optimizers.json

Without ``--base`` only this checkout is timed.
"""
from __future__ import annotations

import numpy as np

from paired import best_time, digest, main

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
    return digest([splits, nodes, part.task_to_worker, res.n_iters, objs, *_routing(part, S, T)])


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
    return digest([*seen[0], *_routing(part, S, T)])


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
                dig = _csio_digest(run, S, T)
                case = f"{name}/csio"
            else:
                def run():
                    return recpart(
                        S, T, eps, w, symmetric=(method == "recpart"), termination=term,
                        cost_model=cm, seed=0, samples=samples,
                    )
                dig = _recpart_digest(run, S, T)
                case = f"{name}/{method}/{term}"
            best = best_time(run, repeat) if method in TIMED else None
            out[case] = {"digest": dig, "best_s": best}
    return out


if __name__ == "__main__":
    main(__doc__, worker, "optimization (recpart / build_csio on pre-drawn samples, seed 0)",
         "BENCH_optimizers.json")
