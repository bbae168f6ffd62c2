"""Simulator-layer benchmark: ``evaluate_partitioning`` time, parent vs change.

Times the exact simulator (``repro.dist.metrics.evaluate_partitioning``
on the full inputs, the tables' measurement substrate) in two source
trees on fixed partitionings, built untimed with the benchmark's
settings (``draw_samples`` seed 0, theoretical termination, w = 30):

* ``baselines3d``: CS_IO, 1-Bucket and Grid-ε on pareto-1.5 d=3, 12.5k
  per relation, ε = 35, generator seed 1 (the ``bandbench`` workload);
* ebird×cloud and pareto-1.5 d=3 100k at ε = 140: RecPart;
* one Grid* sweep (``grid_star``, which simulates each grid on samples)
  on Table 6's pareto-2.0 d=3 100k at ε = 35, timed as a whole;
* ``baselines3d/grid_eps.build``: not the simulator but what its
  Grid-ε case is given, ``GridPartitioning(S, T, ε, ε, 30)`` and both
  of its ``assign`` calls.

A case's digest covers every field of every ``EvalResult`` it produced
(``worker_input`` and ``worker_output`` included), for the sweep the
chosen j and the (j, predicted time) trace, and for the Grid-ε build
``n_tasks``, both assignments and ``task_to_worker``; the two trees'
digests must match. The paired runs and the report are
:mod:`paired`'s. Usage (from the repository root)::

    git archive <parent> | tar -x -C /path/to/parent
    python jobs/bench_simulator.py --base /path/to/parent/src \\
        --out BENCH_simulator.json

Without ``--base`` only this checkout is timed.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from paired import best_time, digest, main

#: (name, inputs, eps per dimension, d, methods); w = 30 throughout
INPUTS = [
    ("baselines3d", "baselines3d", 35.0, 3, ("csio", "one_bucket", "grid_eps", "grid_eps.build")),
    ("ebird_cloud", "ebird", 2.0, 3, ("recpart",)),
    ("pareto_d3_100k", "pareto3", 140.0, 3, ("recpart",)),
    ("pareto2_d3_100k", "pareto3_z2", 35.0, 3, ("grid_star",)),
]
W = 30


def _inputs(kind: str):
    from repro.harness import experiments as X

    if kind == "ebird":
        return X.ebird_cloud_inputs()
    if kind == "pareto3":
        return X.pareto_inputs(X.N0, 1.5, 3)
    if kind == "pareto3_z2":
        return X.pareto_inputs(X.N0, 2.0, 3)
    # the benchmark's baselines3d workload, seed 1
    return X.pareto_inputs(12_500, 1.5, 3, seed=1)


def _fields(ev) -> list:
    return [getattr(ev, f.name) for f in dataclasses.fields(ev)]


def _sweep_digest(run) -> str:
    """Run ``run()`` while recording every ``EvalResult`` the simulator
    returns."""
    from repro.dist import metrics

    seen = []
    evaluate = metrics.evaluate_partitioning

    def recording(*a, **k):
        ev = evaluate(*a, **k)
        seen.extend(_fields(ev))
        return ev

    metrics.evaluate_partitioning = recording
    try:
        _, j, trace = run()
    finally:
        metrics.evaluate_partitioning = evaluate
    return digest([*seen, j, trace])


def worker(repeat: int, only: set[str] | None) -> dict:
    """Time and digest every case in the tree on ``sys.path``."""
    from repro.baselines.grid_eps import GridPartitioning, grid_star
    from repro.core.cost_model import CostModel
    from repro.core.sampling import draw_samples
    from repro.dist.metrics import evaluate_partitioning
    from repro.harness.runner import build_partitioning

    cm = CostModel()
    out = {}
    for name, kind, e, d, methods in INPUTS:
        if only and name not in only:
            continue
        S, T = _inputs(kind)
        eps = np.full(d, e)
        samples = draw_samples(S, T, eps, seed=0) if methods != ("grid_star",) else None
        for method in methods:
            if method == "grid_star":
                def run():
                    return grid_star(S, T, eps, W, cost_model=cm, seed=0)
                dig = _sweep_digest(run)
            elif method == "grid_eps.build":
                def run():
                    part = GridPartitioning(S, T, eps, eps, W)
                    return part, part.assign(S, "S"), part.assign(T, "T")
                part, s_assign, t_assign = run()
                dig = digest([part.n_tasks, *s_assign, *t_assign, part.task_to_worker])
            else:
                part, _, _ = build_partitioning(
                    method, S, T, eps, W, cm, seed=0, termination="theoretical", samples=samples
                )

                def run():
                    return evaluate_partitioning(part, S, T, eps, beta2=cm.b2, beta3=cm.b3)
                dig = digest(_fields(run()))
            out[f"{name}/{method}"] = {"digest": dig, "best_s": best_time(run, repeat)}
    return out


if __name__ == "__main__":
    main(__doc__, worker, "exact simulator (evaluate_partitioning on the full inputs; "
         "Grid*: the whole sweep on samples)", "BENCH_simulator.json")
