"""Spark's Python worker daemon: pyspark from site-packages, a frozen heap.

Spark starts its workers with ``pyspark.zip`` and the ``spark-core`` jar
first on ``sys.path``. Every task then calls ``importlib.invalidate_caches()``,
which re-reads each cached zip importer: about 0.2 s per task. Run as
``spark.python.daemon.module``, this module drops the zip and jar entries
when pyspark is importable without them, so that call costs nothing.

The daemon forks the workers, and each reused worker runs
``gc.collect()`` after every task. That collection walks every object the
worker holds, most of them the modules every task imports: on the
``ebird-spark`` query, a median of 22–33 ms per task in a worker of the
stock daemon, against 0.3 ms here. With Arrow UDFs on both sides, the
freeze cut the workers' CPU per query from 2.22–2.37 to 1.13–1.20 s in a
``local[2]`` driver script. So before forking, this daemon imports those
modules (``pyspark.worker``, numpy, pandas, pyarrow and the band-join
operator with its imports) and calls ``gc.freeze()``. Their objects
move to the permanent generation, which the forked workers inherit and
no collection scans; a post-task ``gc.collect()`` then walks only what
the task itself left. The imports run once per daemon, during the first
query.
"""
import gc
import sys
from importlib.machinery import PathFinder


def site_path(path: list[str]) -> list[str]:
    """``path`` without its zip and jar entries, if pyspark is found in
    what remains; otherwise ``path`` unchanged."""
    kept = [p for p in path if not p.endswith((".zip", ".jar"))]
    return kept if PathFinder.find_spec("pyspark", kept) is not None else list(path)


if __name__ == "__main__":
    sys.path[:] = site_path(sys.path)
    # importers cached while ``python -m`` looked this module up
    sys.path_importer_cache.clear()
    from pyspark import daemon  # imports pyspark.worker

    import numpy  # noqa: F401
    import pandas  # noqa: F401
    import pyarrow  # noqa: F401

    import repro.dist.band_join  # noqa: F401

    gc.freeze()
    daemon.manager()
