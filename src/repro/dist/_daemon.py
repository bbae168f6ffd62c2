"""Spark's Python worker daemon, importing pyspark from site-packages.

Spark starts its workers with ``pyspark.zip`` and the ``spark-core`` jar
first on ``sys.path``. Every task then calls ``importlib.invalidate_caches()``,
which re-reads each cached zip importer: about 0.2 s per task. Run as
``spark.python.daemon.module``, this module drops the zip and jar entries
when pyspark is importable without them, so that call costs nothing.
"""
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
    from pyspark import daemon

    daemon.manager()
