"""Band-join benchmark: end-to-end query time, partition quality and
per-layer traces on fixed workloads (see README.md)."""
