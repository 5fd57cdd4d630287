"""The repository benchmark: four workloads over the served and offline
paths, with a traced per-layer ledger (see ``perfbench/README.md``)."""
