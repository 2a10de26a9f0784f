"""The repository benchmark: three fixed workloads, end-to-end and per-layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the one entry point; see ``perfbench/README.md``.
"""
