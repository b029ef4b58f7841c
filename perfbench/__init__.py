"""End-to-end load benchmark for the allocation stack.

Run it from the repository root::

    python3 perfbench/run.py --workload cli-allocate --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what
each per-layer metric should move.
"""
