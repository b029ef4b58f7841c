#!/usr/bin/env python3
"""Load benchmark of the allocation stack: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-allocate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-test

``--trace 0`` measures the named workload's end-to-end metrics (the same
four on every workload).  ``--trace 1`` reports every per-layer metric,
so whatever the named workload it replays the seed's inputs of all three
workloads through the layers under spans, prints each per-layer table
and writes the spans to ``.perfbench_work/spans-<workload>-<seed>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output check passed, 1 when one failed and 2 when the
program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "cli-allocate": "perfbench.wl_allocate",
    "serve-churn": "perfbench.wl_churn",
    "simulate": "perfbench.wl_simulate",
}
WORKLOADS = tuple(MODULES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="check that every oracle rejects a doctored result, then exit",
    )
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every worker and daemon it
    # started is stopped by the ``finally`` blocks that own them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.self_test:
        from perfbench import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    from perfbench.common import WORK, share_one_cpu

    share_one_cpu()

    # A traced run covers the layers of every workload.
    names = list(WORKLOADS) if args.trace else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        module = importlib.import_module(MODULES[name])
        spans_path = WORK / f"spans-{name}-{args.seed}.json"
        result = module.run(args.seed, args.seconds, bool(args.trace), spans_path)
        print(f"\n{name} (seed {args.seed}, trace {args.trace}):")
        for metric_name, entry in result["metrics"].items():
            print(f"  {metric_name:<36} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
        for key, value in result.get("info", {}).items():
            print(f"  {key}: {value}")
        for failure in result["failures"]:
            print(f"  CHECK FAILED: {failure}")
        if args.trace:
            print(f"  spans written to {spans_path}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update(result["metrics"])
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
