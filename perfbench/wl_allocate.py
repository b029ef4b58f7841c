"""Workload ``cli-allocate``: ``repro allocate`` over a seeded file set.

Untraced run: one program process imports the CLI, then executes
``repro allocate FILE`` (default flags) for every timed file, in whole
rounds over the file set until the run's time is up.  ``round_s`` is
the median round: the time to the optimum for the whole file set,
after start-up, as CPU time of the program process (see README);
``call_geomean_ms`` is the geometric mean of the single
``repro allocate FILE`` calls.

Traced run: the same files replayed in-process one layer at a time —
``parse_workload``, ``conflict_components``, ``AnalysisContext`` and its
kernel, ``optimal_allocation``, ``check_robustness`` — each file once
plain and once under spans, back to back; the difference is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import re
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.robustness import check_robustness
from repro.core.sharding import conflict_components
from repro.core.workload import parse_workload

from . import oracles
from .common import (
    Paired, Speed, Verdict, WorkDir, geomean, log, median, metric, scaled, start_workers,
)
from .inputs import allocate_files, sub_seeds
from .spans import SpanRecorder

_LINE = re.compile(r"^  T(\d+): (RC|SI|SSI)$")
#: Tick-scheduler executions sampled per timed file by the robustness oracle.
SAMPLED_RUNS = 3
#: Program start-ups per run; the median is ``setup_s``.
SETUPS = 5
#: ``ContextStats`` counters summed over the file set in the traced run.
COUNTERS = ("pair_builds", "kernel_row_builds", "checks", "witness_hits")


def parse_allocation(stdout: str) -> Optional[Dict[int, str]]:
    """The allocation block of ``repro allocate`` output, or ``None``."""
    lines = stdout.splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if l.startswith("Optimal robust allocation"))
    except StopIteration:
        return None
    levels: Dict[int, str] = {}
    for line in lines[start + 1:]:
        match = _LINE.match(line)
        if not match:
            break
        levels[int(match.group(1))] = match.group(2)
    return levels


def _as_allocation(levels: Dict[int, str]) -> Allocation:
    return Allocation({tid: IsolationLevel[name] for tid, name in levels.items()})


def _judge(
    files: List[Path],
    results: Dict[Path, Dict[int, str]],
    verdict: Verdict,
    seed: int,
    paper: bool,
) -> None:
    """Run the oracles on every file's allocation."""
    sample_seeds = sub_seeds("cli-allocate-samples", seed, SAMPLED_RUNS)
    for path in files:
        levels = results.get(path)
        if levels is None:
            continue  # counted as a failed operation already
        workload = parse_workload(path.read_text(encoding="utf-8"))
        label = path.name
        if not verdict.require(
            set(levels) == set(workload.tids), f"{label}: allocation misses transactions"
        ):
            continue
        allocation = _as_allocation(levels)
        if paper:
            oracles.check_paper_robust(workload, allocation, verdict, label)
            oracles.check_minimality(workload, allocation, verdict, label, method="paper")
        else:
            oracles.check_minimality(workload, allocation, verdict, label)
            oracles.check_sampled_robustness(
                workload, allocation, sample_seeds, verdict, label
            )


def run(seed: int, seconds: float, trace: bool, spans_path: Path) -> dict:
    verdict = Verdict()
    with WorkDir("cli-allocate") as work:
        timed, paper_files = allocate_files(seed, work)
        if trace:
            return _traced(timed, paper_files, seed, verdict, spans_path)
        speed = Speed()
        speed.sample()
        worker, startups = start_workers(SETUPS)
        attempted = failed = 0
        results: Dict[Path, Dict[int, str]] = {}
        rounds: List[float] = []
        calls: List[float] = []
        with worker:
            for path in paper_files:  # untimed; also warms lazy imports
                reply = worker.call(["allocate", str(path)])
                attempted += 1
                levels = parse_allocation(reply["stdout"]) if reply["status"] == 0 else None
                if levels is None:
                    failed += 1
                else:
                    results[path] = levels
            began = time.perf_counter()
            while True:
                round_began = time.perf_counter()
                total = 0.0
                for path in timed:
                    speed.sample()
                    reply = worker.call(["allocate", str(path)])
                    attempted += 1
                    levels = parse_allocation(reply["stdout"]) if reply["status"] == 0 else None
                    if levels is None:
                        failed += 1
                        continue
                    total += reply["cpu_s"]
                    calls.append(reply["cpu_s"])
                    if path in results:
                        verdict.require(
                            results[path] == levels,
                            f"{path.name}: allocation differs between rounds",
                        )
                    results[path] = levels
                rounds.append(total)
                log(f"round {len(rounds)}: file set in {total:.3f} s")
                # Start no round that would end past the run's time.
                now = time.perf_counter()
                if now - began + (now - round_began) > seconds:
                    break
            peak_kb = reply["maxrss_kb"]
        _judge(paper_files, results, verdict, seed, paper=True)
        _judge(timed, results, verdict, seed, paper=False)
    raw = {
        "setup_s": (median(startups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "round_s": (median(rounds), "s"),
        "call_geomean_ms": (1e3 * geomean(calls), "ms"),
    }
    factor = speed.factor(cpu=True)
    return {
        "correct": verdict.correct,
        "failures": verdict.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": scaled(raw, factor),
        "info": {
            "speed_factor": f"{factor:.4f} (median of {len(speed.samples)} CPU-time probes)",
            "unscaled": {name: round(value, 4) for name, (value, _unit) in raw.items()},
            "rounds": len(rounds),
            "files": len(timed),
            "setups": len(startups),
            "checks_passed": verdict.checked - len(verdict.failures),
        },
    }


def _replay(path: Path, spans: Optional[SpanRecorder]) -> Tuple[Dict[str, int], Dict[int, str], bool]:
    """One file through the layers' entry points, one level at a time."""
    recorder = spans or SpanRecorder()
    span = recorder.span if spans is not None else (lambda name: contextlib.nullcontext())
    recorder.request = path.name
    with span("file"):
        with span("workload.parse"):
            workload = parse_workload(path.read_text(encoding="utf-8"))
        with span("shard.plan"):
            conflict_components(workload)
        with span("context.build"):
            context = AnalysisContext(workload)
            context.kernel()
        with span("alg2.optimal"):
            optimum = optimal_allocation(workload, context=context)
        with span("alg1.check"):
            robust = check_robustness(workload, optimum, context=context).robust
    totals = {name: getattr(context.stats, name) for name in COUNTERS}
    return totals, {tid: level.name for tid, level in optimum.items()}, robust


def _traced(
    timed: List[Path], paper_files: List[Path], seed: int, verdict: Verdict, spans_path: Path
) -> dict:
    paper_results = {path: _replay(path, None)[1] for path in paper_files}  # also warms up
    spans = SpanRecorder()
    pair = Paired()
    totals = dict.fromkeys(COUNTERS, 0)
    results: Dict[Path, Dict[int, str]] = {}
    for path in timed:
        plain, traced = pair.run(lambda: _replay(path, None), lambda: _replay(path, spans))
        verdict.require(plain[1] == traced[1], f"{path.name}: traced replay changed the optimum")
        verdict.require(traced[2], f"{path.name}: Algorithm 1 rejects Algorithm 2's optimum")
        for name in COUNTERS:
            totals[name] += traced[0][name]
        results[path] = traced[1]
    _judge(paper_files, paper_results, verdict, seed, paper=True)
    _judge(timed, results, verdict, seed, paper=False)
    files = len(timed)
    log(spans.table())
    log(pair.report("cli-allocate"))
    spans.write(spans_path, workload="cli-allocate", seed=seed, overhead=pair.overhead,
                plain_cpu_s=pair.plain_s, traced_cpu_s=pair.traced_s)
    return {
        "correct": verdict.correct,
        "failures": verdict.failures,
        "attempted": 2 * (files + len(paper_files)),
        "failed": 0,
        "metrics": {
            "workload.parse_ms": metric(spans.total_ms("workload.parse"), "ms"),
            "shard.plan_ms": metric(spans.total_ms("shard.plan"), "ms"),
            "context.build_ms": metric(spans.total_ms("context.build"), "ms"),
            "context.pair_builds": metric(totals["pair_builds"], "count"),
            "kernel.row_builds": metric(totals["kernel_row_builds"], "count"),
            "alg1.check_ms": metric(spans.mean_us("alg1.check") / 1e3, "ms"),
            "alg1.checks": metric(totals["checks"], "count"),
            "alg1.witness_hits": metric(totals["witness_hits"], "count"),
            "alg2.optimal_s": metric(spans.total_ms("alg2.optimal") / 1e3, "s"),
        },
        "info": {"files": files, "tracing_overhead": round(pair.overhead, 4)},
    }
