"""Workload ``simulate``: the MVCC executors behind ``repro simulate``.

Untraced run: one program process runs, in whole rounds,
``repro simulate sweep`` on SmallBank (optimal vs all-SSI vs all-SI at
four contention points) and ``repro simulate FILE --engine ticks`` of
twelve SmallBank files, each under its optimal allocation (computed by
``repro allocate`` before timing starts).  ``round_s`` is the median
round's CPU time, ``call_geomean_ms`` the geometric mean of the single
calls.

Traced run: the same sweeps through ``contention_sweep`` with spans
around its ``optimal_allocation`` and ``simulate_workload`` calls, and
the same tick runs through ``run_workload``; each sweep and each file's
runs go once plain and once traced, back to back.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from pathlib import Path
from typing import Dict, List, Optional

import repro.mvcc.sweep as sweep_module
from repro.core.allocation import optimal_allocation
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.workload import parse_workload
from repro.mvcc import SimConfig, run_workload, simulate_workload
from repro.workloads.smallbank import SmallBankConfig, smallbank_workload

from . import oracles
from .common import (
    Paired, Speed, Verdict, WorkDir, geomean, log, median, metric, scaled, start_workers,
)
from .inputs import SWEEP_ARGS, SWEEP_SEEDS, TICK_FILES, TICK_RUNS, simulate_inputs
from .spans import SpanRecorder
from .wl_allocate import parse_allocation

_ARGS = dict(zip(SWEEP_ARGS[::2], SWEEP_ARGS[1::2]))
POINTS = [int(p) for p in _ARGS["--points"].split(",")]
TRANSACTIONS = int(_ARGS["--transactions"])
REPEAT = int(_ARGS["--repeat"])
SESSIONS = int(_ARGS["--sessions"])
#: Program start-ups per run; the median is ``setup_s``.
SETUPS = 5
_RUN = re.compile(r"^run (\d+): commits=(\d+) aborts=(\d+) serializable=(True|False)$")


def _sweep_base(value: int, seed: int):
    """The base workload ``repro simulate sweep`` builds for one point."""
    return smallbank_workload(TRANSACTIONS, config=SmallBankConfig(customers=value), seed=seed)


def _check_sweep(doc: Dict[str, object], sweep_seed: int, verdict: Verdict) -> None:
    """Commits equal submissions; all-SSI histories are serializable."""
    points = doc["points"]
    verdict.require(len(points) == 3 * len(POINTS), "sweep misses cells")
    for cell in points:
        verdict.require(
            cell["commits"] == TRANSACTIONS * REPEAT,
            f"{cell['case']}: {cell['commits']} commits for {TRANSACTIONS * REPEAT} instances",
        )
        if cell["strategy"] != "ssi":
            continue
        base = _sweep_base(int(cell["value"]), sweep_seed)
        config = SimConfig(sessions=SESSIONS, seed=sweep_seed, max_attempts=1000)
        trace, stats = simulate_workload(
            base, Allocation.uniform(base, IsolationLevel.SSI), config, repeat=REPEAT
        )
        verdict.require(
            (stats.commits, stats.operations) == (cell["commits"], cell["operations"]),
            f"{cell['case']}: replay with a trace differs from the sweep cell",
        )
        cycle = oracles.find_cycle(*oracles.trace_history(trace.events))
        verdict.require(cycle is None, f"{cell['case']}: committed history has cycle {cycle}")


def _check_ticks(
    stdout: str, workload, allocation: Allocation, tick_seed: int, verdict: Verdict, label: str
) -> None:
    """Each tick run, replayed, commits every transaction serializably."""
    runs = [m for m in map(_RUN.match, stdout.splitlines()) if m]
    verdict.require(len(runs) == TICK_RUNS, f"{label}: tick output lists {len(runs)} runs")
    for match in runs:
        run = int(match.group(1))
        trace, stats = run_workload(workload, allocation, seed=tick_seed + run)
        verdict.require(
            (stats.commits, stats.total_aborts) == (int(match.group(2)), int(match.group(3))),
            f"{label} run {run}: replay differs from the CLI's counts",
        )
        verdict.require(stats.commits == len(workload), f"{label} run {run}: lost commits")
        cycle = oracles.find_cycle(*oracles.trace_history(trace.events))
        verdict.require(cycle is None, f"{label} run {run}: committed history has cycle {cycle}")


def run(seed: int, seconds: float, trace: bool, spans_path: Path) -> dict:
    verdict = Verdict()
    with WorkDir("simulate") as work:
        sweep_seeds, tick_files, tick_seed = simulate_inputs(seed, work)
        workloads = [parse_workload(p.read_text(encoding="utf-8")) for p in tick_files]
        if trace:
            return _traced(workloads, sweep_seeds, tick_seed, seed, verdict, spans_path)
        sweep_json = work / "sweep.json"
        sweep_argvs = [
            ["simulate", "sweep", *SWEEP_ARGS, "--seed", str(sweep_seed), "--json", str(sweep_json)]
            for sweep_seed in sweep_seeds
        ]
        speed = Speed()
        speed.sample()
        worker, startups = start_workers(SETUPS)
        attempted = failed = 0
        sweep_rates: List[float] = []
        rounds: List[float] = []
        calls: List[float] = []
        tick_times: Dict[int, List[float]] = {index: [] for index in range(TICK_FILES)}
        docs: Dict[int, dict] = {}
        tick_stdout: Dict[int, str] = {}
        with worker:
            allocations: List[Allocation] = []
            tick_argvs: List[List[str]] = []
            for path in tick_files:
                reply = worker.call(["allocate", str(path)])
                levels = parse_allocation(reply["stdout"]) if reply["status"] == 0 else None
                if levels is None:
                    raise RuntimeError(f"repro allocate failed on {path.name}")
                allocations.append(Allocation({t: IsolationLevel[n] for t, n in levels.items()}))
                spec = ",".join(f"T{t}={n}" for t, n in sorted(levels.items()))
                tick_argvs.append(["simulate", str(path), "--engine", "ticks", "--allocation",
                                   spec, "--runs", str(TICK_RUNS), "--seed", str(tick_seed)])
            began = time.perf_counter()
            while True:
                round_began = time.perf_counter()
                operations = cpu_s = 0.0
                for index, argv in enumerate(sweep_argvs):
                    speed.sample()
                    reply = worker.call(argv)
                    attempted += 1
                    if reply["status"] != 0:
                        failed += 1
                        continue
                    doc = json.loads(sweep_json.read_text(encoding="utf-8"))
                    operations += doc["total_operations"]
                    cpu_s += reply["cpu_s"]
                    calls.append(reply["cpu_s"])
                    verdict.require(
                        docs.setdefault(index, doc)["total_operations"] == doc["total_operations"],
                        "sweep result differs between rounds",
                    )
                if cpu_s:
                    sweep_rates.append(operations / cpu_s)
                round_cpu_s = cpu_s
                for index, argv in enumerate(tick_argvs):
                    speed.sample()
                    reply = worker.call(argv)
                    attempted += 1
                    if reply["status"] != 0:
                        failed += 1
                        continue
                    tick_times[index].append(reply["cpu_s"])
                    calls.append(reply["cpu_s"])
                    round_cpu_s += reply["cpu_s"]
                    verdict.require(
                        tick_stdout.setdefault(index, reply["stdout"]) == reply["stdout"],
                        "tick runs differ between rounds",
                    )
                rounds.append(round_cpu_s)
                # Start no round that would end past the run's time.
                now = time.perf_counter()
                if now - began + (now - round_began) > seconds:
                    break
            peak_kb = reply["maxrss_kb"]
        for index, doc in docs.items():
            _check_sweep(doc, sweep_seeds[index], verdict)
        for index, stdout in tick_stdout.items():
            _check_ticks(stdout, workloads[index], allocations[index], tick_seed, verdict,
                         tick_files[index].name)
    raw = {
        "setup_s": (median(startups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "round_s": (median(rounds), "s"),
        "call_geomean_ms": (1e3 * geomean(calls), "ms"),
    }
    factor = speed.factor(cpu=True)
    # Per engine, for reading only: every workload reports the same
    # metrics, so these stay out of the result line.
    detail = {
        "sweep_ops_per_s": (median(sweep_rates), "1/s"),
        "tick_runs_per_s": (
            TICK_FILES * TICK_RUNS / sum(median(times) for times in tick_times.values()),
            "1/s",
        ),
    }
    return {
        "correct": verdict.correct,
        "failures": verdict.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": scaled(raw, factor),
        "info": {
            "speed_factor": f"{factor:.4f} (median of {len(speed.samples)} CPU-time probes)",
            "unscaled": {name: round(value, 4) for name, (value, _unit) in raw.items()},
            "per_engine": {name: round(entry["value"], 4)
                           for name, entry in scaled(detail, factor).items()},
            "rounds": len(rounds),
            "sweep_operations_per_round": sum(d["total_operations"] for d in docs.values()),
            "tick_runs_per_round": TICK_FILES * TICK_RUNS,
        },
    }


def _sweep(sweep_seed: int, spans: Optional[SpanRecorder], sim_stats: List[object]) -> dict:
    """One ``contention_sweep``, with spans around its allocation and runs."""
    if spans is None:
        return sweep_module.contention_sweep(
            benchmark="smallbank", points=POINTS, transactions=TRANSACTIONS,
            repeat=REPEAT, sessions=SESSIONS, seed=sweep_seed,
        ).to_json()
    spans.request = f"sweep-{sweep_seed}"
    with spans.patched(sweep_module, "optimal_allocation", "sim.allocate"), \
            spans.patched(sweep_module, "simulate_workload", "sim.run", sim_stats), \
            spans.span("sim.sweep"):
        return _sweep(sweep_seed, None, sim_stats)


def _ticks(index: int, workload, allocation, tick_seed: int, spans: Optional[SpanRecorder]):
    """The tick runs of one file; returns their stats."""
    span = spans.span if spans is not None else (lambda name: contextlib.nullcontext())
    stats = []
    for run in range(TICK_RUNS):
        if spans is not None:
            spans.request = f"tick-{index}-{run}"
        with span("ticks.run"):
            stats.append(run_workload(workload, allocation, seed=tick_seed + run)[1])
    return stats


def _traced(workloads, sweep_seeds: List[int], tick_seed: int, seed: int, verdict: Verdict,
            spans_path: Path) -> dict:
    allocations = [optimal_allocation(workload) for workload in workloads]
    _ticks(0, workloads[0], allocations[0], tick_seed, None)  # warm up
    spans = SpanRecorder()
    pair = Paired()
    sim: List[object] = []
    for sweep_seed in sweep_seeds:
        plain, traced = pair.run(lambda: _sweep(sweep_seed, None, []),
                                 lambda: _sweep(sweep_seed, spans, sim))
        verdict.require(plain["total_operations"] == traced["total_operations"],
                        "traced sweep differs from the plain one")
        _check_sweep(traced, sweep_seed, verdict)
    ticks = []
    for index, (workload, allocation) in enumerate(zip(workloads, allocations)):
        _plain, traced = pair.run(
            lambda: _ticks(index, workload, allocation, tick_seed, None),
            lambda: _ticks(index, workload, allocation, tick_seed, spans),
        )
        for run, stats in enumerate(traced):
            verdict.require(stats.commits == len(workload), f"tick file {index} run {run}: lost commits")
        ticks.extend(traced)
    sim = [stats for _trace, stats in sim]
    log(spans.table())
    log(pair.report("simulate"))
    spans.write(spans_path, workload="simulate", seed=seed, overhead=pair.overhead,
                plain_cpu_s=pair.plain_s, traced_cpu_s=pair.traced_s)
    return {
        "correct": verdict.correct,
        "failures": verdict.failures,
        "attempted": 2 * (SWEEP_SEEDS + TICK_FILES * TICK_RUNS) + TICK_RUNS,
        "failed": 0,
        "metrics": {
            "sim.run_s": metric(spans.total_ms("sim.run") / 1e3, "s"),
            "sim.allocate_ms": metric(spans.total_ms("sim.allocate"), "ms"),
            "sim.operations": metric(sum(s.operations for s in sim), "count"),
            "sim.blocks": metric(sum(s.blocks for s in sim), "count"),
            "sim.retries": metric(sum(s.retries for s in sim), "count"),
            "ticks.run_ms": metric(spans.mean_us("ticks.run") / 1e3, "ms"),
            "ticks.blocked_ticks": metric(sum(s.blocked_ticks for s in ticks), "count"),
            "ticks.retries": metric(sum(s.retries for s in ticks), "count"),
        },
        "info": {"sweep_cells": len(sim), "tick_runs": len(ticks),
                 "tracing_overhead": round(pair.overhead, 4)},
    }
