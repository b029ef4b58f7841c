"""Shared plumbing: paths, the program process, statistics, verdicts."""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in ``.gitignore``).
WORK = ROOT / ".perfbench_work"

#: How long any single exchange with a program process may take.
CALL_TIMEOUT_S = 120.0


def program_env() -> Dict[str, str]:
    """The environment a program process runs in: ``src`` on the path."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def short_path(path: Path) -> str:
    """``path`` relative to the current directory when that is shorter.

    Unix socket paths are limited to about 100 bytes; a checkout in a
    deep directory would overflow that with absolute paths.
    """
    try:
        rel = os.path.relpath(path)
    except ValueError:
        return str(path)
    return rel if len(rel) < len(str(path)) else str(path)


class WorkDir:
    """A per-run scratch directory under ``.perfbench_work``, removed on exit."""

    def __init__(self, name: str):
        self.path = WORK / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Worker:
    """One program process that runs ``repro.cli.main`` on request.

    The process imports the CLI once and then executes ``argv`` lists
    read from its stdin, so each call is timed after start-up.  See
    ``perfbench/worker.py`` for the line protocol.
    """

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn the process; returns seconds until it reported ready."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py")],
            cwd=str(ROOT),
            env=program_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._read()
        if not ready.get("ready"):
            raise RuntimeError(f"worker did not start: {ready}")
        return time.perf_counter() - started

    def _read(self) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], CALL_TIMEOUT_S)
        if not ready:
            raise RuntimeError(f"worker gave no answer within {CALL_TIMEOUT_S:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited unexpectedly")
        return json.loads(line)

    def call(self, argv: Sequence[str]) -> Dict[str, Any]:
        """Run one CLI invocation; returns status, stdout, elapsed_s, cpu_s, maxrss_kb."""
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(json.dumps({"argv": list(argv)}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the process to exit and wait for it (kills it if it hangs)."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None and proc.stdin is not None:
                proc.stdin.write(json.dumps({"exit": True}) + "\n")
                proc.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        stop_process(proc)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def stop_process(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Wait for ``proc`` to end; terminate, then kill, if it does not."""
    for stopper in (None, proc.terminate, proc.kill):
        if stopper is not None and proc.poll() is None:
            stopper()
        try:
            proc.wait(timeout=grace_s)
            break
        except subprocess.TimeoutExpired:
            continue
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def start_workers(count: int) -> "tuple[Worker, List[float]]":
    """Start ``count`` program processes one after another; keep the last.

    Returns the live worker and every start-up time (set-up is measured
    several times per run and reported as a median).
    """
    times: List[float] = []
    worker = Worker()
    for index in range(count):
        worker = Worker()
        try:
            times.append(worker.start())
        except BaseException:
            worker.close()
            raise
        if index < count - 1:
            worker.close()
    return worker, times


def share_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU.

    The benchmark never computes while the program does (each call and
    each request waits for its answer), so nothing runs in parallel
    that one CPU would serialize.  On one CPU the speed probes measure
    the CPU the program runs on, and a daemon round trip is a plain
    context switch instead of a wake-up of the other virtual CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- machine speed -----------------------------------------------------
#: Duration of one :func:`probe` at the reference speed (the 2-core VM
#: the benchmark was built on, in a quiet period).  Fixed forever: it
#: only sets the scale of the normalized times.
PROBE_REF_S = 0.030


def probe() -> Tuple[float, float]:
    """Run a fixed pure-Python loop; returns its (wall, CPU) seconds.

    The loop touches no part of the program, so its duration measures
    only how fast the machine runs Python right now.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(60000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i)) & 0xFFFF
    seen = set()
    for i in range(20000):
        seen.add(i % 4093)
    return time.perf_counter() - wall, time.process_time() - cpu


class Speed:
    """Machine speed over one run, sampled by :func:`probe` between measurements.

    On a shared VM the speed of the whole machine drifts by tens of
    percent over tens of seconds.  Times measured in a run are divided
    by :meth:`factor` (rates multiplied), which scales them to the
    reference speed; every run prints its factor and unscaled values.
    """

    #: Least time between two probes of :meth:`maybe_sample`.
    EVERY_S = 0.5

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._last = -self.EVERY_S

    def sample(self) -> None:
        self.samples.append(probe())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Probe when ``EVERY_S`` passed since the last probe."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def factor(self, cpu: bool) -> float:
        """Median probe time over the reference: > 1 on a slow machine."""
        index = 1 if cpu else 0
        return median([sample[index] for sample in self.samples]) / PROBE_REF_S


class Paired:
    """Alternates plain and traced runs of the same units of work.

    Each unit runs once plain and once under spans, back to back (which
    side goes first alternates), and their CPU times are summed apart;
    the machine's speed drifts slowly, so it touches both sums alike and
    their ratio is the tracing overhead.
    """

    def __init__(self) -> None:
        self.plain_s = 0.0
        self.traced_s = 0.0
        self._units = 0

    def run(self, plain: Callable[[], Any], traced: Callable[[], Any]) -> Tuple[Any, Any]:
        """Run both sides of one unit, alternating which side goes first."""
        results: Dict[str, Any] = {}
        order = (("plain", plain), ("traced", traced))
        for side, func in order if self._units % 2 == 0 else order[::-1]:
            began = time.process_time()
            results[side] = func()
            spent = time.process_time() - began
            if side == "plain":
                self.plain_s += spent
            else:
                self.traced_s += spent
        self._units += 1
        return results["plain"], results["traced"]

    @property
    def overhead(self) -> float:
        return self.traced_s / self.plain_s - 1.0

    def report(self, workload: str) -> str:
        return (
            f"tracing overhead ({workload}): {100 * self.overhead:+.1f}%"
            f" ({self.traced_s:.3f} s traced vs {self.plain_s:.3f} s plain CPU,"
            " units alternated)"
        )


# -- statistics --------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values: every one weighs the same, big or small."""
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def scaled(raw: Dict[str, Tuple[float, str]], factor: float) -> Dict[str, Dict[str, Any]]:
    """Metrics at the reference speed: times divided by ``factor``, rates multiplied."""
    metrics = {}
    for name, (value, unit) in raw.items():
        if unit in ("s", "ms", "us"):
            value /= factor
        elif unit == "1/s":
            value *= factor
        metrics[name] = metric(value, unit)
    return metrics


# -- verdicts ----------------------------------------------------------
class Verdict:
    """Collects failed output checks; a run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.checked = 0

    def require(self, condition: bool, message: str) -> bool:
        self.checked += 1
        if not condition:
            self.failures.append(message)
        return bool(condition)

    @property
    def correct(self) -> bool:
        return not self.failures


def log(message: str) -> None:
    """Progress output (stdout; the result line is always the last one)."""
    print(message, flush=True)
