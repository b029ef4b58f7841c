"""Workload ``serve-churn``: a real ``repro serve`` daemon under churn.

One closed-loop client (``repro.service.client.ServiceClient``) talks to
the daemon over a unix socket: it sends a request, waits for the
verdict, then sends the next.  The daemon first takes the steady state
(256 live transactions) in one ``batch``; the client then sends rounds
of fresh-tid arrivals with FIFO departures — single ``add``/``remove``
envelopes and coalesced ``batch`` envelopes — interleaved with
``status``, ``allocate`` and ``check`` reads.

Traced run: the same request stream goes (a) to a daemon started with
``--eventlog``, whose per-request latency is subtracted from the client
round trip (``transport.overhead_us``), and (b) through two in-process
``ServiceCore`` replicas, round by round alternately, one plain and one
with spans around
``parse_request``, ``ServiceCore.handle``, ``encode_response``,
``AllocationManager.add/remove/apply_batch``, ``DynamicShardPlan.add/
remove`` and the ``check`` command's ``check_robustness``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.service.core as service_core
from repro.core.sharding import DynamicShardPlan
from repro.observability import EventLog, MetricsRegistry, WindowedSeries
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.protocol import encode_response, parse_request

from . import oracles
from .common import (
    ROOT,
    Paired,
    Speed,
    Verdict,
    WorkDir,
    geomean,
    log,
    mean,
    median,
    metric,
    percentile,
    program_env,
    scaled,
    short_path,
    stop_process,
)
from .inputs import (
    BATCH_PAIRS,
    CHURN_CLUSTERS,
    MUTATIONS_PER_ROUND,
    ChurnStream,
    add_envelope,
    churn_rounds,
)
from .spans import SpanRecorder

#: Daemon set-ups per run (start-up plus steady-state load); median reported.
SETUPS = 5
#: Rounds sent before anything is measured.
WARMUP_ROUNDS = 5
#: Rounds of the traced replay (a fixed count, so its counters repeat).
TRACED_ROUNDS = 60
#: Live transactions in the steady state.
LIVE = sum(CHURN_CLUSTERS)
#: Request classes of the latency metrics.
CLASSES = {"add": "add", "remove": "remove", "batch": "batch",
           "status": "read", "allocate": "read", "check": "check"}
#: Counters of the ``metrics`` envelope folded per mutation.
COUNTERS = ("checks", "kernel_row_builds", "index_builds",
            "plan_merges", "plan_splits", "plan_reuse")


class Daemon:
    """One ``repro serve`` process on a unix socket, and its client."""

    def __init__(self, sock: Path, eventlog: Optional[Path] = None):
        self.sock = sock
        self.eventlog = eventlog
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def start(self, timeout_s: float = 60.0) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--socket", os.path.relpath(self.sock, ROOT)]
        if self.eventlog is not None:
            argv += ["--eventlog", os.path.relpath(self.eventlog, ROOT)]
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=program_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                self.client = ServiceClient(socket_path=short_path(self.sock))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not open its socket") from None
                time.sleep(0.005)
        self.client.call("hello")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the daemon process (peak resident set)."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut the daemon down over the protocol; kill it if it hangs."""
        client, self.client = self.client, None
        if client is not None:
            try:
                client.request("shutdown")
            except (OSError, ValueError):
                pass
            client.close()
        if self.proc is not None:
            stop_process(self.proc)
            self.proc = None


def _load(send, stream: ChurnStream) -> Dict[str, Any]:
    return send({"op": "batch", "commands": [add_envelope(a) for a in stream.initial]})


def _judge(env: Dict[str, Any], resp: Dict[str, Any]) -> bool:
    """Whether a successful response says what its request must produce."""
    op = env["op"]
    if op == "add":
        return resp.get("admitted") is True
    if op == "batch":
        results = resp.get("results") or []
        return resp.get("failed") == 0 and all(
            r.get("ok") and (r.get("op") != "add" or r.get("admitted")) for r in results
        )
    if op in ("status", "allocate"):
        return resp.get("transactions") == LIVE
    if op == "check":
        return resp.get("robust") is True
    return True


class Loop:
    """Sends rounds in a closed loop and keeps per-class latencies."""

    def __init__(self, send, verdict: Verdict):
        self.send = send
        self.verdict = verdict
        self.allocation: Dict[str, str] = {}
        self.latency: Dict[str, List[float]] = {name: [] for name in set(CLASSES.values())}
        self.all: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.trips: List[Tuple[str, float]] = []

    def run_round(self, requests: List[Dict[str, Any]], record: bool) -> None:
        for env in requests:
            if env["op"] == "check":
                env = {**env, "allocation": self.allocation}
            started = time.perf_counter()
            resp = self.send(env)
            elapsed = time.perf_counter() - started
            self.attempted += 1
            if not resp.get("ok"):
                self.failed += 1
                log(f"{env['op']} failed: {json.dumps(resp)[:200]}")
            else:
                self.verdict.require(
                    _judge(env, resp), f"wrong {env['op']} response: {json.dumps(resp)[:200]}"
                )
            if env["op"] == "allocate":
                self.allocation = resp.get("allocation", {})
            if record:
                self.latency[CLASSES[env["op"]]].append(elapsed)
                self.all.append(elapsed)
                self.trips.append((str(resp.get("request_id")), elapsed))
        self.rounds += record


def _counters(metrics: Dict[str, Any]) -> Dict[str, float]:
    counters = metrics.get("counters", {})
    values = {name: float(counters.get(f"context.{name}", 0)) for name in COUNTERS}
    values["mutations"] = float(metrics["gauges"]["mutations"])
    return values


def _per_mutation(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    mutations = after["mutations"] - before["mutations"]
    return {name: (after[name] - before[name]) / mutations for name in COUNTERS}


def _client_send(daemon: Daemon):
    def send(env: Dict[str, Any]) -> Dict[str, Any]:
        assert daemon.client is not None
        params = {k: v for k, v in env.items() if k != "op"}
        return daemon.client.request(env["op"], **params)

    return send


def _setup(work: Path, index: int, stream: ChurnStream, eventlog: Optional[Path] = None) -> Tuple[Daemon, float]:
    daemon = Daemon(work / f"d{index}.sock", eventlog)
    started = time.perf_counter()
    try:
        daemon.start()
        load = _load(_client_send(daemon), stream)
        if not (load.get("ok") and load.get("failed") == 0):
            raise RuntimeError(f"steady-state load failed: {json.dumps(load)[:200]}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, spans_path: Path) -> dict:
    verdict = Verdict()
    with WorkDir("serve-churn") as work:
        if trace:
            return _traced(work, seed, verdict, spans_path)
        speed = Speed()
        setups: List[float] = []
        for index in range(SETUPS - 1):
            speed.sample()
            daemon, took = _setup(work, index, ChurnStream(seed))
            daemon.stop()
            setups.append(took)
        stream = ChurnStream(seed)
        speed.sample()
        daemon, took = _setup(work, SETUPS - 1, stream)
        setups.append(took)
        try:
            send = _client_send(daemon)
            loop = Loop(send, verdict)
            requests = churn_rounds(stream)
            for _ in range(WARMUP_ROUNDS):
                loop.run_round(next(requests), record=False)
            before = _counters(send({"op": "metrics"}))
            began = time.perf_counter()
            rounds: List[float] = []  # without the speed probes between rounds
            while time.perf_counter() - began < seconds:
                speed.maybe_sample()
                round_began = time.perf_counter()
                loop.run_round(next(requests), record=True)
                rounds.append(time.perf_counter() - round_began)
            after = _counters(send({"op": "metrics"}))
            final = send({"op": "allocate"})
            peak = daemon.peak_rss_mb()
        finally:
            daemon.stop()
    per_mutation = _per_mutation(before, after)
    verdict.require(
        per_mutation["checks"] > 0,
        "the churn spent no robustness checks: it measured a cache hit",
    )
    oracles.check_final_allocation(stream.groups(), final.get("allocation", {}), verdict)
    raw = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
        "round_s": (median(rounds), "s"),
        "call_geomean_ms": (1e3 * geomean(loop.all), "ms"),
    }
    factor = speed.factor(cpu=False)
    # Per request class, for reading only: every workload reports the same
    # metrics, so these stay out of the result line.
    detail = {
        "mutations_per_s": (len(rounds) * MUTATIONS_PER_ROUND / sum(rounds), "1/s"),
        **{f"{name}_p50_ms": (1e3 * median(loop.latency[name]), "ms")
           for name in ("add", "remove", "batch", "read", "check")},
        "request_p99_ms": (1e3 * percentile(loop.all, 0.99), "ms"),
    }
    return {
        "correct": verdict.correct,
        "failures": verdict.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": scaled(raw, factor),
        "info": {
            "speed_factor": f"{factor:.4f} (median of {len(speed.samples)} wall-clock probes)",
            "unscaled": {name: round(value, 4) for name, (value, _unit) in raw.items()},
            "per_class": {name: round(entry["value"], 4)
                          for name, entry in scaled(detail, factor).items()},
            "rounds": loop.rounds,
            "requests": len(loop.all),
            "samples": {name: len(values) for name, values in sorted(loop.latency.items())},
            "checks_per_mutation": round(per_mutation["checks"], 4),
            "batch_size": 2 * BATCH_PAIRS,
            "setups_s": [round(took, 4) for took in setups],
        },
    }


# -- traced run ------------------------------------------------------------
def _read_eventlog(path: Path) -> Dict[str, float]:
    latency: Dict[str, float] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("kind") == "request" and "request_id" in event:
                latency[event["request_id"]] = float(event["latency_ms"])
    return latency


def _core_send(core: ServiceCore, spans: Optional[SpanRecorder], sizes: List[int]):
    """Replay one wire line through parse -> handle -> encode in-process."""
    counter = [0]

    def send(env: Dict[str, Any]) -> Dict[str, Any]:
        counter[0] += 1
        line = json.dumps({"op": env["op"], "id": counter[0],
                           **{k: v for k, v in env.items() if k != "op"}})
        if spans is None:
            response = core.handle(parse_request(line))
            encode_response(response)
            return response
        spans.request = f"req-{counter[0]}"
        with spans.span("request"):
            with spans.span("protocol.parse"):
                envelope = parse_request(line)
            with spans.span("service.handle"):
                response = core.handle(envelope)
            with spans.span("protocol.encode"):
                encode_response(response)
        stable = {k: v for k, v in response.items() if k not in ("request_id", "uptime_s")}
        sizes.append(len(encode_response(stable)))
        return response

    return send


class _Replica:
    """An in-process ``ServiceCore`` fed the workload's request stream.

    Loads and warms up like the daemon, then runs one measured round
    per :meth:`next_round`; with ``spans`` the layers' entry points are
    wrapped for the duration of each round.
    """

    def __init__(self, seed: int, verdict: Verdict, spans: Optional[SpanRecorder],
                 sizes: List[int]):
        self.spans = spans
        stream = ChurnStream(seed)
        self.core = ServiceCore(ServiceConfig())
        _load(_core_send(self.core, None, sizes), stream)
        self.loop = Loop(_core_send(self.core, None, sizes), verdict)
        self.requests = itertools.islice(churn_rounds(stream), WARMUP_ROUNDS + TRACED_ROUNDS)
        for _ in range(WARMUP_ROUNDS):
            self.loop.run_round(next(self.requests), record=False)
        self.before = _counters(self.core.handle({"op": "metrics"}))
        self.loop.send = _core_send(self.core, spans, sizes)

    def next_round(self) -> None:
        with contextlib.ExitStack() as stack:
            if self.spans is not None:
                manager, spans = self.core.manager, self.spans
                for owner, attr, name in (
                    (manager, "add", "manager.add"),
                    (manager, "remove", "manager.remove"),
                    (manager, "apply_batch", "manager.batch"),
                    (DynamicShardPlan, "add", "plan.add"),
                    (DynamicShardPlan, "remove", "plan.remove"),
                    (service_core, "check_robustness", "alg1.check"),
                ):
                    stack.enter_context(spans.patched(owner, attr, name))
            self.loop.run_round(next(self.requests), record=True)

    def per_mutation(self) -> Dict[str, float]:
        return _per_mutation(self.before, _counters(self.core.handle({"op": "metrics"})))


def _telemetry_us(requests: int) -> float:
    """Mean cost of the telemetry calls ``ServiceCore`` makes per request."""
    registry = MetricsRegistry()
    series = WindowedSeries(1.0, 120)
    events = EventLog()
    started = time.perf_counter()
    for index in range(requests):
        registry.record("service.add", 0.002)
        registry.record("service.request", 0.002)
        registry.incr("service.requests")
        series.record(index * 0.002)
        events.emit("request", request_id=f"r1-{index}", op="add", ok=True,
                    latency_ms=2.0, checks=2, envelope_id=str(index))
    return (time.perf_counter() - started) / requests * 1e6


def _traced(work: Path, seed: int, verdict: Verdict, spans_path: Path) -> dict:
    # (a) the real daemon with its event log: transport overhead.
    eventlog = work / "events.jsonl"
    stream = ChurnStream(seed)
    daemon, _took = _setup(work, 0, stream, eventlog)
    try:
        loop = Loop(_client_send(daemon), verdict)
        requests = itertools.islice(churn_rounds(stream), WARMUP_ROUNDS + TRACED_ROUNDS)
        for index, round_requests in enumerate(requests):
            loop.run_round(round_requests, record=index >= WARMUP_ROUNDS)
        final = _client_send(daemon)({"op": "allocate"})
    finally:
        daemon.stop()
    oracles.check_final_allocation(stream.groups(), final.get("allocation", {}), verdict)
    daemon_ms = _read_eventlog(eventlog)
    overheads = [rtt * 1e6 - daemon_ms[rid] * 1e3 for rid, rtt in loop.trips if rid in daemon_ms]
    verdict.require(len(overheads) == len(loop.trips), "event log misses requests")
    # (b) in-process replays, plain and traced rounds alternated.
    sizes: List[int] = []
    plain = _Replica(seed, verdict, None, [])
    spans = SpanRecorder()
    traced = _Replica(seed, verdict, spans, sizes)
    pair = Paired()
    for _ in range(TRACED_ROUNDS):
        pair.run(plain.next_round, traced.next_round)
    counts = traced.per_mutation()
    verdict.require(plain.per_mutation() == counts, "traced replay changed the work counters")
    verdict.require(
        traced.loop.allocation == loop.allocation,
        "in-process replay disagrees with the daemon's allocation",
    )
    log(spans.table())
    log(pair.report("serve-churn"))
    spans.write(spans_path, workload="serve-churn", seed=seed, overhead=pair.overhead,
                plain_cpu_s=pair.plain_s, traced_cpu_s=pair.traced_s)
    verdict.require(counts["checks"] > 0, "the churn spent no robustness checks")
    requests_traced = len(traced.loop.all)
    return {
        "correct": verdict.correct,
        "failures": verdict.failures,
        "attempted": loop.attempted + plain.loop.attempted + traced.loop.attempted,
        "failed": loop.failed + plain.loop.failed + traced.loop.failed,
        "metrics": {
            "plan.add_us": metric(spans.mean_us("plan.add"), "us"),
            "plan.remove_us": metric(spans.mean_us("plan.remove"), "us"),
            "plan.merges_per_mutation": metric(counts["plan_merges"], "count"),
            "plan.splits_per_mutation": metric(counts["plan_splits"], "count"),
            "plan.reuse_per_mutation": metric(counts["plan_reuse"], "count"),
            "manager.add_us": metric(spans.mean_us("manager.add"), "us"),
            "manager.remove_us": metric(spans.mean_us("manager.remove"), "us"),
            "manager.batch_us": metric(spans.mean_us("manager.batch"), "us"),
            "alg1.checks_per_mutation": metric(counts["checks"], "count"),
            "kernel.row_builds_per_mutation": metric(counts["kernel_row_builds"], "count"),
            "context.index_builds_per_mutation": metric(counts["index_builds"], "count"),
            "service.self_us": metric(spans.mean_us("service.handle", self_time=True), "us"),
            "telemetry.request_us": metric(_telemetry_us(requests_traced), "us"),
            "protocol.parse_us": metric(spans.mean_us("protocol.parse"), "us"),
            "protocol.encode_us": metric(spans.mean_us("protocol.encode"), "us"),
            "protocol.response_bytes": metric(mean(sizes), "bytes"),
            "transport.overhead_us": metric(mean(overheads), "us"),
        },
        # ``alg1.check_ms`` is the cli-allocate replay's; the check command's is here.
        "info": {"rounds": TRACED_ROUNDS, "requests": requests_traced,
                 "check_command_alg1_ms": round(spans.mean_us("alg1.check") / 1e3, 4),
                 "tracing_overhead": round(pair.overhead, 4)},
    }
