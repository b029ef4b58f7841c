"""Self-test of the oracles: each must pass a true result and reject a doctored one.

Run it with ``python3 perfbench/run.py --self-test``; it takes a few
seconds and exits non-zero when an oracle accepts a doctored result or
rejects a true one.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.allocation import optimal_allocation
from repro.core.isolation import Allocation, IsolationLevel
from repro.mvcc import run_workload
from repro.service.core import ServiceConfig, ServiceCore
from repro.workloads.smallbank import smallbank_workload

from . import oracles
from .common import Verdict
from .inputs import ChurnStream, add_envelope

_RAISE = {IsolationLevel.RC: IsolationLevel.SI, IsolationLevel.SI: IsolationLevel.SSI}
_LOWER = {IsolationLevel.SSI: IsolationLevel.SI, IsolationLevel.SI: IsolationLevel.RC}


def _passes(check: Callable[[Verdict], None]) -> bool:
    verdict = Verdict()
    check(verdict)
    return verdict.correct


def _optimum_cases() -> List[Tuple[str, bool, bool]]:
    workload = smallbank_workload(10, seed=7)
    optimum = optimal_allocation(workload)
    levels = dict(optimum.items())

    def judge(allocation: Allocation) -> Callable[[Verdict], None]:
        def check(verdict: Verdict) -> None:
            oracles.check_paper_robust(workload, allocation, verdict, "sb10")
            oracles.check_minimality(workload, allocation, verdict, "sb10", method="paper")

        return check

    lowered_tid = next(t for t, level in levels.items() if level in _LOWER)
    raised_tid = next(t for t, level in levels.items() if level in _RAISE)
    lowered = Allocation({**levels, lowered_tid: _LOWER[levels[lowered_tid]]})
    raised = Allocation({**levels, raised_tid: _RAISE[levels[raised_tid]]})
    return [
        ("optimum accepted", _passes(judge(optimum)), True),
        (f"optimum with T{lowered_tid} lowered rejected", _passes(judge(lowered)), False),
        (f"optimum with T{raised_tid} raised rejected", _passes(judge(raised)), False),
    ]


def _daemon_cases() -> List[Tuple[str, bool, bool]]:
    stream = ChurnStream(7)
    core = ServiceCore(ServiceConfig())
    core.handle({"op": "batch", "commands": [add_envelope(a) for a in stream.initial]})
    reported = dict(core.handle({"op": "allocate"})["allocation"])
    tid = next(iter(reported))
    doctored = {**reported, tid: "SSI" if reported[tid] != "SSI" else "SI"}
    groups = stream.groups()
    return [
        ("daemon allocation accepted", _passes(
            lambda v: oracles.check_final_allocation(groups, reported, v)), True),
        (f"daemon allocation with T{tid} changed rejected", _passes(
            lambda v: oracles.check_final_allocation(groups, doctored, v)), False),
    ]


def _history_cases() -> List[Tuple[str, bool, bool]]:
    workload = smallbank_workload(16, seed=7)
    trace, _stats = run_workload(workload, optimal_allocation(workload), seed=7)
    version_order, reads = oracles.trace_history(trace.events)
    # Two transactions that each install the first version of some object.
    firsts = {}
    for obj, writers in version_order.items():
        firsts.setdefault(writers[0], obj)
    (a, x), (b, y) = list(firsts.items())[:2]
    # b reads x's initial version (rw b -> a), a reads y's (rw a -> b).
    cyclic = reads + [(b, x, 0), (a, y, 0)]
    return [
        ("serializable history accepted",
         oracles.find_cycle(version_order, reads) is None, True),
        (f"history with an injected T{a}/T{b} cycle rejected",
         oracles.find_cycle(version_order, cyclic) is None, False),
    ]


def main() -> int:
    failures = 0
    for name, passed, expected in _optimum_cases() + _daemon_cases() + _history_cases():
        ok = passed == expected
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"self-test: {'all oracles behave' if not failures else f'{failures} failure(s)'}")
    return 1 if failures else 0
