"""Output checks, each independent of the code path it judges.

* :func:`find_cycle` is the benchmark's own serialization-graph test:
  ww, wr and rw dependencies over a history given as per-object version
  orders plus the version each read observed.  It shares no code with
  ``repro.core.serialization``.
* :func:`check_minimality` lowers every transaction above RC by one
  level and demands a counterexample schedule that Definition 2.4
  (``repro.core.allowed.is_allowed``) allows and :func:`find_cycle`
  finds non-serializable — so the lowered allocation is provably not
  robust, whatever Algorithm 1 said about it.
* :func:`check_paper_robust` confirms robustness with the paper-verbatim
  engine (small instances only); :func:`check_sampled_robustness` runs
  the tick scheduler under the allocation and demands that every
  execution is allowed and serializable.  Robustness plus one-step
  minimality proves the optimum (Propositions 4.1 and 4.2).
* :func:`check_final_allocation` recomputes Algorithm 2 from scratch on
  the daemon's live transaction set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.allocation import optimal_allocation
from repro.core.allowed import is_allowed
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.robustness import check_robustness, first_witness_spec
from repro.core.transactions import parse_transaction
from repro.core.workload import Workload
from repro.mvcc import run_workload, trace_to_schedule

from .common import Verdict

#: One read of a history: (reader tid, object, tid of the observed
#: version's writer, 0 for the initial version).
Read = Tuple[int, str, int]


def find_cycle(
    version_order: Mapping[str, Sequence[int]], reads: Iterable[Read]
) -> Optional[List[int]]:
    """A dependency cycle of the history, or ``None`` when serializable.

    ``version_order[obj]`` lists the writers of ``obj`` in installation
    order (the initial version is implicit and first).  Edges: ww
    between consecutive versions, wr from a version's writer to its
    reader, rw from a reader to the writer of the next version after
    the one it observed.  Later versions are reached through the ww
    chain, so these edges have the reachability of the full dependency
    graph and the same cycles.
    """
    edges: Dict[int, set] = {}

    def edge(a: int, b: int) -> None:
        if a != b:
            edges.setdefault(a, set()).add(b)
            edges.setdefault(b, set())

    rank: Dict[str, Dict[int, int]] = {}
    for obj, writers in version_order.items():
        rank[obj] = {tid: index for index, tid in enumerate(writers)}
        for before, after in zip(writers, writers[1:]):
            edge(before, after)
    for reader, obj, observed in reads:
        edges.setdefault(reader, set())
        writers = version_order.get(obj, ())
        if observed:
            edge(observed, reader)
            nxt = rank[obj][observed] + 1
        else:
            nxt = 0
        if nxt < len(writers):
            edge(reader, writers[nxt])
    # Iterative DFS with an explicit path: grey nodes are on the path.
    state: Dict[int, int] = {}
    for root in edges:
        if root in state:
            continue
        path = [root]
        iters = [iter(edges[root])]
        state[root] = 1
        while iters:
            child = next(iters[-1], None)
            if child is None:
                state[path.pop()] = 2
                iters.pop()
                continue
            mark = state.get(child, 0)
            if mark == 1:
                return path[path.index(child):] + [child]
            if mark == 0:
                state[child] = 1
                path.append(child)
                iters.append(iter(edges[child]))
    return None


def schedule_history(schedule) -> Tuple[Dict[str, List[int]], List[Read]]:
    """Version orders and reads of a ``repro`` :class:`MVSchedule`."""
    version_order = {
        obj: [op.transaction_id for op in writes if not op.is_initial]
        for obj, writes in schedule.version_order.items()
    }
    reads: List[Read] = []
    for op in schedule.order:
        if op.is_read:
            seen = schedule.version_of(op)
            reads.append((op.transaction_id, op.obj, 0 if seen.is_initial else seen.transaction_id))
    return version_order, reads


def trace_history(events) -> Tuple[Dict[str, List[int]], List[Read]]:
    """Version orders and reads of an execution trace's committed attempts.

    Versions are installed at commit, so each object's version order is
    the commit order of its writers.
    """
    events = list(events)
    winner = {e.tid: e.attempt for e in events if e.kind == "commit"}
    pending: Dict[int, List[str]] = {}
    version_order: Dict[str, List[int]] = {}
    reads: List[Read] = []
    for event in events:
        if winner.get(event.tid) != event.attempt:
            continue
        if event.kind == "read":
            reads.append((event.tid, event.obj, event.observed or 0))
        elif event.kind == "write":
            pending.setdefault(event.tid, []).append(event.obj)
        elif event.kind == "commit":
            for obj in pending.pop(event.tid, ()):
                version_order.setdefault(obj, []).append(event.tid)
    return version_order, reads


_ONE_DOWN = {IsolationLevel.SSI: IsolationLevel.SI, IsolationLevel.SI: IsolationLevel.RC}


def components(workload: Workload) -> List[Workload]:
    """The workload split into its conflict-connected parts.

    Two transactions are linked when they access a common object and
    at least one of them writes it.  A counterexample over one part
    extends to the whole workload by running the other transactions
    serially after it, so minimality can be checked part by part.
    """
    parent = {tid: tid for tid in workload.tids}

    def find(tid: int) -> int:
        while parent[tid] != tid:
            parent[tid] = parent[parent[tid]]
            tid = parent[tid]
        return tid

    accessors: Dict[str, List[int]] = {}
    writers: Dict[str, int] = {}
    for txn in workload:
        for obj in txn.read_set | txn.write_set:
            accessors.setdefault(obj, []).append(txn.tid)
        for obj in txn.write_set:
            writers.setdefault(obj, txn.tid)
    for obj, writer in writers.items():
        for tid in accessors[obj]:
            parent[find(tid)] = find(writer)
    groups: Dict[int, List[int]] = {}
    for tid in workload.tids:
        groups.setdefault(find(tid), []).append(tid)
    return [workload.restricted_to(tids) for tids in groups.values()]


def check_minimality(
    workload: Workload,
    allocation: Allocation,
    verdict: Verdict,
    label: str,
    method: str = "bitset",
) -> int:
    """Every one-level lowering must admit an allowed non-serializable schedule.

    The search runs on the lowered transaction's conflict-connected
    part (see :func:`components`); the schedule is built over the
    witness chain's transactions alone.  Returns how many lowerings were
    checked.
    """
    lowered_count = 0
    for part in components(workload):
        context = AnalysisContext(part) if method != "paper" else None
        levels = {tid: allocation[tid] for tid in part.tids}
        lowered_count += _check_part(part, levels, verdict, label, method, context)
    return lowered_count


def _check_part(workload, levels, verdict, label, method, context) -> int:
    lowered_count = 0
    for tid, level in levels.items():
        if level not in _ONE_DOWN:
            continue
        lowered = {**levels, tid: _ONE_DOWN[level]}
        lowered_count += 1
        spec = first_witness_spec(workload, Allocation(lowered), method=method, context=context)
        if not verdict.require(
            spec is not None,
            f"{label}: T{tid} lowered to {_ONE_DOWN[level].name} is robust;"
            " the allocation is not minimal",
        ):
            continue
        # Materialize the counterexample over the chain's transactions
        # only: a schedule over a subset extends to the whole workload by
        # running the other transactions serially after it.
        members = sorted({q.tid_i for q in spec.chain} | {q.tid_j for q in spec.chain})
        chain_workload = workload.restricted_to(members)
        chain_lowered = Allocation({member: lowered[member] for member in members})
        result = check_robustness(chain_workload, chain_lowered, method=method)
        if not verdict.require(
            not result.robust and result.counterexample is not None,
            f"{label}: T{tid} lowered: the witness chain {members} is robust on its own",
        ):
            continue
        schedule = result.counterexample.schedule
        verdict.require(
            is_allowed(schedule, chain_lowered),
            f"{label}: counterexample for T{tid} lowered is not allowed (Def 2.4)",
        )
        verdict.require(
            find_cycle(*schedule_history(schedule)) is not None,
            f"{label}: counterexample for T{tid} lowered is serializable",
        )
    return lowered_count


def check_paper_robust(
    workload: Workload, allocation: Allocation, verdict: Verdict, label: str
) -> None:
    """Robustness by the paper-verbatim engine (small workloads only)."""
    verdict.require(
        check_robustness(workload, allocation, method="paper").robust,
        f"{label}: the paper engine finds the allocation not robust",
    )


def check_sampled_robustness(
    workload: Workload,
    allocation: Allocation,
    seeds: Sequence[int],
    verdict: Verdict,
    label: str,
) -> None:
    """Executions sampled by the tick scheduler are allowed and serializable."""
    for seed in seeds:
        trace, _stats = run_workload(workload, allocation, seed=seed)
        verdict.require(
            is_allowed(trace_to_schedule(trace, workload), allocation),
            f"{label}: sampled execution (seed {seed}) not allowed under the allocation",
        )
        cycle = find_cycle(*trace_history(trace.events))
        verdict.require(
            cycle is None,
            f"{label}: sampled execution (seed {seed}) has dependency cycle {cycle}",
        )


def check_final_allocation(
    groups: Sequence[Mapping[int, str]], reported: Mapping[str, str], verdict: Verdict
) -> None:
    """The daemon's allocation equals Algorithm 2 rerun from scratch.

    ``groups`` partitions the live transactions (tid -> text) into sets
    that share no object, so the optimum of the whole is the union of
    the groups' optima; each group runs the monolithic Algorithm 2 on a
    fresh context, sharing nothing with the daemon's incremental path.
    """
    want: Dict[str, str] = {}
    for group in groups:
        workload = Workload(parse_transaction(text, tid=tid) for tid, text in group.items())
        for tid, level in optimal_allocation(workload).items():
            want[str(tid)] = level.name
    diff = sorted(
        tid for tid in set(want) | set(reported) if want.get(tid) != reported.get(tid)
    )
    verdict.require(
        not diff,
        f"daemon allocation differs from the recomputed optimum at {len(diff)}"
        f" transaction(s), e.g. {diff[:5]}",
    )
