"""Seeded inputs of the three workloads.

Everything the program receives is made here from ``--seed``: workload
files for ``cli-allocate`` and ``simulate``, and the request stream of
``serve-churn``.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Tuple

from repro.workloads.generator import clustered_workload
from repro.workloads.smallbank import smallbank_workload
from repro.workloads.tpcc import tpcc_workload


def sub_seeds(label: str, seed: int, count: int) -> List[int]:
    """``count`` independent seeds for the parts of one workload's input."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


# -- cli-allocate --------------------------------------------------------
#: (kind, size) of the timed files; the clustered file is 32 clusters x 5.
ALLOCATE_FILES = (
    *[("smallbank", 80)] * 8,
    *[("tpcc", size) for size in (40, 42, 44, 46, 48, 44)],
    ("clustered", 160),
)
#: Untimed files small enough for the paper-verbatim engine.
PAPER_FILES = (("smallbank", 10), ("tpcc", 8))


def _build(kind: str, size: int, seed: int):
    if kind == "smallbank":
        return smallbank_workload(size, seed=seed)
    if kind == "tpcc":
        return tpcc_workload(size, seed=seed)
    return clustered_workload(components=32, per_component=size // 32, seed=seed)


def allocate_files(seed: int, directory: Path) -> Tuple[List[Path], List[Path]]:
    """Write the timed and the paper-oracle workload files; return their paths."""
    specs = ALLOCATE_FILES + PAPER_FILES
    seeds = sub_seeds("cli-allocate", seed, len(specs))
    paths: List[Path] = []
    for index, ((kind, size), file_seed) in enumerate(zip(specs, seeds)):
        path = directory / f"{index:02d}-{kind}{size}.txt"
        path.write_text(str(_build(kind, size, file_seed)) + "\n", encoding="utf-8")
        paths.append(path)
    return paths[: len(ALLOCATE_FILES)], paths[len(ALLOCATE_FILES):]


# -- serve-churn ---------------------------------------------------------
#: Cluster sizes of the steady state: 24 of 8 and 2 of 32 = 256 live
#: (under churn a cluster holds at most one more than this).
CHURN_CLUSTERS = (8,) * 24 + (32,) * 2
#: Objects private to a cluster of each size.
CHURN_POOL = {8: 6, 32: 20}
#: Transactions per ``batch`` envelope (half adds, half removes).
BATCH_PAIRS = 8


@dataclass(frozen=True)
class Arrival:
    tid: int
    text: str


class ChurnStream:
    """The steady-state load plus an endless held-out arrival stream.

    Every cluster draws from its own object pool, so clusters never
    conflict with each other.  Departures are FIFO over all live
    transactions.  Each arrival joins a random cluster, weighted by how
    far the cluster is below its steady-state size (never more than one
    above it), so the component make-up stays stationary while the
    order in which clusters are hit never repeats.  Arrivals get fresh
    tids and freshly drawn operations: never a re-add.
    """

    def __init__(self, seed: int):
        (gen_seed,) = sub_seeds("serve-churn", seed, 1)
        self._rng = random.Random(gen_seed)
        self._next_tid = 1
        self._cluster_of: Dict[int, int] = {}
        self.text_of: Dict[int, str] = {}
        self.live: Deque[int] = deque()
        self.initial: List[Arrival] = []
        slots = [c for c, size in enumerate(CHURN_CLUSTERS) for _ in range(size)]
        self._rng.shuffle(slots)
        for cluster in slots:
            arrival = self._arrive(cluster)
            self.initial.append(arrival)

    def _arrive(self, cluster: int) -> Arrival:
        tid = self._next_tid
        self._next_tid += 1
        pool = CHURN_POOL[CHURN_CLUSTERS[cluster]]
        rng = self._rng
        target = rng.randint(2, 4)
        ops: List[str] = []
        reads: set = set()
        writes: set = set()
        while len(reads | writes) < target:
            obj = f"k{cluster}o{rng.randrange(pool)}"
            if rng.random() < 0.5:
                if obj in writes:
                    continue
                if obj not in reads and rng.random() < 0.5:
                    ops.append(f"R[{obj}]")
                    reads.add(obj)
                ops.append(f"W[{obj}]")
                writes.add(obj)
            elif obj not in reads and obj not in writes:
                ops.append(f"R[{obj}]")
                reads.add(obj)
        text = " ".join(ops)
        self._cluster_of[tid] = cluster
        self.text_of[tid] = text
        self.live.append(tid)
        return Arrival(tid, text)

    def groups(self) -> List[Dict[int, str]]:
        """Live transactions (tid -> text), one dict per cluster."""
        groups: List[Dict[int, str]] = [{} for _ in CHURN_CLUSTERS]
        for tid, text in self.text_of.items():
            groups[self._cluster_of[tid]][tid] = text
        return groups

    def churn(self) -> Tuple[Arrival, int]:
        """One mutation pair: a fresh arrival and the FIFO departure."""
        sizes = [0] * len(CHURN_CLUSTERS)
        for cluster in self._cluster_of.values():
            sizes[cluster] += 1
        weights = [max(0, target + 1 - size) for target, size in zip(CHURN_CLUSTERS, sizes)]
        (cluster,) = self._rng.choices(range(len(CHURN_CLUSTERS)), weights)
        arrival = self._arrive(cluster)
        departing = self.live.popleft()
        del self.text_of[departing]
        del self._cluster_of[departing]
        return arrival, departing


def add_envelope(arrival: Arrival) -> Dict[str, object]:
    return {"op": "add", "transaction": arrival.text, "tid": arrival.tid}


def churn_rounds(stream: ChurnStream) -> Iterator[List[Dict[str, object]]]:
    """Endless rounds of request envelopes (without ids).

    One round is 12 requests carrying 22 mutations: three single
    add/remove pairs, one coalesced batch of ``BATCH_PAIRS`` pairs, two
    ``status``, two ``allocate`` and one ``check``.  The ``check``
    envelope is a placeholder the client loop fills with the allocation the
    preceding ``allocate`` returned.
    """
    while True:
        requests: List[Dict[str, object]] = []

        def pair() -> None:
            arrival, departing = stream.churn()
            requests.append(add_envelope(arrival))
            requests.append({"op": "remove", "tid": departing})

        pair()
        requests.append({"op": "status"})
        pair()
        requests.append({"op": "allocate"})
        commands: List[Dict[str, object]] = []
        for _ in range(BATCH_PAIRS):
            arrival, departing = stream.churn()
            commands.append(add_envelope(arrival))
            commands.append({"op": "remove", "tid": departing})
        requests.append({"op": "batch", "commands": commands})
        pair()
        requests.append({"op": "status"})
        requests.append({"op": "allocate"})
        requests.append({"op": "check"})
        yield requests


#: Mutations carried by one round of :func:`churn_rounds`.
MUTATIONS_PER_ROUND = 6 + 2 * BATCH_PAIRS


# -- simulate ------------------------------------------------------------
#: ``repro simulate sweep`` arguments; each round runs the sweep once per
#: sweep seed (two base workloads per contention point).
SWEEP_ARGS = (
    "--benchmark", "smallbank", "--points", "2,4,8,16", "--transactions", "20",
    "--repeat", "12", "--sessions", "8",
)
SWEEP_SEEDS = 4
#: SmallBank files run on the tick engine, their size and runs per file.
TICK_FILES = 12
TICK_TRANSACTIONS = 16
TICK_RUNS = 10


def simulate_inputs(seed: int, directory: Path) -> Tuple[List[int], List[Path], int]:
    """The sweep seeds, the tick-engine workload files and their run seed."""
    seeds = sub_seeds("simulate", seed, 1 + SWEEP_SEEDS + TICK_FILES)
    tick_seed, sweep_seeds, file_seeds = seeds[0], seeds[1:1 + SWEEP_SEEDS], seeds[1 + SWEEP_SEEDS:]
    paths = []
    for index, file_seed in enumerate(file_seeds):
        path = directory / f"{index}-smallbank{TICK_TRANSACTIONS}.txt"
        path.write_text(
            str(smallbank_workload(TICK_TRANSACTIONS, seed=file_seed)) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return [s % 100000 for s in sweep_seeds], paths, tick_seed % 100000
