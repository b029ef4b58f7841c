"""In-memory spans recorded around calls into the program's layers.

Spans are taken by the benchmark's own code — context managers around
public entry points, or wrappers installed on them for the duration of
a traced replay — never by instrumentation inside ``src``.  Each span
has a name, start, end, parent span and the id of the request (or
input file) it belongs to.  A layer's self time is its span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    request: Optional[str]
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


@dataclass
class LayerStat:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


class SpanRecorder:
    """Nested spans of one single-threaded replay, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.request: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            id=len(self.spans) + 1,
            name=name,
            parent=parent.id if parent else None,
            request=self.request,
            start_ns=time.perf_counter_ns(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                parent.child_ns += record.duration_ns

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        results: Optional[List[Any]] = None,
    ) -> Callable[..., Any]:
        """``func`` with every call recorded as a span called ``name``.

        When ``results`` is given, every return value is appended to it.
        """

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                value = func(*args, **kwargs)
            if results is not None:
                results.append(value)
            return value

        return traced

    @contextlib.contextmanager
    def patched(
        self, owner: Any, attr: str, name: str, results: Optional[List[Any]] = None
    ) -> Iterator[None]:
        """Record spans around ``owner.attr`` until the block exits."""
        on_instance = not isinstance(owner, (type, types.ModuleType))
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, results))
        try:
            yield
        finally:
            if on_instance:
                delattr(owner, attr)  # the class attribute shows again
            else:
                setattr(owner, attr, original)

    def layers(self) -> Dict[str, LayerStat]:
        """Per span name: call count, inclusive and self time."""
        table: Dict[str, LayerStat] = {}
        for record in self.spans:
            stat = table.setdefault(record.name, LayerStat())
            stat.count += 1
            stat.total_ns += record.duration_ns
            stat.self_ns += record.self_ns
        return table

    def mean_us(self, name: str, self_time: bool = False) -> float:
        stat = self.layers().get(name)
        if stat is None or not stat.count:
            return 0.0
        return (stat.self_ns if self_time else stat.total_ns) / stat.count / 1e3

    def total_ms(self, name: str) -> float:
        stat = self.layers().get(name)
        return stat.total_ns / 1e6 if stat else 0.0

    def table(self) -> str:
        """The per-layer table: samples, inclusive and self time."""
        header = f"{'span':<24} {'samples':>8} {'total ms':>10} {'mean us':>10} {'self us':>10}"
        lines = [header, "-" * len(header)]
        for name, stat in sorted(self.layers().items()):
            lines.append(
                f"{name:<24} {stat.count:>8} {stat.total_ns / 1e6:>10.2f}"
                f" {stat.total_ns / stat.count / 1e3:>10.1f}"
                f" {stat.self_ns / stat.count / 1e3:>10.1f}"
            )
        return "\n".join(lines)

    def write(self, path: Path, **extra: Any) -> None:
        """Write every span (times in ns from the first span) as JSON."""
        base = self.spans[0].start_ns if self.spans else 0
        payload = {
            **extra,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "request": s.request,
                    "start_ns": s.start_ns - base,
                    "end_ns": s.end_ns - base,
                    "self_ns": s.self_ns,
                }
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
