"""In-memory spans for the traced run, and their self-time arithmetic.

A span is one call through a wrapped ``repro`` function: its layer name,
start and end (``time.perf_counter``), the span that was open on the
same thread when it began, and the op it belongs to.  Spans stay in
memory until the run ends and :meth:`Recorder.write_jsonl` writes them.

Kept free of ``repro`` imports so the unit tests run on their own.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> str | None:
        """The op id spans begun on this thread are attributed to."""
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: str | None) -> None:
        self._local.op = value

    def add(self, name: str, start: float, end: float, op: str | None) -> None:
        """Record a span measured elsewhere (e.g. from job timestamps)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, op))

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        collapse: bool = True,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments.  With
        ``collapse`` a call nested directly in a span of the same name
        records nothing, so recursive layers are not counted twice.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            stack = recorder._stack()
            if collapse and stack and stack[-1][1] == label:
                return fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else None
            op = recorder.op
            stack.append((span_id, label))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(span_id, label, start, end, parent, op)
                )

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(asdict(span)) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> list[tuple[float, float]]:
    return [
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    ]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(_clipped(children[span.id], span.start, span.end))
        for span in spans
    }


def covered(spans: Iterable[Span], lo: float, hi: float) -> float:
    """Time within [lo, hi] that at least one span covers."""
    return union_length(_clipped(((s.start, s.end) for s in spans), lo, hi))
