"""Append-only JSONL span tracing.

:func:`span` is a context manager that times a named stage and, when tracing
is enabled, appends one JSON line per *completed* span to the trace file:

```json
{"name": "gen.hour", "span_id": "1234-7", "parent_id": "1234-3", "pid": 1234,
 "start": 1722310000.25, "dur": 0.0123, "attrs": {"hour": "2022-03-14T09:00:00"}}
```

* ``dur`` is measured with ``time.monotonic`` (never walks backwards);
  ``start`` is wall-clock epoch for human correlation.
* ``parent_id`` links nested spans per thread (a thread-local stack), so a
  trace reconstructs the stage tree of each process.
* Lines are written with a single ``os.write`` on an ``O_APPEND`` descriptor:
  on POSIX, concurrent appenders (forked sweep workers inherit the
  open descriptor; spawned ones open the path their task carries)
  interleave whole lines, never bytes.

Tracing is on only between :func:`enable` (the CLI's ``--trace PATH``) and
:func:`disable`.  While disabled, :func:`span` yields immediately and
touches neither the clock nor the filesystem.

Reading is crash-tolerant: :func:`read_trace` skips unparseable lines (the
torn tail a killed process leaves mid-append) instead of failing, and
:func:`summarize_trace` folds events into the per-stage table behind
``iot-backend-repro stats``.

The tracer is strictly **read-only** with respect to the experiment: it draws
no randomness and feeds nothing back into any computation, so store digests
and ledger identities are bit-identical with tracing on or off.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

_lock = threading.Lock()
_sink_fd: Optional[int] = None
_sink_path: Optional[str] = None
_ids = itertools.count(1)
_stack = threading.local()


def enable(path: Union[str, Path]) -> None:
    """Start appending span events to ``path`` (creates the file if needed)."""
    global _sink_fd, _sink_path
    with _lock:
        if _sink_fd is not None:
            os.close(_sink_fd)
        _sink_path = str(path)
        _sink_fd = os.open(_sink_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)


def disable() -> None:
    """Stop tracing."""
    global _sink_fd, _sink_path
    with _lock:
        if _sink_fd is not None:
            os.close(_sink_fd)
        _sink_fd = None
        _sink_path = None


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _sink_fd is not None


def trace_path() -> Optional[str]:
    """The active trace file path, or None while disabled."""
    return _sink_path


def _parent_stack() -> List[str]:
    stack = getattr(_stack, "spans", None)
    if stack is None:
        stack = _stack.spans = []
    return stack


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Time a named stage; emit one JSONL event when it completes.

    ``attrs`` become the event's ``attrs`` object (values must be
    JSON-serializable).  Nested spans record their parent's id.  While
    tracing is disabled this is a near-no-op.
    """
    fd = _sink_fd
    if fd is None:
        yield
        return
    stack = _parent_stack()
    span_id = f"{os.getpid()}-{next(_ids)}"
    parent_id = stack[-1] if stack else None
    stack.append(span_id)
    start_wall = time.time()
    start = time.monotonic()
    try:
        yield
    finally:
        duration = time.monotonic() - start
        stack.pop()
        event = {
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "pid": os.getpid(),
            "start": start_wall,
            "dur": duration,
        }
        if attrs:
            event["attrs"] = attrs
        line = json.dumps(event, sort_keys=True, default=str) + "\n"
        try:
            os.write(fd, line.encode("utf-8"))
        except OSError:  # tracing must never take the experiment down
            pass


# -- reading / summarizing ---------------------------------------------------------


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSONL trace file, tolerating torn or garbage lines.

    A process killed mid-append leaves a partial line; concurrent appenders
    mean that line is not necessarily the file's last.  Every unparseable or
    non-object line is therefore skipped rather than fatal — observability
    data is advisory, and a best-effort read beats refusing the whole file.
    """
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "name" in event and "dur" in event:
                events.append(event)
    return events


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Exact nearest-rank ``q``-quantile of ``ordered`` (sorted, non-empty)."""
    rank = max(1, int(q * len(ordered) + 0.9999999))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class StageStats:
    """Aggregated timings of one span name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    durations: List[float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.durations is None:
            self.durations = []

    def add(self, duration: float) -> None:
        self.count += 1
        self.total_seconds += duration
        self.max_seconds = max(self.max_seconds, duration)
        self.durations.append(duration)

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile over the recorded durations."""
        return nearest_rank(sorted(self.durations), q)


@dataclass
class TraceSummary:
    """Per-stage aggregates plus whole-trace wall-clock accounting."""

    stages: Dict[str, StageStats]
    #: Sum over processes of (last span end - first span start).
    wall_seconds: float
    #: Sum over processes of their *root* spans' durations.
    accounted_seconds: float
    processes: int
    events: int

    @property
    def coverage(self) -> float:
        """Fraction of observed wall-clock covered by root spans (0..1)."""
        if self.wall_seconds <= 0.0:
            return 1.0 if self.accounted_seconds > 0 else 0.0
        return self.accounted_seconds / self.wall_seconds

    def rows(self) -> List[List[object]]:
        """Per-stage table rows (sorted by total time, descending)."""
        ordered = sorted(self.stages.values(), key=lambda s: -s.total_seconds)
        return [
            [
                stage.name,
                stage.count,
                round(stage.total_seconds, 4),
                round(stage.total_seconds / stage.count, 6),
                round(stage.percentile(0.5), 6),
                round(stage.percentile(0.95), 6),
                round(stage.max_seconds, 6),
            ]
            for stage in ordered
        ]


def summarize_trace(events: List[Dict[str, object]]) -> TraceSummary:
    """Fold span events into per-stage statistics and wall-clock coverage.

    Coverage is computed per process: each pid's wall clock is the interval
    from its first span start to its last span end, and its accounted time is
    the sum of its *root* (parentless) span durations — nested spans overlap
    their parents and must not double-count.
    """
    stages: Dict[str, StageStats] = {}
    first_start: Dict[int, float] = {}
    last_end: Dict[int, float] = {}
    accounted: Dict[int, float] = {}
    for event in events:
        try:
            name = str(event["name"])
            duration = float(event["dur"])
            start = float(event.get("start", 0.0))
            pid = int(event.get("pid", 0))
        except (TypeError, ValueError):
            continue
        stats = stages.get(name)
        if stats is None:
            stats = stages[name] = StageStats(name)
        stats.add(duration)
        end = start + duration
        if pid not in first_start or start < first_start[pid]:
            first_start[pid] = start
        if pid not in last_end or end > last_end[pid]:
            last_end[pid] = end
        if event.get("parent_id") is None:
            accounted[pid] = accounted.get(pid, 0.0) + duration
    wall = sum(last_end[pid] - first_start[pid] for pid in first_start)
    return TraceSummary(
        stages=stages,
        wall_seconds=wall,
        accounted_seconds=sum(accounted.values()),
        processes=len(first_start),
        events=sum(stats.count for stats in stages.values()),
    )
