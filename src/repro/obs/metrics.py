"""Process-local metrics registry: counters and fixed-bucket histograms.

A :class:`MetricsRegistry` aggregates two kinds of instruments:

* **Counters** — monotonically increasing floats (``inc``),
* **Histograms** — fixed-bucket latency/size distributions (``observe``),
  recording per-bucket counts plus sum/count/min/max so quantiles can be
  estimated without keeping samples.

All mutating operations take the registry lock, so instrumented code may run
from any thread.  A registry serializes to a plain-JSON **snapshot**
(:meth:`MetricsRegistry.snapshot`) and snapshots **merge** additively
(:meth:`MetricsRegistry.merge`): counters and histogram buckets add.  That is
the mechanism sweep workers use to ship their metrics to the driver — each
worker snapshots its registry into the scenario outcome, and the driver
merges every snapshot into its own registry.

The module also owns the **process-local default registry** the
instrumentation helpers (:func:`inc`, :func:`observe`) write to.  Collection
is off by default: every helper first checks :func:`enabled`, so
uninstrumented runs pay one boolean test per call site and nothing else.
Observability is strictly read-only — no helper draws randomness or
influences any computed value.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets (seconds): microbenchmarks up to campaign scale.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
    300.0,
)


class Histogram:
    """A fixed-bucket histogram (cumulative counts live in ``counts[i]``).

    ``counts`` has ``len(buckets) + 1`` entries; the last one is the overflow
    bucket (observations above the largest boundary).
    """

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be a non-empty sorted sequence")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for boundary in self.buckets:
            if value <= boundary:
                break
            index += 1
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile (0..1) from the bucket counts.

        Returns the upper boundary of the bucket holding the target rank
        (``max`` for the overflow bucket) — coarse but monotone, which is all
        the per-stage summary tables need.
        """
        if self.count == 0:
            return None
        target = max(1, int(q * self.count + 0.5))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max
        return self.max  # pragma: no cover - defensive

    def to_snapshot(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    def merge_snapshot(self, snap: Mapping[str, object]) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError("cannot merge histograms with different bucket boundaries")
        for index, value in enumerate(snap["counts"]):
            self.counts[index] += int(value)
        self.sum += float(snap["sum"])
        self.count += int(snap["count"])
        for attr, pick in (("min", min), ("max", max)):
            other = snap.get(attr)
            if other is not None:
                mine = getattr(self, attr)
                setattr(self, attr, float(other) if mine is None else pick(mine, float(other)))


class MetricsRegistry:
    """Thread-safe named counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments -------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def observe(self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(buckets)
            histogram.observe(value)

    # -- read access -------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def histogram_names(self) -> List[str]:
        with self._lock:
            return sorted(self._histograms)

    # -- snapshot / merge --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-JSON representation of the registry's current state."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: histogram.to_snapshot()
                    for name, histogram in self._histograms.items()
                },
            }

    def merge(self, snap: Mapping[str, object]) -> None:
        """Fold a snapshot into this registry (counters and histograms add).

        Keys other than ``counters`` and ``histograms``, such as the
        ``gauges`` of older snapshots, are ignored.
        """
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + float(value)
            for name, hist_snap in snap.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(hist_snap["buckets"])
                histogram.merge_snapshot(hist_snap)

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snap)
        return registry


# -- process-local default registry ------------------------------------------------

_registry = MetricsRegistry()
_enabled = False


def registry() -> MetricsRegistry:
    """The process-local default registry the helpers write to."""
    return _registry


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one).

    Sweep workers install a fresh registry per scenario so each outcome ships
    exactly the metrics that scenario produced.
    """
    global _registry
    previous = _registry
    _registry = new
    return previous


def enable() -> None:
    """Turn metric collection on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn metric collection off (the registry's contents are kept)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether the instrumentation helpers currently record anything."""
    return _enabled


def inc(name: str, value: float = 1.0) -> None:
    """Increment a counter on the default registry (no-op while disabled)."""
    if _enabled:
        _registry.inc(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the default registry (no-op while disabled)."""
    if _enabled:
        _registry.observe(name, value)
