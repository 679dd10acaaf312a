"""Per-layer attribution of one traced benchmark iteration.

The traced iteration turns on the program's own ``repro.obs`` spans and
counters and, from here, wraps the public entry points of the layers that have
no span yet (:func:`install_wrappers`).  Every span then belongs to one tree
per process, rooted at the iteration's ``bench.run`` span, and
:func:`attribute` turns that tree into the per-layer metrics:

* a span's *self time* is its duration minus the durations of its direct
  children, so the self times of a tree add up to the root's duration;
* each span name maps to one layer metric (:func:`layer_of`); a layer's time is
  the sum of the self times of its spans, so the layer times partition the
  traced wall (:data:`PARTITION`), and what no layer claims -- the root's own
  time and any span not mapped -- is ``trace.unattributed_s``;
* counts and rates come from the program's counters (``store.*``,
  ``flowtable.group_index_*``, ``discovery.verdict_cache.*``), from
  attributes the wrappers record (rows written per store stage, rows turned
  into records) and from the matcher wrappers' name count and time.

``matcher.s`` and the ``discovery.*_s`` breakdown overlap other layers (the
matcher runs inside discovery and some analyses; the discovery sources are
parts of ``discovery.s``), so they are reported but are not in the partition.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: The 19 experiment calls, in the order the benchmark makes them.  The name
#: is the op's name in reports and the stem of its ``exp.<name>_s`` metric.
EXPERIMENT_OPS = (
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "sec34",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13_14",
    "fig15_16",
    "sec62",
    "ablation_portscan",
    "ablation_vantage",
)

#: Span name -> layer metric for every span whose name is not a prefix family.
_SPAN_LAYER = {
    "context.build": "world.build_s",
    "gen.period": "gen.s",
    "gen.hour": "gen.s",
    "gen.scanners": "gen.s",
    # The raw-export stage's own time around the NetFlow collector.
    "context.raw_table": "export.s",
    "netflow.export": "export.s",
    "context.clean_table": "clean.s",
    "context.discovery": "discovery.s",
    "scan.snapshot": "scan.snapshot_s",
    "store.get_table": "store.read_s",
    "store.get_pipeline_result": "store.read_s",
    "store.put_table": "store.write_s",
    "store.put_pipeline_result": "store.write_s",
    "flowtable.to_records": "flowtable.to_records_s",
    # The sweep's per-scenario time outside every other layer: resolving and
    # evaluating the metric functions' own analysis code.
    "sweep.scenario": "sweep.scenario_self_s",
}

#: Layer metrics whose values partition the traced wall clock.
PARTITION = (
    "world.build_s",
    "gen.s",
    "export.s",
    "clean.s",
    "discovery.s",
    "scan.snapshot_s",
    "store.read_s",
    "store.write_s",
    "flowtable.to_records_s",
    "sweep.scenario_self_s",
) + tuple(f"exp.{op}_s" for op in EXPERIMENT_OPS)

_DISCOVERY_SOURCES = ("tls", "passive_dns", "active_dns", "ipv6", "validate", "characterize")

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "world.build_s": "s",
    "gen.s": "s",
    "gen.rows": "count",
    "gen.rows_per_s": "rows/s",
    "export.s": "s",
    "export.rows": "count",
    "export.rows_per_s": "rows/s",
    "clean.s": "s",
    "discovery.s": "s",
    **{f"discovery.{source}_s": "s" for source in _DISCOVERY_SOURCES},
    "discovery.verdict_cache_hit_ratio": "ratio",
    "matcher.names": "count",
    "matcher.s": "s",
    "matcher.names_per_s": "names/s",
    "scan.snapshot_s": "s",
    "store.writes": "count",
    "store.write_s": "s",
    "store.write_mb": "MB",
    "store.write_mb_per_s": "MB/s",
    "store.hits": "count",
    "store.misses": "count",
    "store.corrupt_fallbacks": "count",
    "store.read_s": "s",
    "store.read_mb": "MB",
    "store.read_mb_per_s": "MB/s",
    # 1 when the numpy kernels ran, 0 for the pure-python kernels.
    "kernels.backend": "flag",
    "kernels.index_builds": "count",
    "kernels.index_hit_ratio": "ratio",
    "flowtable.to_records_rows": "count",
    "flowtable.to_records_s": "s",
    **{f"exp.{op}_s": "s" for op in EXPERIMENT_OPS},
    "sweep.scenario_p50_s": "s",
    "sweep.scenario_max_s": "s",
    "sweep.scenario_self_s": "s",
    "sweep.driver_s": "s",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

ROOT_SPAN = "bench.run"

#: Counters the matcher wrappers add to the traced iteration's registry.
MATCHER_NAMES = "perfbench.matcher.names"
MATCHER_SECONDS = "perfbench.matcher.seconds"


def layer_of(span_name: str) -> Optional[str]:
    """The layer metric a span's self time counts toward (None: unattributed)."""
    layer = _SPAN_LAYER.get(span_name)
    if layer is not None:
        return layer
    if span_name.startswith("discovery."):
        return "discovery.s"
    if span_name.startswith("exp."):
        return f"{span_name}_s"
    return None


def install_wrappers() -> None:
    """Wrap the layer entry points that have no span of their own.

    Called only in the traced iteration's process, after tracing is enabled;
    the untraced iterations run the program exactly as shipped.  The store
    write wrappers record the stage and row count, which is where the
    generation and export row counts come from.
    """
    from repro.core.matcher import CompiledPatternSet
    from repro.flows.flowtable import FlowTable
    from repro.obs.trace import span
    from repro.scan.censys import CensysService
    from repro.store.artifacts import ArtifactStore

    def wrap(cls, method: str, span_name: str, attrs=None) -> None:
        original = getattr(cls, method)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with span(span_name, **(attrs(*args, **kwargs) if attrs else {})):
                return original(*args, **kwargs)

        setattr(cls, method, wrapper)

    wrap(ArtifactStore, "get_table", "store.get_table")
    wrap(ArtifactStore, "get_pipeline_result", "store.get_pipeline_result")
    wrap(
        ArtifactStore,
        "put_table",
        "store.put_table",
        # Parameter names match ArtifactStore.put_table, so keyword calls bind too.
        lambda self, config, period, stage, table: {"stage": stage, "rows": len(table)},
    )
    wrap(ArtifactStore, "put_pipeline_result", "store.put_pipeline_result")
    wrap(CensysService, "snapshot", "scan.snapshot")
    wrap(FlowTable, "to_records", "flowtable.to_records", lambda self: {"rows": len(self)})

    # The program's own matcher.bulk_* counters only see match_many, which no
    # pipeline path calls; the lookups go one name at a time.  A span per name
    # would swamp the trace, so these wrappers only count names and time.
    for method in ("match", "match_all", "matches_any", "matches_provider"):
        _count_lookups(CompiledPatternSet, method, lambda result: 1)
    _count_lookups(CompiledPatternSet, "match_many", len)


def _count_lookups(cls, method: str, names_of) -> None:
    from repro.obs import metrics as obs_metrics

    original = getattr(cls, method)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        obs_metrics.inc(MATCHER_SECONDS, time.perf_counter() - start)
        obs_metrics.inc(MATCHER_NAMES, names_of(result))
        return result

    setattr(cls, method, wrapper)


def self_times(events: Sequence[Mapping[str, object]]) -> List[tuple]:
    """``(event, self seconds)`` for every span: its duration minus its children's."""
    child_time: Dict[object, float] = {}
    for event in events:
        parent = event.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + float(event["dur"])
    return [
        (event, float(event["dur"]) - child_time.get(event["span_id"], 0.0)) for event in events
    ]


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def attribute(
    events: Sequence[Mapping[str, object]],
    snapshot: Mapping[str, object],
    wall: float,
    backend: str,
    scenario_seconds: Iterable[float] = (),
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (all but ``trace.overhead_frac``).

    ``events`` are the iteration's spans, ``snapshot`` its metrics registry
    snapshot, ``wall`` the timed region measured outside the trace, and
    ``scenario_seconds`` the sweep outcomes' ``elapsed_seconds``.
    """
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    unattributed = 0.0
    for event, seconds in self_times(events):
        name = str(event["name"])
        layer = layer_of(name)
        if layer is None:
            unattributed += seconds
        else:
            metrics[layer] += seconds
        if name.startswith("discovery.") and name[len("discovery."):] in _DISCOVERY_SOURCES:
            metrics[f"{name}_s"] += seconds
        attrs = event.get("attrs") or {}
        if name == "store.put_table":
            stage = str(attrs.get("stage", ""))
            if stage.startswith("generated:"):
                metrics["gen.rows"] += attrs["rows"]
            elif stage == "raw-export":
                metrics["export.rows"] += attrs["rows"]
        elif name == "flowtable.to_records":
            metrics["flowtable.to_records_rows"] += attrs["rows"]

    counters = snapshot.get("counters", {})
    counter = lambda key: float(counters.get(key, 0.0))  # noqa: E731
    metrics["gen.rows_per_s"] = _rate(metrics["gen.rows"], metrics["gen.s"])
    metrics["export.rows_per_s"] = _rate(metrics["export.rows"], metrics["export.s"])
    hits = counter("discovery.verdict_cache.hits")
    misses = counter("discovery.verdict_cache.misses")
    metrics["discovery.verdict_cache_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["matcher.names"] = counter(MATCHER_NAMES)
    metrics["matcher.s"] = counter(MATCHER_SECONDS)
    metrics["matcher.names_per_s"] = _rate(metrics["matcher.names"], metrics["matcher.s"])
    metrics["store.writes"] = counter("store.writes")
    metrics["store.write_mb"] = counter("store.bytes_written") / 1e6
    metrics["store.write_mb_per_s"] = _rate(metrics["store.write_mb"], metrics["store.write_s"])
    metrics["store.hits"] = counter("store.hits")
    metrics["store.misses"] = counter("store.misses")
    metrics["store.corrupt_fallbacks"] = counter("store.corrupt_fallbacks")
    metrics["store.read_mb"] = counter("store.bytes_read") / 1e6
    metrics["store.read_mb_per_s"] = _rate(metrics["store.read_mb"], metrics["store.read_s"])
    metrics["kernels.backend"] = 1.0 if backend == "numpy" else 0.0
    builds = counter("flowtable.group_index_builds")
    metrics["kernels.index_builds"] = builds
    metrics["kernels.index_hit_ratio"] = _ratio(
        counter("flowtable.group_index_hits"), counter("flowtable.group_index_hits") + builds
    )
    scenario_seconds = list(scenario_seconds)
    if scenario_seconds:
        metrics["sweep.scenario_p50_s"] = statistics.median(scenario_seconds)
        metrics["sweep.scenario_max_s"] = max(scenario_seconds)
        metrics["sweep.driver_s"] = wall - sum(scenario_seconds)
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.coverage"] = _ratio(sum(metrics[name] for name in PARTITION), wall)
    return metrics
