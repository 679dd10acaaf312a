"""Tests for ``repro.obs``: metrics registry, span tracing, logging — and the
read-only contract (observability must never disturb results, store addresses,
or ledger identity)."""

import json
import logging
import os

import pytest

from repro.obs import bench as obs_bench
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Every test starts and ends with metrics off, a fresh registry, and tracing off."""
    previous = obs_metrics.set_registry(MetricsRegistry())
    obs_metrics.disable()
    obs_trace.disable()
    yield
    obs_metrics.set_registry(previous)
    obs_metrics.disable()
    obs_trace.disable()


# -- metrics registry -----------------------------------------------------------------


def test_registry_counters_histograms():
    registry = MetricsRegistry()
    registry.inc("a")
    registry.inc("a", 2.5)
    registry.observe("h", 0.02)
    registry.observe("h", 0.3)
    assert registry.counter("a") == 3.5
    assert registry.counter("missing") == 0.0
    histogram = registry.histogram("h")
    assert histogram.count == 2
    assert histogram.min == 0.02
    assert histogram.max == 0.3
    assert histogram.sum == pytest.approx(0.32)


def test_histogram_quantile_is_bucket_upper_boundary():
    histogram = Histogram(buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.05, 0.5, 5.0):
        histogram.observe(value)
    assert histogram.quantile(0.5) == 0.1
    assert histogram.quantile(0.99) == 10.0
    # Overflow bucket reports the exact observed max.
    histogram.observe(99.0)
    assert histogram.quantile(1.0) == 99.0
    assert Histogram().quantile(0.5) is None


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 0.5))
    with pytest.raises(ValueError):
        Histogram(buckets=())


def test_snapshot_roundtrip_and_merge_semantics():
    a = MetricsRegistry()
    a.inc("jobs", 2)
    a.observe("lat", 0.004)
    b = MetricsRegistry()
    b.inc("jobs", 5)
    b.inc("only_b")
    b.observe("lat", 0.2)

    merged = MetricsRegistry.from_snapshot(a.snapshot())
    merged.merge(b.snapshot())
    assert merged.counter("jobs") == 7.0  # counters add
    assert merged.counter("only_b") == 1.0
    histogram = merged.histogram("lat")
    assert histogram.count == 2  # histogram buckets add
    assert histogram.min == 0.004
    assert histogram.max == 0.2
    # Snapshots are plain JSON; an older snapshot's gauges are ignored.
    snapshot = merged.snapshot()
    json.dumps(snapshot)
    merged.merge({"gauges": {"depth": 9.0}})
    assert merged.snapshot() == snapshot


def test_merge_rejects_mismatched_histogram_buckets():
    a = MetricsRegistry()
    a.observe("lat", 0.1, buckets=(0.5, 1.0))
    b = MetricsRegistry()
    b.observe("lat", 0.1, buckets=(0.25, 1.0))
    with pytest.raises(ValueError):
        a.merge(b.snapshot())


def test_module_helpers_are_noops_while_disabled():
    obs_metrics.inc("x")
    obs_metrics.observe("y", 1.0)
    assert obs_metrics.registry().counter("x") == 0.0
    assert not obs_metrics.enabled()
    obs_metrics.enable()
    try:
        obs_metrics.inc("x")
        assert obs_metrics.registry().counter("x") == 1.0
    finally:
        obs_metrics.disable()


# -- tracing --------------------------------------------------------------------------


def test_span_disabled_emits_nothing(tmp_path):
    with obs_trace.span("quiet"):
        pass
    assert not obs_trace.enabled()


def test_span_nesting_records_parent_ids(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs_trace.enable(path)
    with obs_trace.span("outer", kind="test"):
        with obs_trace.span("inner"):
            pass
        with obs_trace.span("inner"):
            pass
    obs_trace.disable()
    events = obs_trace.read_trace(path)
    assert [e["name"] for e in events] == ["inner", "inner", "outer"]
    outer = events[-1]
    assert outer["parent_id"] is None
    assert outer["attrs"] == {"kind": "test"}
    for inner in events[:2]:
        assert inner["parent_id"] == outer["span_id"]
        assert inner["pid"] == os.getpid()
        assert inner["dur"] >= 0.0


def test_read_trace_tolerates_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "torn.jsonl"
    good = {"name": "ok", "dur": 0.1, "pid": 1, "start": 5.0, "parent_id": None}
    path.write_text(
        json.dumps(good)
        + "\n"
        + "not json at all\n"
        + '{"name": "no-dur-key"}\n'
        + '[1, 2, 3]\n'
        + json.dumps({**good, "name": "ok2"})
        + '\n{"name": "torn tail", "du'  # crash mid-append
    )
    events = obs_trace.read_trace(path)
    assert [e["name"] for e in events] == ["ok", "ok2"]


def test_summarize_trace_coverage_counts_root_spans_only():
    events = [
        {"name": "root", "dur": 10.0, "start": 100.0, "pid": 1, "parent_id": None},
        {"name": "child", "dur": 9.0, "start": 100.5, "pid": 1, "parent_id": "1-1"},
        {"name": "root", "dur": 4.0, "start": 200.0, "pid": 2, "parent_id": None},
    ]
    summary = obs_trace.summarize_trace(events)
    assert summary.processes == 2
    assert summary.events == 3
    # Per-pid wall: pid 1 spans 100..110, pid 2 spans 200..204.
    assert summary.wall_seconds == pytest.approx(14.0)
    # Nested spans never double-count: only the roots are accounted.
    assert summary.accounted_seconds == pytest.approx(14.0)
    assert summary.coverage == pytest.approx(1.0)
    stage = summary.stages["root"]
    assert stage.count == 2
    assert stage.percentile(0.5) == 4.0
    rows = summary.rows()
    assert rows[0][0] == "root"  # sorted by total time, descending


def test_nearest_rank_percentile():
    """The one nearest-rank rule of `repro stats` and the sweep latency line."""
    ordered = [1.0, 2.0, 3.0, 4.0]
    quantiles = (0.0, 0.25, 0.5, 0.75, 0.95, 1.0)
    assert [obs_trace.nearest_rank(ordered, q) for q in quantiles] == [1, 1, 2, 3, 4, 4]
    assert obs_trace.nearest_rank([7.0], 0.95) == 7.0


# -- logging --------------------------------------------------------------------------


def test_format_event_quotes_whitespace_values():
    line = obs_log.format_event("sweep.retry", scenario_id="a=1", error="boom went bang")
    assert line == 'sweep.retry scenario_id=a=1 error="boom went bang"'


def test_configure_replaces_handler_instead_of_stacking():
    logger = obs_log.configure(verbosity=1)
    first = [h for h in logger.handlers]
    logger = obs_log.configure(verbosity=2)
    assert len(logger.handlers) == len(first)
    assert logger.level == logging.DEBUG
    assert obs_log.level_for_verbosity(-1) == logging.ERROR
    assert obs_log.level_for_verbosity(0) == logging.WARNING
    assert obs_log.get_logger("sweeps").name == "repro.sweeps"
    assert obs_log.get_logger("repro.sweeps").name == "repro.sweeps"


# -- bench env ------------------------------------------------------------------------


def test_bench_env_fields():
    env = obs_bench.bench_env()
    assert set(env) == set(obs_bench.BENCH_ENV_FIELDS)
    assert env["env_cpu_count"] >= 1
    assert env["env_python"] and isinstance(env["env_python"], str)
    assert env["env_platform"] and isinstance(env["env_platform"], str)


# -- the read-only contract -----------------------------------------------------------


def _store_digests(root):
    """Sorted (relative path, SHA-256) of every payload file in a store."""
    import hashlib
    from pathlib import Path

    digests = []
    for path in sorted(Path(root).rglob("*.rft")):
        digests.append(
            (str(path.relative_to(root)), hashlib.sha256(path.read_bytes()).hexdigest())
        )
    return digests


def _run_campaign(tmp_path, label, instrumented):
    """One small sweep campaign; returns (ledger identities, store digests)."""
    from repro.simulation.config import ScenarioConfig
    from repro.sweeps.grid import ScenarioGrid
    from repro.sweeps.runner import SweepResult, SweepRunner

    store = tmp_path / f"store-{label}"
    ledger = tmp_path / f"ledger-{label}.jsonl"
    if instrumented:
        obs_trace.enable(tmp_path / f"trace-{label}.jsonl")
        obs_metrics.set_registry(MetricsRegistry())
        obs_metrics.enable()
    try:
        base = ScenarioConfig.small(seed=11).with_overrides(n_subscriber_lines=40)
        grid = ScenarioGrid.from_strings(base, ["sampling_ratio=1,4"])
        runner = SweepRunner(
            metrics=("traffic",), workers=1, store=store, ledger_path=ledger
        )
        result = runner.run(grid)
    finally:
        if instrumented:
            obs_metrics.disable()
            obs_trace.disable()
    assert all(outcome.ok for outcome in result.outcomes)
    identities = [o.identity() for o in SweepResult.read_ledger(ledger).outcomes]
    return identities, _store_digests(store)


def test_observability_is_byte_identical(tmp_path):
    """The hard contract: tracing+metrics change neither store bytes nor
    ledger identities — observability only observes."""
    plain_identities, plain_digests = _run_campaign(tmp_path, "plain", instrumented=False)
    obs_identities, obs_digests = _run_campaign(tmp_path, "obs", instrumented=True)
    assert obs_identities == plain_identities
    assert [d for _p, d in obs_digests] == [d for _p, d in plain_digests]
    assert [p for p, _d in obs_digests] == [p for p, _d in plain_digests]
    # And the instrumented run actually recorded something.
    names = {e["name"] for e in obs_trace.read_trace(tmp_path / "trace-obs.jsonl")}
    assert {"sweep.scenario", "gen.period", "gen.hour"} <= names
    assert obs_metrics.registry().counter("sweep.scenarios_ok") == 2.0


def test_outcome_obs_snapshot_is_not_ledgered(tmp_path):
    """Worker metrics ride ScenarioOutcome.obs but stay out of the ledger row
    and out of identity(), so resumes and retries remain bit-stable."""
    from repro.sweeps.runner import ScenarioOutcome, _ledger_row

    outcome = ScenarioOutcome(
        scenario_id="s",
        axes={},
        config_digest="d",
        metrics={},
        elapsed_seconds=0.1,
        obs={"counters": {"x": 1.0}},
    )
    assert "obs" not in _ledger_row(outcome)
    assert "obs" not in outcome.identity()


def test_sweep_workers_ship_metrics_to_driver(tmp_path):
    """A parallel sweep merges every worker's registry snapshot into the
    driver's registry (counters add across scenarios)."""
    from repro.simulation.config import ScenarioConfig
    from repro.sweeps.grid import ScenarioGrid
    from repro.sweeps.runner import SweepRunner

    obs_metrics.set_registry(MetricsRegistry())
    obs_metrics.enable()
    try:
        base = ScenarioConfig.small(seed=11).with_overrides(n_subscriber_lines=40)
        grid = ScenarioGrid.from_strings(base, ["sampling_ratio=1,4"])
        result = SweepRunner(metrics=("traffic",), workers=2).run(grid)
        assert all(outcome.ok for outcome in result.outcomes)
        registry = obs_metrics.registry()
        # Each worker built its own world and shipped the counter home.
        assert registry.counter("context.cold_builds") == 2.0
        assert registry.counter("sweep.scenarios_ok") == 2.0
        for outcome in result.outcomes:
            assert outcome.obs is not None
            assert outcome.obs["counters"]["context.cold_builds"] == 1.0
        summary = result.latency_summary()
        assert summary is not None and summary["p50"] <= summary["p95"] <= summary["max"]
        assert "Scenario latency:" in result.render_latency_summary()
    finally:
        obs_metrics.disable()


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_sweep_workers_append_to_the_driver_trace(tmp_path, monkeypatch, method):
    """Pool workers write their scenario spans to the driver's trace file:
    forked ones through the inherited descriptor, spawned ones through the
    path their task carries."""
    import multiprocessing

    from repro.simulation.config import ScenarioConfig
    from repro.sweeps import runner as runner_module
    from repro.sweeps.grid import ScenarioGrid
    from repro.sweeps.runner import SweepRunner

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is not available here")
    monkeypatch.setattr(
        runner_module, "pool_context", lambda: multiprocessing.get_context(method)
    )
    path = tmp_path / "trace.jsonl"
    obs_trace.enable(path)
    base = ScenarioConfig.small(seed=11).with_overrides(n_subscriber_lines=40)
    grid = ScenarioGrid.from_strings(base, ["sampling_ratio=1,4"])
    result = SweepRunner(metrics=("traffic",), workers=2).run(grid)
    obs_trace.disable()
    assert all(outcome.ok for outcome in result.outcomes)
    spans = [e for e in obs_trace.read_trace(path) if e["name"] == "sweep.scenario"]
    assert sorted(e["attrs"]["scenario"] for e in spans) == sorted(
        outcome.scenario_id for outcome in result.outcomes
    )
    assert all(e["pid"] != os.getpid() for e in spans)


#: Fallbacks that used to leave no trace: store reads that take the narrow
#: decode step instead of staying lazy, and verdict caches dropped on an
#: engine change.
FALLBACK_COUNTERS = (
    "store.mmap_fallbacks.byte_order",
    "store.mmap_fallbacks.typecode",
    "discovery.verdict_cache.drops",
)


def test_repro_stats_lists_the_fallback_counters(tmp_path, monkeypatch, capsys):
    """Each fallback, provoked through its real code path, shows up in ``repro stats``."""
    from array import array

    from repro.cli import main
    from repro.core.discovery import HostClassificationCache
    from repro.flows.flowtable import FlowTable
    from repro.store import codec

    obs_metrics.enable()
    narrow = FlowTable()
    narrow._codes["transport"] = array("q")
    codec.load_table_lazy(codec.dumps_table(narrow))
    cache = HostClassificationCache()
    cache.validate(object())
    cache.put(("10.0.0.1", ()), ())
    cache.validate(object())
    empty = codec.dumps_table(FlowTable())
    with monkeypatch.context() as patched:  # read as if written on a foreign-order host
        patched.setattr(codec, "_LOCAL_ORDER", 1 - codec._LOCAL_ORDER)
        codec.load_table_lazy(empty)
    obs_metrics.disable()
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(obs_metrics.registry().snapshot()), encoding="utf-8")
    assert main(["stats", "--metrics", str(path)]) == 0
    rendered = capsys.readouterr().out
    for name in FALLBACK_COUNTERS:
        assert obs_metrics.registry().counter(name) == 1.0, name
        assert name in rendered, name


def test_cli_commands_record_no_fallback_cold_or_warm(tmp_path):
    """The ten CLI commands on small(7), cold then warm from one store, fall back nowhere."""
    from repro.experiments.context import build_context
    from repro.experiments.registry import COMMANDS, run_command
    from repro.simulation.config import ScenarioConfig
    from repro.store.artifacts import ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    obs_metrics.enable()
    for _run in ("cold", "warm"):
        context = build_context(ScenarioConfig.small(7), use_cache=False, store=store)
        assert len([run_command(name, context) for name in COMMANDS]) == 10
    counters = obs_metrics.registry().counters()
    assert counters.get("store.hits", 0.0) > 0, "the warm run must read the store"
    assert not [name for name in FALLBACK_COUNTERS if name in counters], counters
    assert not [name for name in counters if "fallbacks" in name], counters


def test_traced_cli_command_has_one_span_per_experiment(tmp_path, capsys):
    """A traced command writes one ``exp.<op>`` span per entry, in registry order,
    and ``repro stats`` lists each of them."""
    from repro.cli import main
    from repro.experiments.registry import EXPERIMENTS

    traffic = [f"exp.{e.op}" for e in EXPERIMENTS if e.command == "traffic"]
    assert len(traffic) == 9
    for command, expected in (("traffic", traffic), ("outage", ["exp.fig15_16"])):
        path = tmp_path / f"{command}.jsonl"
        assert main([command, "--small", "--trace", str(path)]) == 0
        names = [event["name"] for event in obs_trace.read_trace(path)]
        assert [name for name in names if name.startswith("exp.")] == expected
        capsys.readouterr()
        assert main(["stats", "--trace", str(path)]) == 0
        rendered = capsys.readouterr().out
        assert [name for name in expected if name not in rendered] == []
