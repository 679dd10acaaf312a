"""Integration tests for the experiment harness (paper-shape assertions on the
small scenario; the benchmarks repeat them at the default scale)."""

import json
from pathlib import Path

import pytest

from repro.core.traffic import volume_timeseries
from repro.experiments import characterization as ch
from repro.experiments import disruption_experiments as de
from repro.experiments import traffic_experiments as te
from repro.experiments.context import build_context
from repro.experiments.registry import COMMANDS, EXPERIMENTS
from repro.flows import kernels
from repro.store.artifacts import ArtifactStore

#: Every kernel backend this interpreter can run.
BACKENDS = (kernels.BACKEND_PYTHON,) + (
    (kernels.BACKEND_NUMPY,) if kernels.numpy_available() else ()
)


def test_table1_and_render(small_context):
    result = ch.table1_characterization(small_context)
    assert len(result.rows) == 16
    text = result.render()
    assert "Amazon IoT" in text and "Strategy" in text
    amazon = result.row_for("Amazon IoT")
    baidu = result.row_for("Baidu IoT")
    assert amazon["ipv4_slash24"] >= baidu["ipv4_slash24"]
    assert amazon["countries"] > baidu["countries"]


def test_table2_queries_render(small_context):
    result = ch.table2_regexes()
    assert any(row["provider"] == "Google IoT Core" for row in result.rows)
    assert "DNSDB" in result.render()


def test_pipeline_summary(small_context):
    summary = ch.pipeline_summary(small_context)
    assert summary.total_ipv4 > summary.total_ipv6 > 0
    assert summary.dedicated_ipv4 <= summary.total_ipv4
    assert "discovered IPv4 addresses" in summary.render()


def test_fig3_breakdowns(small_context):
    result = ch.fig3_source_contribution(small_context)
    amazon = result.breakdown_for("amazon", 4)
    assert amazon.total > 0
    assert abs(sum(amazon.fraction(c) for c in amazon.counts) - 1.0) < 1e-9
    assert "Figure 3" in result.render()


def test_fig4_stability(small_context):
    result = ch.fig4_stability(small_context)
    assert result.comparisons
    assert "Figure 4" in result.render()


def test_sec34_validation(small_context):
    result = ch.sec34_validation(small_context)
    assert set(result.ground_truth) == {"cisco", "siemens", "microsoft"}
    for report in result.traffic_reports.values():
        assert report.underestimation_fraction <= 0.1
    assert "ground-truth validation" in result.render()


def test_fig5_threshold_sweep(small_context):
    result = te.fig5_scanner_threshold(small_context)
    counts = [p.scanner_line_count for p in result.points]
    assert counts == sorted(counts, reverse=True)
    assert 0.0 < result.coverage_at(100) < 1.0
    assert "Figure 5" in result.render()


def test_fig6_visibility(small_context):
    result = te.fig6_visibility(small_context)
    assert 0.0 < result.overall_ipv4 < 1.0
    labels = {row.label for row in result.rows}
    assert "T1" in labels and "T2" in labels
    assert "Figure 6" in result.render()


def test_fig7_tls_only_loss(small_context):
    result = te.fig7_tls_only_loss(small_context)
    assert result.rows
    # The SNI-reliant provider loses (almost) all detectable subscriber lines.
    assert result.decrease_for("T3", 4) > 0.5
    assert "Figure 7" in result.render()


def test_fig8_fig9_fig10_timeseries(small_context):
    activity = te.fig8_subscriber_activity(small_context, min_lines_per_hour=1)
    volume = te.fig9_traffic_volume(small_context)
    ratio = te.fig10_direction_ratio(small_context)
    assert activity.providers()
    assert volume.providers()
    # The prime-time provider peaks in the evening; the surveillance provider
    # uploads more than it downloads.
    assert activity.peak_hour("T1") >= 17
    assert ratio.overall["O6"] < 1.0
    assert ratio.overall["T1"] > 1.0
    assert "Figure 8" in activity.render()


def _two_pass_direction_ratios(table, anonymization):
    """Fig. 10's hourly ratios from one volume series per direction."""
    down = volume_timeseries(table, anonymization, direction="down")
    up = volume_timeseries(table, anonymization, direction="up")
    ratios = {}
    for label, per_hour in down.items():
        ratios[label] = {}
        for timestamp, downstream in per_hour.items():
            upstream = up.get(label, {}).get(timestamp, 0.0)
            if upstream > 0:
                ratios[label][timestamp] = downstream / upstream
    return ratios


def _exact(series):
    return [
        (label, [(when, value.hex()) for when, value in per_hour.items()])
        for label, per_hour in series.items()
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig10_hourly_equals_the_two_pass_ratios(small_context, backend):
    """One grouped pass over both directions gives every hourly ratio bit for bit."""
    kernels.set_backend(backend)
    try:
        hourly = te.fig10_direction_ratio(small_context).hourly
        expected = _two_pass_direction_ratios(
            small_context.clean_table(), small_context.anonymization
        )
    finally:
        kernels.set_backend(None)
    assert hourly and _exact(hourly) == _exact(expected)


def test_fig11_port_mix(small_context):
    result = te.fig11_port_mix(small_context)
    assert result.mix
    # The bulk-ingestion provider is dominated by AMQP over TLS.
    assert result.dominant_port("D4") == "TCP/5671 (AMQPS)"
    for ports in result.mix.values():
        assert abs(sum(ports.values()) - 1.0) < 1e-6
    assert "Figure 11" in result.render()


def test_fig12_volumes(small_context):
    result = te.fig12_per_subscriber_volumes(small_context)
    assert len(result.total_down) > 0
    # The vast majority of lines exchange modest daily volumes (paper: <10 MB).
    assert result.total_down.fraction_below(50 * 1024 * 1024) > 0.9
    assert "Figure 12" in result.render()


def test_fig13_fig14_regions(small_context):
    result = te.fig13_fig14_region_crossing(small_context)
    categories = result.report.line_categories
    assert categories["Europe only"] == max(categories.values())
    assert result.report.traffic_fraction("EU") > result.report.traffic_fraction("NA")
    assert result.report.traffic_fraction("NA") > 0.1
    assert abs(sum(result.servers_per_continent.values()) - 1.0) < 1e-6
    assert "Figure 13" in result.render()


def test_fig15_fig16_outage(small_context):
    result = de.fig15_fig16_outage(small_context)
    assert result.traffic_drop_us_east() > 0.10
    assert result.traffic_drop_eu() < result.traffic_drop_us_east()
    assert result.eu_to_us_traffic_ratio() > 1.0
    assert "Figure 15" in result.render("15")
    assert "Figure 16" in result.render("16")


def test_sec62_disruptions(small_context):
    result = de.sec62_potential_disruptions(small_context)
    assert not result.bgp.any_backend_affected
    assert sum(result.bgp.counts_by_kind.values()) > 0
    assert result.blocklists.total_listed_ips > 0
    assert "Section 6.2" in result.render()


def test_ablation_portscan(small_context):
    result = de.ablation_portscan_baseline(small_context)
    assert result.report.recall < 1.0
    assert "port-scan-only" in result.render()


def test_ablation_vantage_points(small_context):
    result = de.ablation_vantage_points(small_context)
    assert result.all_vp_ips >= result.single_vp_ips
    assert result.gain_fraction >= 0.0
    assert "vantage points" in result.render()


def _rotation_counters(world):
    return {key: entry.query_counter for key, entry in world.authoritative._entries.items()}


@pytest.fixture(scope="module")
def cold_and_warm_contexts(small_config, tmp_path_factory):
    """A cold context whose pipeline ran active DNS, and a warm one loaded from the store."""
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    cold = build_context(small_config, use_cache=False, store=store)
    reference = cold.result  # runs the pipeline, its active-DNS step included
    warm = build_context(small_config, use_cache=False, store=store)
    assert warm.result == reference  # read from the store
    # Only the cold pipeline queried the world's name server.
    assert any(_rotation_counters(cold.world).values())
    assert not any(_rotation_counters(warm.world).values())
    return cold, warm


def test_ablation_vantage_points_repeats_on_one_context(cold_and_warm_contexts):
    cold, _warm = cold_and_warm_contexts
    assert de.ablation_vantage_points(cold) == de.ablation_vantage_points(cold)


def test_ablation_vantage_points_agrees_on_cold_and_warm_contexts(cold_and_warm_contexts):
    cold, warm = cold_and_warm_contexts
    assert de.ablation_vantage_points(cold) == de.ablation_vantage_points(warm)


def test_ablation_vantage_points_leaves_the_world_counters_unchanged(cold_and_warm_contexts):
    cold, warm = cold_and_warm_contexts
    for context in (cold, warm):
        before = _rotation_counters(context.world)
        de.ablation_vantage_points(context)
        assert _rotation_counters(context.world) == before


def test_registry_is_one_list_in_the_golden_order():
    ops = [experiment.op for experiment in EXPERIMENTS]
    assert len(set(ops)) == len(ops) == 19
    commands = list(dict.fromkeys(experiment.command for experiment in EXPERIMENTS))
    assert set(commands) <= set(COMMANDS), "an entry's command has no help line"
    assert set(COMMANDS) <= set(commands), "a command has no entry"
    golden = Path(__file__).parent / "golden" / "small_seed7.json"
    assert commands == list(COMMANDS) == list(json.loads(golden.read_text(encoding="utf-8"))["commands"])
