"""Benchmark E-F16: AWS outage impact on subscriber lines (Figure 16)."""

from conftest import emit

from repro.core.disruption import GROUP_EU, GROUP_US_EAST
from repro.experiments.disruption_experiments import fig15_fig16_outage


def test_fig16_outage_subscribers(context):
    result = fig15_fig16_outage(context)
    emit("Figure 16: AWS us-east-1 outage, subscriber lines of T1", result.render("16"))

    # The number of subscriber lines barely changes: devices keep retrying against
    # their assigned region, so the line drop is far smaller than the traffic drop.
    assert result.line_drop_us_east() < result.traffic_drop_us_east()
    assert result.line_drop_us_east() < 0.25
    # The EU subscriber-line series shows no comparable dip.
    assert result.report.line_drop_vs_previous_week(GROUP_EU) <= result.line_drop_us_east() + 0.05
    # Both region groups keep serving lines every hour of the outage window.
    start, end = result.report.outage_window
    for group in (GROUP_US_EAST, GROUP_EU):
        series = result.report.line_series[group]
        assert any(start <= when < end and value > 0 for when, value in series.items())
