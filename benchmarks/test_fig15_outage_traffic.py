"""Benchmark E-F15: AWS outage impact on downstream traffic (Figure 15)."""

from conftest import emit

from repro.experiments.disruption_experiments import fig15_fig16_outage


def test_fig15_outage_traffic(context):
    result = fig15_fig16_outage(context)
    emit("Figure 15: AWS us-east-1 outage, downstream traffic of T1", result.render("15"))

    # During the outage, T1's US-East downstream traffic drops well below the
    # previous week's minimum (paper: more than 14.5%).
    assert result.traffic_drop_us_east() > 0.10
    # The EU regions are barely affected.
    assert result.traffic_drop_eu() < result.traffic_drop_us_east() / 2
    # The EU regions serve a multiple of the US-East traffic (paper: more than 3x).
    assert result.eu_to_us_traffic_ratio() > 1.5
