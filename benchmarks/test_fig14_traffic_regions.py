"""Benchmark E-F14: traffic exchanged per server continent (Figure 14)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig13_fig14_region_crossing


def test_fig14_traffic_regions(context):
    result = fig13_fig14_region_crossing(context)
    emit("Figure 14: share of traffic per server continent", result.render())

    traffic = result.report.traffic_by_continent
    # The majority of IoT traffic stays within Europe (paper: >62%)...
    assert traffic["EU"] > 0.5
    # ...but a substantial fraction is exchanged with servers on other continents
    # (paper: around 35%, mostly with the US).
    cross_continent = 1.0 - traffic["EU"]
    assert 0.2 < cross_continent < 0.5
    assert traffic["NA"] == max(v for k, v in traffic.items() if k != "EU")
