"""Benchmark E-F13: subscriber lines vs. server continents (Figure 13)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig13_fig14_region_crossing


def test_fig13_region_crossing(context):
    result = fig13_fig14_region_crossing(context)
    emit("Figure 13: subscriber lines and servers per continent", result.render())

    categories = result.report.line_categories
    # Roughly half of the IoT-hosting lines talk exclusively to European servers.
    assert 0.30 < categories["Europe only"] < 0.70
    assert categories["Europe only"] == max(categories.values())
    # A substantial share of lines contacts servers in the US (exclusively or mixed).
    us_share = categories["US only"] + categories["EU & US"]
    assert us_share > 0.15
    # Asia-only and other combinations stay marginal.
    assert categories["Asia"] < 0.05

    # Server side (right-hand side of Figure 13): most backend servers are in the
    # US, Europe hosts roughly a third, Asia a small share.
    servers = result.servers_per_continent
    assert servers["NA"] > servers["EU"] > servers.get("AS", 0.0)
    assert servers["NA"] > 0.4
    assert 0.2 < servers["EU"] < 0.5
