"""Benchmark E-F2: the end-to-end methodology outcome (Figure 2)."""

from conftest import emit

from repro.experiments.characterization import pipeline_summary


def test_fig2_pipeline_summary(context):
    result = pipeline_summary(context)
    emit("Figure 2: methodology outcome", result.render())

    # IPv4 backends dominate and IPv6 support is present but much rarer (paper:
    # only seven of the sixteen providers expose IPv6 backends).
    assert result.total_ipv4 > result.total_ipv6 > 0
    assert 4 <= result.providers_with_ipv6 <= 8
    # Validation removes some shared (non-dedicated) addresses.
    assert result.dedicated_ipv4 <= result.total_ipv4
    assert result.shared_ips > 0
