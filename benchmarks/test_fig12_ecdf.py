"""Benchmark E-F12: per-subscriber daily traffic distributions (Figure 12a/b/c)."""

from conftest import emit

from repro.experiments.traffic_experiments import fig12_per_subscriber_volumes

MB = 1024.0 * 1024.0


def test_fig12_per_subscriber_volumes(context):
    result = fig12_per_subscriber_volumes(context)
    emit("Figure 12: per-subscriber daily traffic distributions", result.render())

    # Figure 12a: the vast majority of lines exchange small volumes with IoT
    # backends (paper: >99% below 10 MB/day; far below video-streaming levels).
    assert result.total_down.fraction_below(10 * MB) > 0.80
    assert result.total_down.fraction_below(100 * MB) > 0.95
    assert result.total_up.fraction_below(10 * MB) > 0.80
    assert result.total_down.quantile(0.5) < 5 * MB

    # Figure 12b: nearly every provider's median subscriber stays light; only the
    # bulk-ingestion provider shows heavier per-line volumes.
    light_providers = [
        label
        for label, distribution in result.by_provider_down.items()
        if distribution.quantile(0.5) < 10 * MB
    ]
    assert len(light_providers) >= len(result.by_provider_down) - 2

    # Figure 12c: only the AMQP bulk-ingestion port shows a noticeable share of
    # lines exchanging large volumes (paper: ~18% between 100 MB and 1 GB/day).
    amqp = result.by_port_down.get("TCP/5671 (AMQPS)")
    assert amqp is not None
    heavy_amqp = 1.0 - amqp.fraction_below(20 * MB)
    assert heavy_amqp > 0.05
    mqtts = result.by_port_down.get("TCP/8883 (MQTTS)")
    if mqtts is not None and len(mqtts):
        heavy_mqtts = 1.0 - mqtts.fraction_below(20 * MB)
        assert heavy_amqp > heavy_mqtts
