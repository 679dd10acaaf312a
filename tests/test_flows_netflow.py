"""Tests for flow records and NetFlow sampling."""

import math
from datetime import date, datetime

import pytest
from hypothesis import given, strategies as st

from repro.flows.netflow import FlowRecord, NetFlowCollector, _binomial_many
from repro.simulation.clock import StudyPeriod
from repro.simulation.rng import RngRegistry

from flowrows import from_records, make_flow, packets


def _binomial(stream, n: int, p: float) -> int:
    """Reference per-flow binomial draw: exact for small n, normal approximation
    for large n.  ``_binomial_many`` must consume a stream exactly like a
    sequence of these calls."""
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n <= 64:
        return sum(1 for _ in range(n) if stream.random() < p)
    mean = n * p
    std = math.sqrt(n * p * (1.0 - p))
    value = int(round(stream.gauss(mean, std)))
    return max(0, min(n, value))


def _flow(bytes_down=9000.0, bytes_up=1800.0) -> FlowRecord:
    return make_flow(
        timestamp=datetime(2022, 2, 28, 12),
        subscriber_id=1,
        subscriber_prefix="isp-prefix-4-001",
        ip_version=4,
        provider_key="amazon",
        server_ip="10.0.0.1",
        server_continent="EU",
        server_region="eu-west-1",
        transport="tcp",
        port=8883,
        bytes_down=bytes_down,
        bytes_up=bytes_up,
    )


def test_make_flow_derives_packets(small_world):
    """The test factory derives packet counts by the generator's rule.

    Every row of a generated day, scanner probes included, carries the
    packet counts that rule gives for its volumes.
    """
    flow = _flow()
    assert (flow.packets_down, flow.packets_up) == (10, 2)
    zero = _flow(bytes_down=0.0, bytes_up=0.0)
    assert zero.packets_down == 0 and zero.packets_up == 0
    period = StudyPeriod(date(2022, 2, 28), date(2022, 3, 1), name="one-day")
    table = small_world.workload_generator().generate_period_table(period)
    scanners = {line.line_id for line in small_world.population.scanner_lines()}
    records = table.to_records()
    assert any(record.subscriber_id in scanners for record in records)
    for record in records:
        assert (record.packets_down, record.packets_up) == (
            packets(record.bytes_down),
            packets(record.bytes_up),
        )


def _export(collector, flows, rng):
    """Export a record list through the table path, back as records."""
    return collector.export_table(from_records(flows), rng).to_records()


def test_collector_without_sampling_keeps_everything():
    collector = NetFlowCollector(sampling_ratio=1)
    flows = [_flow() for _ in range(10)]
    exported = _export(collector, flows, RngRegistry(1))
    assert len(exported) == 10
    assert all(f.sampled for f in exported)
    assert exported[0].bytes_down == flows[0].bytes_down


def test_collector_sampling_reduces_volume_but_estimates_back():
    collector = NetFlowCollector(sampling_ratio=10)
    flows = [_flow(bytes_down=90000.0, bytes_up=90000.0) for _ in range(200)]
    exported = _export(collector, flows, RngRegistry(2))
    assert 0 < len(exported) <= 200
    sampled_down = sum(f.bytes_down for f in exported)
    true_down = sum(f.bytes_down for f in flows)
    estimate = collector.estimate_bytes(sampled_down)
    assert 0.5 * true_down < estimate < 1.5 * true_down


def test_sampling_drops_tiny_flows_sometimes():
    collector = NetFlowCollector(sampling_ratio=100)
    flows = [_flow(bytes_down=500.0, bytes_up=100.0) for _ in range(300)]
    exported = _export(collector, flows, RngRegistry(3))
    assert len(exported) < 300


def test_invalid_sampling_ratio():
    with pytest.raises(ValueError):
        NetFlowCollector(sampling_ratio=0)


def test_unsampled_export_applies_visibility_rule():
    """A flow with no packets in either direction was never seen by a router."""
    collector = NetFlowCollector(sampling_ratio=1)
    flows = [_flow(), _flow(bytes_down=0.0, bytes_up=0.0), _flow()]
    exported = _export(collector, flows, RngRegistry(4))
    assert len(exported) == 2
    assert all(f.packets_down or f.packets_up for f in exported)


def test_batched_binomial_preserves_moments():
    """Batched draws keep the mean and variance of the per-flow _binomial."""
    for n, p in ((40, 0.1), (500, 0.02)):
        draws = 4000
        batched = _binomial_many(RngRegistry(21).stream("bin"), [n] * draws, p)
        stream = RngRegistry(22).stream("bin")
        scalar = [_binomial(stream, n, p) for _ in range(draws)]
        mean = n * p
        variance = n * p * (1.0 - p)
        tolerance = 4 * (variance / draws) ** 0.5
        for values in (batched, scalar):
            sample_mean = sum(values) / draws
            assert abs(sample_mean - mean) < tolerance
            sample_var = sum((v - sample_mean) ** 2 for v in values) / (draws - 1)
            assert 0.7 * variance < sample_var < 1.3 * variance


def test_batched_binomial_is_stream_identical():
    """On the same stream, the batch consumes draws exactly like scalar calls."""
    counts = [0, 1, 5, 64, 65, 200, 3, 0, 80]
    batched = _binomial_many(RngRegistry(33).stream("bin"), counts, 0.2)
    stream = RngRegistry(33).stream("bin")
    scalar = [_binomial(stream, n, 0.2) for n in counts]
    assert batched == scalar


@given(st.integers(min_value=2, max_value=64))
def test_sampled_counts_never_exceed_originals(ratio):
    collector = NetFlowCollector(sampling_ratio=ratio)
    flows = [_flow(bytes_down=50_000.0, bytes_up=20_000.0) for _ in range(20)]
    exported = _export(collector, flows, RngRegistry(ratio))
    for flow in exported:
        assert flow.packets_down <= flows[0].packets_down
        assert flow.packets_up <= flows[0].packets_up
        assert flow.bytes_down <= flows[0].bytes_down + 1e-9
