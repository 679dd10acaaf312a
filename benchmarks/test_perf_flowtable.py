"""Benchmark P-F1: grouped flow aggregation, record scan vs. kernel backends.

Times the seed-equivalent linear pass over ``FlowRecord`` lists against the
grouped-aggregation kernels (:mod:`repro.flows.kernels`) on a >=500k-flow
corpus for the hottest Section 5 aggregation (per provider x hour down/up
volume) plus a distinct-count grouping.  Both kernel backends are measured:
the pure-python fused kernels always, numpy when importable; the headline
``volume_speedup``/``distinct_speedup`` numbers and the ``kernel_backend``
stamp come from the fastest backend available, and the ``python_*`` fields
always record the fallback path so a backend switch can never hide a
regression (``check_bench_schema.py`` requires all of them).

Floors enforced here (the ROADMAP perf-ladder acceptance numbers):

* pure-python fused kernels: volume >= 1.2x the naive scan,
* numpy kernels (when available): volume and distinct >= 5x.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from dataclasses import fields
from datetime import datetime
from pathlib import Path

from conftest import record_bench

from repro.flows import kernels
from repro.flows.flowtable import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS, FlowTable
from repro.flows.netflow import DEFAULT_PACKET_SIZE, FlowRecord
from repro.obs.bench import bench_env

FLOW_COUNT = 500_000

#: The benchmarked grouping: the Section 5 provider x hour aggregation.
GROUP_BY = ("provider_key", "timestamp")

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_flowtable.json"

_PROVIDERS = (
    "amazon", "google", "microsoft", "bosch", "siemens", "ibm", "oracle", "sap",
)
_CONTINENTS = ("EU", "NA", "AS")
_PORTS = (443, 8883, 1883, 5683, 5671, 61616)


def _packets(volume: float) -> int:
    """Packets of one direction: ``ceil(bytes / DEFAULT_PACKET_SIZE)``, at least one."""
    return max(1, int(math.ceil(volume / DEFAULT_PACKET_SIZE))) if volume > 0 else 0


def _generate_columns(count: int, seed: int = 99) -> dict:
    """The corpus as one list per column, drawn row by row in a fixed order."""
    rng = random.Random(seed)
    timestamps = [datetime(2022, 3, 1 + day, hour) for day in range(7) for hour in range(24)]
    names = CATEGORICAL_COLUMNS + tuple(name for name, _typecode in NUMERIC_COLUMNS)
    columns = {name: [] for name in names}
    for _ in range(count):
        provider = _PROVIDERS[rng.randrange(len(_PROVIDERS))]
        ip_version = 6 if rng.random() < 0.25 else 4
        server = (
            f"fd00::{rng.randrange(1, 4096):x}"
            if ip_version == 6
            else f"10.{rng.randrange(16)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        )
        columns["timestamp"].append(timestamps[rng.randrange(len(timestamps))])
        columns["subscriber_id"].append(rng.randrange(20_000))
        columns["subscriber_prefix"].append(f"prefix-{rng.randrange(256)}")
        columns["ip_version"].append(ip_version)
        columns["provider_key"].append(provider)
        columns["server_ip"].append(server)
        columns["server_continent"].append(_CONTINENTS[rng.randrange(len(_CONTINENTS))])
        columns["server_region"].append("eu-central-1")
        columns["transport"].append("tcp" if rng.random() < 0.85 else "udp")
        columns["port"].append(_PORTS[rng.randrange(len(_PORTS))])
        columns["bytes_down"].append(rng.uniform(100, 100_000))
        columns["bytes_up"].append(rng.uniform(10, 10_000))
    columns["packets_down"] = [_packets(volume) for volume in columns["bytes_down"]]
    columns["packets_up"] = [_packets(volume) for volume in columns["bytes_up"]]
    columns["sampled"] = [0] * count
    return columns


def _build_table(columns: dict) -> FlowTable:
    """The table, built as the generator builds one: each distinct value encoded
    once, in first-appearance order, then one ``append_columns`` call."""
    table = FlowTable()
    codes = {}
    for name in CATEGORICAL_COLUMNS:
        code_of = {value: table.encode_value(name, value) for value in dict.fromkeys(columns[name])}
        codes[name] = list(map(code_of.__getitem__, columns[name]))
    numeric = {name: columns[name] for name, _typecode in NUMERIC_COLUMNS}
    table.append_columns(len(columns["timestamp"]), codes, numeric)
    return table


def _records(columns: dict) -> list:
    """The corpus as the ``FlowRecord`` list the naive pass scans (unsampled)."""
    names = [field.name for field in fields(FlowRecord) if field.name != "sampled"]
    return [FlowRecord(*row) for row in zip(*(columns[name] for name in names))]


def _naive_volume_by_provider_hour(flows):
    """The seed implementation shape: one attribute-accessing pass per analysis."""
    sums = defaultdict(lambda: [0.0, 0.0])
    for flow in flows:
        bucket = sums[(flow.provider_key, flow.timestamp)]
        bucket[0] += flow.bytes_down
        bucket[1] += flow.bytes_up
    return dict(sums)


def _naive_active_lines_by_provider_hour(flows):
    lines = defaultdict(set)
    for flow in flows:
        lines[(flow.provider_key, flow.timestamp)].add(flow.subscriber_id)
    return {key: len(values) for key, values in lines.items()}


def _best_of(callable_, repeats=3):
    """Best-of-N wall time plus the last result (reduces scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure_backend(table: FlowTable, backend: str) -> dict:
    """Time index build + both aggregations on one kernel backend."""
    kernels.set_backend(backend)
    try:
        table._group_cache.clear()
        index_seconds, _ = _best_of(lambda: kernels.build_group_index(table, GROUP_BY))
        # Aggregations run against the cached GroupIndex, as analyses do.
        table.group_index(GROUP_BY)
        volume_seconds, volume = _best_of(
            lambda: table.group_sums(GROUP_BY, ("bytes_down", "bytes_up"))
        )
        distinct_seconds, distinct = _best_of(
            lambda: table.group_distinct_count(GROUP_BY, "subscriber_id")
        )
    finally:
        kernels.set_backend(None)
    return {
        "index_seconds": index_seconds,
        "volume_seconds": volume_seconds,
        "volume": volume,
        "distinct_seconds": distinct_seconds,
        "distinct": distinct,
    }


def test_perf_flowtable_grouped_aggregation():
    columns = _generate_columns(FLOW_COUNT)
    flows = _records(columns)

    naive_volume_seconds, naive_volume = _best_of(lambda: _naive_volume_by_provider_hour(flows))
    naive_lines_seconds, naive_lines = _best_of(lambda: _naive_active_lines_by_provider_hour(flows))

    start = time.perf_counter()
    table = _build_table(columns)
    build_seconds = time.perf_counter() - start

    python_run = _measure_backend(table, kernels.BACKEND_PYTHON)
    runs = {kernels.BACKEND_PYTHON: python_run}
    if kernels.numpy_available():
        runs[kernels.BACKEND_NUMPY] = _measure_backend(table, kernels.BACKEND_NUMPY)

    # Bit-parity with the naive pass on every backend: same keys, same float
    # sums (both accumulate in row order from zero), same distinct counts.
    for run in runs.values():
        assert run["volume"] == naive_volume
        assert run["distinct"] == naive_lines

    headline_backend = (
        kernels.BACKEND_NUMPY if kernels.BACKEND_NUMPY in runs else kernels.BACKEND_PYTHON
    )
    headline = runs[headline_backend]

    payload = {
        "benchmark": "flowtable-grouped-aggregation",
        **bench_env(),
        "kernel_backend": headline_backend,
        "flow_count": len(flows),
        "group_count": len(headline["volume"]),
        "build_seconds": round(build_seconds, 4),
        "index_build_seconds": round(headline["index_seconds"], 4),
        "naive_volume_seconds": round(naive_volume_seconds, 4),
        "table_volume_seconds": round(headline["volume_seconds"], 4),
        "volume_rows_per_sec": round(len(flows) / headline["volume_seconds"]),
        "volume_speedup": round(naive_volume_seconds / headline["volume_seconds"], 2),
        "naive_distinct_seconds": round(naive_lines_seconds, 4),
        "table_distinct_seconds": round(headline["distinct_seconds"], 4),
        "distinct_speedup": round(naive_lines_seconds / headline["distinct_seconds"], 2),
        "python_volume_seconds": round(python_run["volume_seconds"], 4),
        "python_volume_speedup": round(naive_volume_seconds / python_run["volume_seconds"], 2),
        "python_distinct_seconds": round(python_run["distinct_seconds"], 4),
        "python_distinct_speedup": round(naive_lines_seconds / python_run["distinct_seconds"], 2),
    }
    record_bench(BENCH_PATH, "Benchmark: grouped-aggregation kernels", payload)

    # Perf floors: the pure-python fused path must beat the naive scan on the
    # hottest aggregation; the numpy kernels must clear 5x on both.
    assert payload["python_volume_speedup"] >= 1.2
    if headline_backend == kernels.BACKEND_NUMPY:
        assert payload["volume_speedup"] >= 5.0
        assert payload["distinct_speedup"] >= 5.0
