"""Benchmark P-S1: cold vs. warm experiment-context build via the artifact store.

Times how long it takes to get a default-scale context "analysis-ready" (the
scanner-cleaned main-week table of the Section 5 analyses) twice:

* **cold** — an empty artifact store: the world is built, a week of flows is
  generated, NetFlow-sampled, scanner-excluded by a discovery run, and every
  stage is persisted to the store, and
* **warm** — a fresh process-equivalent context (the in-process LRU is
  bypassed) over the now-populated store: the clean table deserializes
  straight from disk and neither generation nor the discovery pipeline runs.

Warm output is asserted bit-identical to cold output, the codec's raw
serialize/deserialize throughput is recorded, and the numbers land in
``BENCH_store.json`` at the repository root.

The zero-copy read path gets its own enforced contrast: the persisted clean
table is re-read warm through :func:`~repro.store.codec.load_table` (the one
table parser, then every column decoded) and through
:func:`~repro.store.codec.load_table_mmap` (the same parse, columns left on
the map), the mmap table is asserted to re-dump byte-identically, and
``mmap_speedup`` (decoded warm read / mmap warm read) must stay >= 1.5x.
The ``eager_read_seconds`` field keeps its name and times ``load_table``.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import record_bench

from repro.experiments.context import build_context
from repro.flows.flowtable import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS
from repro.obs.bench import bench_env
from repro.simulation.config import ScenarioConfig
from repro.store.artifacts import ArtifactStore
from repro.store.codec import dumps_table, load_table, load_table_mmap, loads_table

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_store.json"


def _analysis_ready_seconds(config, store):
    """Build a context (LRU bypassed) and its clean main-week table; time it."""
    start = time.perf_counter()
    context = build_context(config, use_cache=False, store=store)
    table = context.clean_table()
    return time.perf_counter() - start, table, context


def test_perf_store_warm_context(tmp_path):
    config = ScenarioConfig.default(seed=7)
    store = ArtifactStore(tmp_path / "store")

    cold_seconds, cold_table, cold_context = _analysis_ready_seconds(config, store)
    assert cold_context._result is not None  # the cold path ran discovery

    warm_seconds = float("inf")
    warm_table = None
    warm_context = None
    for _ in range(3):
        elapsed, warm_table, warm_context = _analysis_ready_seconds(config, store)
        warm_seconds = min(warm_seconds, elapsed)
    assert warm_context._result is None  # the warm path skipped discovery

    # Warm-start parity: the persisted table is bit-identical to the cold one.
    assert warm_table.to_records() == cold_table.to_records()

    # Raw codec throughput on the clean table.
    start = time.perf_counter()
    blob = dumps_table(cold_table)
    serialize_seconds = time.perf_counter() - start
    start = time.perf_counter()
    loads_table(blob)
    deserialize_seconds = time.perf_counter() - start

    # Decoded vs mapped warm reads of the persisted clean table (best of 5 each).
    table_path = tmp_path / "clean.rft"
    table_path.write_bytes(blob)
    eager_read_seconds = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        with table_path.open("rb") as stream:
            load_table(stream)
        eager_read_seconds = min(eager_read_seconds, time.perf_counter() - start)
    mmap_warm_seconds = float("inf")
    mmap_table = None
    for _ in range(5):
        start = time.perf_counter()
        mmap_table = load_table_mmap(table_path)
        mmap_warm_seconds = min(mmap_warm_seconds, time.perf_counter() - start)
    # Zero-copy parity: the mapped table re-dumps byte-identically.
    assert dumps_table(mmap_table) == blob
    start = time.perf_counter()
    for name in CATEGORICAL_COLUMNS:
        mmap_table.codes(name).materialize()
    for name, _typecode in NUMERIC_COLUMNS:
        mmap_table.numeric(name).materialize()
    mmap_first_touch_seconds = time.perf_counter() - start
    mmap_speedup = eager_read_seconds / mmap_warm_seconds

    warm_speedup = cold_seconds / warm_seconds
    payload = {
        "benchmark": "store-warm-context",
        **bench_env(),
        "rows": len(cold_table),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(warm_speedup, 2),
        "serialize_seconds": round(serialize_seconds, 4),
        "deserialize_seconds": round(deserialize_seconds, 4),
        "eager_read_seconds": round(eager_read_seconds, 4),
        "mmap_warm_seconds": round(mmap_warm_seconds, 4),
        "mmap_first_touch_seconds": round(mmap_first_touch_seconds, 4),
        "mmap_speedup": round(mmap_speedup, 2),
        "serialized_mb": round(len(blob) / 1e6, 2),
        "store_artifacts": len(store.entries()),
        "store_mb": round(store.total_bytes() / 1e6, 2),
    }
    record_bench(BENCH_PATH, "Benchmark: artifact-store warm context build", payload)

    # The acceptance bar for the subsystem: warm-start >= 3x faster than cold.
    assert warm_speedup >= 3.0
    # And for the zero-copy read path: mapping beats decoding every column
    # after the same parse >= 1.5x.
    assert mmap_speedup >= 1.5
