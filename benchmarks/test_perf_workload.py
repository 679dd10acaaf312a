"""Benchmark P-W1: workload generation and NetFlow export throughput.

Times ``generate_period_table`` (per-device invariants resolved once, hourly
batches appended straight into ``FlowTable`` columns) on a multi-day slice of
the default-scale scenario, plus the column-wise packet-sampling export, and
records absolute times and rates in ``BENCH_workload.json`` at the repository
root so future PRs can track the perf trajectory.  Both outputs are also
checked against committed sha256 digests of their store bytes, so the
benchmark doubles as a full-scale identity check.  With numpy importable,
the slice is generated once more on the other backend's column builder and
must match the same digest.
"""

from __future__ import annotations

import hashlib
import time
from datetime import date
from pathlib import Path

from conftest import record_bench

from repro.flows import kernels
from repro.flows.netflow import NetFlowCollector
from repro.obs.bench import bench_env
from repro.simulation.clock import StudyPeriod
from repro.simulation.rng import RngRegistry
from repro.store.codec import dumps_table

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_workload.json"

#: A three-day slice of the default scenario (seed 7).
BENCH_PERIOD = StudyPeriod(date(2022, 2, 28), date(2022, 3, 3), name="bench-workload")

SAMPLING_RATIO = 10

#: sha256 of ``dumps_table`` for the generated and the exported slice.
GENERATED_SHA256 = "1c6a1fde95cf9c6b37edf1263749ecad38e71da6c6de310badf885f7148659f7"
EXPORTED_SHA256 = "35599a5493022849f70c0004b2d62185b11fe74ca0a8c76064b127511c2eee05"


def test_perf_workload_generation(context):
    world = context.world

    columnar_seconds = float("inf")
    table = None
    for _ in range(3):
        generator = world.workload_generator()
        start = time.perf_counter()
        table = generator.generate_period_table(BENCH_PERIOD)
        columnar_seconds = min(columnar_seconds, time.perf_counter() - start)

    collector = NetFlowCollector(sampling_ratio=SAMPLING_RATIO)
    start = time.perf_counter()
    exported = collector.export_table(table, RngRegistry(99))
    export_table_seconds = time.perf_counter() - start

    # Full-scale identity: the same flows, byte for byte, as when recorded.
    assert hashlib.sha256(dumps_table(table)).hexdigest() == GENERATED_SHA256
    assert hashlib.sha256(dumps_table(exported)).hexdigest() == EXPORTED_SHA256
    if kernels.numpy_available():
        # ... on the other backend's column builder too.
        numpy_ran = kernels.active_backend() == kernels.BACKEND_NUMPY
        kernels.set_backend(kernels.BACKEND_PYTHON if numpy_ran else kernels.BACKEND_NUMPY)
        try:
            other = world.workload_generator().generate_period_table(BENCH_PERIOD)
        finally:
            kernels.set_backend(None)
        assert hashlib.sha256(dumps_table(other)).hexdigest() == GENERATED_SHA256

    payload = {
        "benchmark": "workload-columnar-generation",
        **bench_env(),
        "flow_count": len(table),
        "days": BENCH_PERIOD.n_days,
        "columnar_seconds": round(columnar_seconds, 4),
        "flows_per_sec": round(len(table) / columnar_seconds),
        "sampling_ratio": SAMPLING_RATIO,
        "export_table_seconds": round(export_table_seconds, 4),
        "export_rows_per_sec": round(len(table) / export_table_seconds),
    }
    record_bench(BENCH_PATH, "Benchmark: columnar workload generation", payload)
