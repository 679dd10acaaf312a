"""Shared fixtures for the benchmark harness.

Every paper-claim test regenerates one table or figure of the paper at the
default scenario scale.  Building the world, running the discovery pipeline,
and generating the flows happen once per test run; each test then calls its
analysis once, prints the regenerated rows/series and asserts what the paper
found.  Analysis timings come from ``perfbench/`` (its ``exp.*_s`` metrics),
not from these tests.

The ``test_perf_*`` modules print their measurements on every run but rewrite
their committed ``BENCH_*.json`` artifact only when ``IOT_REPRO_BENCH_WRITE=1``
is set, so a plain tier-1 run leaves the working tree clean and a
``BENCH_*.json`` diff is always deliberate.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.context import ExperimentContext, build_context
from repro.simulation.config import ScenarioConfig


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """The default-scale experiment context shared by all benchmarks."""
    ctx = build_context(ScenarioConfig.default(seed=7))
    # Pre-compute the expensive shared artifacts so individual benchmarks measure
    # only their own analysis step.
    ctx.clean_table()
    ctx.outage_table()
    return ctx


def emit(title: str, text: str) -> None:
    """Print a regenerated artefact with a visible banner."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{text}\n")


def record_bench(path: Path, title: str, payload: dict) -> None:
    """Print a benchmark payload; rewrite its artifact only on explicit opt-in."""
    text = json.dumps(payload, indent=2)
    if os.environ.get("IOT_REPRO_BENCH_WRITE") == "1":
        path.write_text(text + "\n")
    emit(title, text)
