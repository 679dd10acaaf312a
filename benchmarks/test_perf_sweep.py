"""Benchmark P-S1: sweep campaign fault tolerance.

Measures the two costs the fault-tolerant execution core is allowed to add
and proves both stay negligible:

* **Resume overhead.**  A campaign resumed from a fully-populated ledger must
  reuse every scenario — reading the ledger and matching
  ``(scenario_id, config_digest)`` is the entire cost — so it is enforced to
  be at least ``ENFORCED_RESUME_SPEEDUP``x faster than running the sweep, and
  its outcomes must be bit-identical (via ``ScenarioOutcome.identity``, which
  excludes only the nondeterministic bookkeeping fields such as
  ``elapsed_seconds``).
* **Sustained throughput under faults.**  With a fault hook failing the first
  attempt of every scenario and one retry configured, the campaign must still
  finish every scenario with correct metrics; the measured scenarios/second
  under 100% injected first-attempt failures is recorded.

Numbers land in ``BENCH_sweep.json`` at the repository root.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import record_bench

from repro.obs.bench import bench_env
from repro.simulation.config import ScenarioConfig
from repro.sweeps import ScenarioGrid, SweepRunner
from repro.sweeps import runner as runner_module

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"

#: A resumed, fully-complete campaign does no scenario work; anything under
#: this bar means ledger reuse itself has become expensive.
ENFORCED_RESUME_SPEEDUP = 3.0


def _grid() -> ScenarioGrid:
    base = ScenarioConfig.small(seed=47).with_overrides(
        n_subscriber_lines=40, n_scanner_lines=1
    )
    return ScenarioGrid(
        base, {"sampling_ratio": (1, 4, 16), "volume_sigma": (0.5, 0.75)}
    )


def _identities(result) -> dict:
    return {outcome.scenario_id: outcome.identity() for outcome in result.outcomes}


def _fail_first_attempt(scenario_id: str, attempt: int) -> None:
    if attempt == 1:
        raise RuntimeError("injected benchmark fault")


def test_perf_sweep_fault_tolerance(tmp_path):
    grid = _grid()
    n_scenarios = len(grid)
    ledger = tmp_path / "campaign.jsonl"

    start = time.perf_counter()
    full = SweepRunner(metrics=("traffic",), workers=1, ledger_path=ledger).run(grid)
    full_seconds = time.perf_counter() - start
    assert full.failures() == []

    start = time.perf_counter()
    resumed = SweepRunner(metrics=("traffic",), workers=1).run(grid, resume=ledger)
    resume_seconds = time.perf_counter() - start
    assert resumed.reused_count == n_scenarios
    assert _identities(resumed) == _identities(full)
    resume_speedup = full_seconds / resume_seconds

    # Throughput with every scenario failing its first attempt and retrying.
    previous_hook = runner_module.FAULT_HOOK
    runner_module.FAULT_HOOK = _fail_first_attempt
    try:
        start = time.perf_counter()
        faulted = SweepRunner(
            metrics=("traffic",), workers=1, retries=1, backoff=0.0
        ).run(grid)
        faulted_seconds = time.perf_counter() - start
    finally:
        runner_module.FAULT_HOOK = previous_hook
    assert faulted.failures() == []
    assert _identities(faulted) == _identities(full)

    payload = {
        "benchmark": "sweep-fault-tolerance",
        **bench_env(),
        "scenarios": n_scenarios,
        "full_seconds": round(full_seconds, 4),
        "resume_seconds": round(resume_seconds, 4),
        "resume_speedup": round(resume_speedup, 2),
        "injected_failures": n_scenarios,
        "faulted_seconds": round(faulted_seconds, 4),
        "scenarios_per_second": round(n_scenarios / faulted_seconds, 3),
    }
    record_bench(BENCH_PATH, "Benchmark: sweep fault tolerance", payload)

    # The acceptance bar: reusing a complete ledger must cost almost nothing.
    assert resume_speedup >= ENFORCED_RESUME_SPEEDUP
