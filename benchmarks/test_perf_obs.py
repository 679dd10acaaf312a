"""Benchmark P-O1: observability overhead on the hot paths.

The ``repro.obs`` contract is that instrumentation is effectively free: the
metrics helpers are guarded by a module flag (two dict operations per *bulk*
matcher call when enabled, a plain ``return`` when disabled) and spans are
emitted at batch granularity only.  This benchmark measures both states on the
two instrumented paths that matter:

* the matcher hot path (``CompiledPatternSet.match_many`` over a >=50k-name
  corpus) — enabled overhead must stay within 3%;
* a full serial sweep scenario (world build + generation + metrics) with
  tracing *and* metrics collection on — a looser guard, because a multi-second
  end-to-end run on a shared 1-CPU container carries scheduling noise far
  larger than the instrumentation itself.

Interleaved min-of-N repetitions cancel drift (cache warmup, CPU frequency)
that would otherwise masquerade as overhead.  Results land in
``BENCH_obs.json`` at the repository root.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

from conftest import record_bench
from test_perf_matcher import CORPUS_SIZE, _build_corpus

from repro.core.patterns import PatternSet
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.bench import bench_env
from repro.obs.metrics import MetricsRegistry
from repro.simulation.config import ScenarioConfig
from repro.sweeps.grid import ScenarioGrid
from repro.sweeps.runner import SweepRunner

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

#: Interleaved repetitions per state; min-of-N is reported.  The order within
#: each repetition alternates so neither state systematically runs on a warmer
#: cache or a busier scheduler slice.
MATCHER_REPS = 9
SWEEP_REPS = 2

#: Acceptance bars: the matcher hot path must absorb instrumentation within
#: 3%; the end-to-end sweep guard is a noise backstop, not a precision claim.
MATCHER_MAX_RATIO = 1.03
SWEEP_MAX_RATIO = 1.5


def _time_match_many(engine, corpus) -> float:
    start = time.perf_counter()
    engine.match_many(corpus)
    return time.perf_counter() - start


def _time_sweep(tmp_path: Path, label: str) -> float:
    base = ScenarioConfig.small(seed=11).with_overrides(n_subscriber_lines=60)
    grid = ScenarioGrid.from_strings(base, ["sampling_ratio=1"])
    runner = SweepRunner(
        metrics=("traffic",), workers=1, store=tmp_path / f"store-{label}"
    )
    start = time.perf_counter()
    result = runner.run(grid)
    elapsed = time.perf_counter() - start
    assert all(outcome.ok for outcome in result.outcomes)
    return elapsed


def test_perf_obs_overhead(tmp_path):
    corpus = _build_corpus(CORPUS_SIZE // 2, seed=7)
    engine = PatternSet.for_providers().engine()
    engine.match_many(corpus[:1000])  # warm caches outside the timed region

    matcher_disabled = []
    matcher_enabled = []
    previous = obs_metrics.set_registry(MetricsRegistry())
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(MATCHER_REPS):
            states = (False, True) if rep % 2 == 0 else (True, False)
            for enabled in states:
                if enabled:
                    obs_metrics.enable()
                    matcher_enabled.append(_time_match_many(engine, corpus))
                else:
                    obs_metrics.disable()
                    matcher_disabled.append(_time_match_many(engine, corpus))
    finally:
        if gc_was_enabled:
            gc.enable()
        obs_metrics.disable()
        obs_metrics.set_registry(previous)
    matcher_disabled_seconds = min(matcher_disabled)
    matcher_enabled_seconds = min(matcher_enabled)
    matcher_ratio = matcher_enabled_seconds / matcher_disabled_seconds

    sweep_disabled = []
    sweep_enabled = []
    for rep in range(SWEEP_REPS):
        sweep_disabled.append(_time_sweep(tmp_path, f"plain-{rep}"))
        previous = obs_metrics.set_registry(MetricsRegistry())
        obs_trace.enable(tmp_path / f"trace-{rep}.jsonl")
        obs_metrics.enable()
        try:
            sweep_enabled.append(_time_sweep(tmp_path, f"obs-{rep}"))
        finally:
            obs_metrics.disable()
            obs_metrics.set_registry(previous)
            obs_trace.disable()
    sweep_disabled_seconds = min(sweep_disabled)
    sweep_enabled_seconds = min(sweep_enabled)
    sweep_ratio = sweep_enabled_seconds / sweep_disabled_seconds

    payload = {
        "benchmark": "obs-instrumentation-overhead",
        **bench_env(),
        "corpus_size": len(corpus),
        "matcher_reps": MATCHER_REPS,
        "matcher_disabled_seconds": round(matcher_disabled_seconds, 4),
        "matcher_enabled_seconds": round(matcher_enabled_seconds, 4),
        "matcher_overhead_ratio": round(matcher_ratio, 4),
        "sweep_reps": SWEEP_REPS,
        "sweep_disabled_seconds": round(sweep_disabled_seconds, 4),
        "sweep_enabled_seconds": round(sweep_enabled_seconds, 4),
        "sweep_overhead_ratio": round(sweep_ratio, 4),
        # Speedup of leaving observability off (~1.0: disabled cost is zero).
        "disabled_speedup": round(matcher_ratio, 4),
    }
    record_bench(BENCH_PATH, "Benchmark: observability overhead", payload)

    assert matcher_ratio <= MATCHER_MAX_RATIO, (
        f"matcher overhead {matcher_ratio:.4f} exceeds {MATCHER_MAX_RATIO}"
    )
    assert sweep_ratio <= SWEEP_MAX_RATIO, (
        f"sweep overhead {sweep_ratio:.4f} exceeds {SWEEP_MAX_RATIO}"
    )
