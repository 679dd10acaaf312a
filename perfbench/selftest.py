"""Self-test of the benchmark on a tiny scenario (a few dozen subscriber lines).

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the tier-1 ``pytest`` collection.  It checks
that every metric ``BENCHMARK.json`` names is emitted with its unit for every
workload, that a planted wrong reference hash is counted in ``failed``, that
a traced run's per-layer self times plus ``trace.unattributed_s`` add up to
its traced wall clock, and that rescaling to the reference CPU speed weights
each speed phase by its share of the interval.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402

sys.path.insert(0, str(bench.SRC))

SEED = 3
SECONDS = 0.1  # one measured iteration per run


@functools.lru_cache(maxsize=None)
def _report(workload: str, trace: bool) -> bench.Report:
    return bench.run_workload(workload, SEED, SECONDS, trace, tiny=True)


def _benchmark_json() -> dict:
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = _benchmark_json()
    for workload in spec["workloads"]:
        assert workload["why"] == bench.WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_every_metric_is_emitted_with_its_unit_for_every_workload():
    for workload in bench.WORKLOADS:
        for trace, units in ((False, bench.END_TO_END_UNITS), (True, layers.PER_LAYER_UNITS)):
            report = _report(workload, trace)
            assert report.attempted > 0 and report.failed == 0, (workload, trace, report.notes)
            assert {name: report.units[name] for name in report.metrics} == units


def test_last_line_is_the_result_object():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(
            ["--workload", "sweep-small", "--seed", str(SEED), "--seconds", "0.1", "--tiny"]
        )
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 4
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.END_TO_END_UNITS


def test_planted_wrong_reference_hash_counts_as_failed():
    reference = dict(_report("repro-cold", False).reference)
    reference["fig9"] = "0" * 64
    report = bench.run_workload("repro-cold", SEED, SECONDS, False, tiny=True, reference=reference)
    assert report.failed == report.iterations


def test_cold_and_warm_agree_except_the_known_divergence():
    notes, unexpected = bench.cross_check(
        [_report(name, False) for name in ("repro-cold", "repro-warm", "repro-warm-py")]
    )
    assert unexpected == 0, notes
    assert any("ablation_vantage differs (known divergence" in note for note in notes), notes


def test_rescale_cancels_a_slow_phase():
    ref = speed.REFERENCE_PROBE_S
    # One second at reference speed, then one second at half speed: 1.5 s of
    # reference-speed work, less the probes' own time.
    fast = [(0.1 * k, ref) for k in range(10)]
    slow = [(1.0 + 0.1 * k, 2 * ref) for k in range(10)]
    probe_time = 10 * ref + 10 * 2 * ref
    rescaled = speed.rescale(fast + slow, 0.0, 2.0)
    assert abs(rescaled - (2.0 - probe_time) * 0.75) < 1e-9
    assert abs(speed.rescale(slow, 1.0, 2.0) - (1.0 - 10 * 2 * ref) * 0.5) < 1e-9
    # Too few probes inside the interval: the speed of all of them is used.
    assert abs(speed.rescale(fast + slow, 0.0, 0.2) - (0.2 - 2 * ref) * 0.75) < 1e-9


def test_layer_self_times_add_up_to_the_traced_wall():
    for workload in bench.WORKLOADS:
        report = _report(workload, True)
        accounted = sum(report.metrics[name] for name in layers.PARTITION)
        total = accounted + report.metrics["trace.unattributed_s"]
        # The wall is timed outside the root span, so only the span's own
        # bookkeeping separates the two.
        assert abs(total - report.traced_wall_s) < 0.005, (workload, total, report.traced_wall_s)
        assert 0.0 < report.metrics["trace.coverage"] <= 1.0


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok  {name}")
