"""Tier-1 guard: all BENCH_*.json artifacts conform to the shared schema."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_schema", ROOT / "benchmarks" / "check_bench_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_bench_artifacts_conform():
    problems = _checker().check_bench_files(ROOT)
    assert problems == []


def test_checker_flags_stale_and_malformed_artifacts(tmp_path):
    checker = _checker()
    # Valid schema but no regenerating benchmark module -> stale.
    (tmp_path / "BENCH_ghost.json").write_text(
        json.dumps({"benchmark": "ghost", "run_seconds": 1.0, "speedup": 2.0})
    )
    problems = checker.check_bench_files(tmp_path)
    assert any("test_perf_ghost.py" in problem for problem in problems)
    # Missing name, timing, and speedup fields are each reported.
    (tmp_path / "BENCH_empty.json").write_text("{}")
    problems = checker.check_bench_files(tmp_path)
    assert any("'benchmark'" in problem for problem in problems)
    assert any("_seconds" in problem for problem in problems)
    assert any("speedup" in problem for problem in problems)


def test_checker_requires_kernel_backend_stamp(tmp_path):
    """BENCH_flowtable.json without a kernel_backend string must fail."""
    checker = _checker()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "test_perf_flowtable.py").write_text("# regenerator\n")
    payload = json.loads((ROOT / "BENCH_flowtable.json").read_text())
    assert payload["kernel_backend"] in ("python", "numpy")
    del payload["kernel_backend"]
    (tmp_path / "BENCH_flowtable.json").write_text(json.dumps(payload))
    problems = checker.check_bench_files(tmp_path)
    assert any("kernel_backend" in problem for problem in problems)
    # An empty stamp is as bad as a missing one.
    payload["kernel_backend"] = ""
    (tmp_path / "BENCH_flowtable.json").write_text(json.dumps(payload))
    problems = checker.check_bench_files(tmp_path)
    assert any("kernel_backend" in problem for problem in problems)
    # Restoring the stamp clears the artifact.
    payload["kernel_backend"] = "python"
    (tmp_path / "BENCH_flowtable.json").write_text(json.dumps(payload))
    assert checker.check_bench_files(tmp_path) == []


def test_checker_main_exit_codes(tmp_path):
    checker = _checker()
    assert checker.main([str(ROOT)]) == 0
    assert checker.main([str(tmp_path)]) == 1


def test_rate_only_artifact_needs_its_rates_not_a_speedup(tmp_path):
    """BENCH_workload.json records absolute rates; dropping one must fail."""
    checker = _checker()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "test_perf_workload.py").write_text("# regenerator\n")
    payload = json.loads((ROOT / "BENCH_workload.json").read_text())
    assert not any("speedup" in key for key in payload)
    (tmp_path / "BENCH_workload.json").write_text(json.dumps(payload))
    assert checker.check_bench_files(tmp_path) == []
    del payload["export_rows_per_sec"]
    (tmp_path / "BENCH_workload.json").write_text(json.dumps(payload))
    problems = checker.check_bench_files(tmp_path)
    assert any("export_rows_per_sec" in problem for problem in problems)
