"""Validate the ``BENCH_*.json`` benchmark artifacts at the repository root.

Every performance PR records its measurements in a ``BENCH_<name>.json`` file
regenerated by a matching ``benchmarks/test_perf_<name>.py`` module.  This
checker enforces the shared schema so stale or hand-edited artifacts fail
fast:

* the file parses as a flat JSON object of scalar values,
* it names itself via a non-empty ``"benchmark"`` string,
* it carries at least one numeric ``*_seconds`` timing and one numeric
  ``*speedup*`` ratio — except artifacts listed in ``ABSOLUTE_RATE_ONLY``,
  whose baseline path no longer exists and which report absolute rates
  instead,
* it stamps the host environment that produced it (numeric ``env_cpu_count``,
  non-empty ``env_python``/``env_platform`` strings — see
  :func:`repro.obs.bench.bench_env`),
* artifacts with extra obligations (see ``REQUIRED_NUMERIC_FIELDS``, e.g. the
  cold/warm pair of ``BENCH_store.json``) carry their required numeric keys,
* artifacts with required string stamps (see ``REQUIRED_STRING_FIELDS``, e.g.
  the ``kernel_backend`` of ``BENCH_flowtable.json``) carry them non-empty, and
* the ``benchmarks/test_perf_<name>.py`` module that regenerates it exists.

Run standalone (``python benchmarks/check_bench_schema.py``) or through the
tier-1 test ``tests/test_bench_schema.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Artifact-specific numeric keys that must be present on top of the shared
#: schema.  The store benchmark must always record the cold/warm contrast it
#: exists to track, and the discovery benchmark its cold/incremental/warm
#: triple.
REQUIRED_NUMERIC_FIELDS: Dict[str, Tuple[str, ...]] = {
    "BENCH_store.json": (
        "cold_seconds",
        "warm_seconds",
        "warm_speedup",
        "mmap_warm_seconds",
        "mmap_speedup",
    ),
    "BENCH_discovery.json": (
        "cold_seconds",
        "incremental_seconds",
        "incremental_speedup",
        "warm_seconds",
        "warm_speedup",
    ),
    "BENCH_sweep.json": (
        "full_seconds",
        "resume_seconds",
        "resume_speedup",
        "scenarios_per_second",
        "injected_failures",
    ),
    "BENCH_obs.json": (
        "matcher_disabled_seconds",
        "matcher_enabled_seconds",
        "matcher_overhead_ratio",
        "sweep_disabled_seconds",
        "sweep_enabled_seconds",
        "sweep_overhead_ratio",
    ),
    "BENCH_flowtable.json": (
        "index_build_seconds",
        "volume_speedup",
        "distinct_speedup",
        "python_volume_speedup",
        "python_distinct_speedup",
    ),
    "BENCH_workload.json": (
        "columnar_seconds",
        "flows_per_sec",
        "export_table_seconds",
        "export_rows_per_sec",
    ),
}

#: Artifacts exempt from the speedup-ratio requirement: the code they were
#: once compared against is gone, so they record absolute rates (required in
#: ``REQUIRED_NUMERIC_FIELDS``) and no ratio.
ABSOLUTE_RATE_ONLY: Tuple[str, ...] = ("BENCH_workload.json",)

#: Artifact-specific string keys that must be present and non-empty.  The
#: flowtable benchmark must always name the kernel backend its headline
#: numbers were measured on, so a backend switch cannot hide a regression.
REQUIRED_STRING_FIELDS: Dict[str, Tuple[str, ...]] = {
    "BENCH_flowtable.json": ("kernel_backend",),
}

#: Host-environment fields every artifact must stamp (``env_cpu_count`` is
#: numeric; the other two are non-empty strings).
REQUIRED_ENV_FIELDS: Tuple[str, ...] = ("env_cpu_count", "env_python", "env_platform")


def check_bench_file(path: Path) -> List[str]:
    """Return the schema problems of one ``BENCH_*.json`` file (empty if valid)."""
    problems: List[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path.name}: unreadable or invalid JSON ({error})"]
    if not isinstance(payload, dict):
        return [f"{path.name}: top-level value must be a JSON object"]
    for key, value in payload.items():
        if not isinstance(key, str) or not isinstance(value, (str, int, float, bool)):
            problems.append(f"{path.name}: entry {key!r} is not a flat scalar field")
    benchmark = payload.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        problems.append(f"{path.name}: missing non-empty 'benchmark' name")
    def _is_number(value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    has_timing = any(
        key.endswith("_seconds") and _is_number(value) for key, value in payload.items()
    )
    if not has_timing:
        problems.append(f"{path.name}: no numeric '*_seconds' timing field")
    has_speedup = any(
        "speedup" in key and _is_number(value) for key, value in payload.items()
    )
    if not has_speedup and path.name not in ABSOLUTE_RATE_ONLY:
        problems.append(f"{path.name}: no numeric '*speedup*' ratio field")
    for required in REQUIRED_NUMERIC_FIELDS.get(path.name, ()):
        if not _is_number(payload.get(required)):
            problems.append(f"{path.name}: missing required numeric field {required!r}")
    for required in REQUIRED_STRING_FIELDS.get(path.name, ()):
        value = payload.get(required)
        if not isinstance(value, str) or not value:
            problems.append(f"{path.name}: missing required string field {required!r}")
    if not _is_number(payload.get("env_cpu_count")):
        problems.append(f"{path.name}: missing numeric env field 'env_cpu_count'")
    for env_field in ("env_python", "env_platform"):
        value = payload.get(env_field)
        if not isinstance(value, str) or not value:
            problems.append(f"{path.name}: missing non-empty env field {env_field!r}")
    module_name = path.stem.replace("BENCH_", "test_perf_", 1) + ".py"
    module_path = path.parent / "benchmarks" / module_name
    if not module_path.is_file():
        problems.append(
            f"{path.name}: no regenerating module benchmarks/{module_name} (stale artifact?)"
        )
    return problems


def check_bench_files(root: Path) -> List[str]:
    """Check every ``BENCH_*.json`` under ``root``; return all problems found."""
    root = Path(root)
    problems: List[str] = []
    artifacts = sorted(root.glob("BENCH_*.json"))
    if not artifacts:
        problems.append(f"no BENCH_*.json artifacts found under {root}")
    for path in artifacts:
        problems.extend(check_bench_file(path))
    return problems


def main(argv: List[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path(args[0]) if args else Path(__file__).resolve().parents[1]
    problems = check_bench_files(root)
    for problem in problems:
        print(f"BENCH schema: {problem}")
    if not problems:
        print(f"BENCH schema: {len(sorted(root.glob('BENCH_*.json')))} artifact(s) OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
