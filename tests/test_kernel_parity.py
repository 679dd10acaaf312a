"""Differential kernel-parity harness (the PR-9 contract).

Every grouped aggregation runs on one of three interchangeable backends
(:mod:`repro.flows.kernels`): the reference dict loops, the fused pure-python
kernels, and the optional numpy kernels.  This module makes their equivalence
a fuzzed, CI-enforced contract:

* seeded adversarial tables -- empty tables, single-row groups, all-one-group,
  pool-shared slices (empty groups relative to the pool), post-``extend_table``
  merged pools, negative/zero values, >2**31 volumes, and near-2**62 packet
  counts that trip the numpy overflow guard into the python fallback;
* **bit-identical** comparison -- result dicts must match in key order and in
  the exact IEEE-754 bit pattern of every float;
* ``GroupIndex`` caching must never change any analysis output or the
  ``dump_table`` store digest, and stale-index reuse must be impossible after
  every mutating primitive;
* a numpy-blocked subprocess must produce byte-identical analysis output on
  the pure-python kernels (see ``test_numpy_absent_subprocess``).
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import random
import struct
import subprocess
import sys
from array import array
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from repro.flows import kernels
from repro.flows.flowtable import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS, FlowTable
from repro.flows.netflow import make_flow
from repro.obs import metrics as obs_metrics
from repro.store.codec import dump_table

SEEDS = range(6)

_PROVIDERS = ("amazon", "google", "microsoft", "bosch")
_CONTINENTS = ("EU", "NA", "AS")
_REGIONS = ("us-east-1", "eu-west-1", "ap-south-1")
_TRANSPORTS = ("tcp", "udp")

#: Groupings exercised by the fuzzer: categorical single/multi keys plus
#: integer numeric keys (both packable and python-only combinations).
_GROUPINGS = (
    ("provider_key",),
    ("timestamp",),
    ("provider_key", "timestamp"),
    ("provider_key", "server_continent", "transport"),
    ("subscriber_id",),
    ("port",),
    ("provider_key", "subscriber_id"),  # mixed cat/numeric: python-only index
)

_MEMBER_COLUMNS = ("server_ip", "subscriber_id", "sampled", "bytes_down")

_SUM_COLUMNS = (
    ("bytes_down",),
    ("bytes_down", "bytes_up"),
    ("packets_down", "packets_up", "port"),
)


def _backends():
    backends = [kernels.BACKEND_PYTHON]
    if kernels.numpy_available():
        backends.append(kernels.BACKEND_NUMPY)
    return backends


def _random_flow(rng: random.Random, hours: int, subscribers: int):
    """One adversarial flow: negative/zero/huge volumes, signed line ids."""
    roll = rng.random()
    if roll < 0.15:
        bytes_down = 0.0
    elif roll < 0.3:
        bytes_down = -rng.uniform(1, 1e6)  # negative volumes
    elif roll < 0.45:
        bytes_down = rng.uniform(2**31, 2**53)  # >2**31 volumes
    else:
        bytes_down = rng.uniform(1, 1e5)
    return make_flow(
        timestamp=datetime(2022, 3, 1) + timedelta(hours=rng.randrange(hours)),
        subscriber_id=rng.randrange(-subscribers, subscribers),
        subscriber_prefix=f"p{rng.randrange(4)}",
        ip_version=rng.choice((4, 6)),
        provider_key=rng.choice(_PROVIDERS),
        server_ip=f"10.0.0.{rng.randrange(1, 40)}",
        server_continent=rng.choice(_CONTINENTS),
        server_region=rng.choice(_REGIONS),
        transport=rng.choice(_TRANSPORTS),
        port=rng.choice((0, 443, 8883, -1, 2**31 - 1)),
        bytes_down=bytes_down,
        bytes_up=rng.choice((0.0, rng.uniform(1, 1e4))),
    )


def _overflow_rows(table: FlowTable, rng: random.Random, count: int) -> None:
    """Append rows whose packet counts trip the numpy int64 overflow guard."""
    codes = {
        name: [table.encode_value(name, value)] * count
        for name, value in (
            ("timestamp", datetime(2022, 3, 1)),
            ("subscriber_prefix", "p0"),
            ("provider_key", "amazon"),
            ("server_ip", "10.0.0.1"),
            ("server_continent", "EU"),
            ("server_region", "us-east-1"),
            ("transport", "tcp"),
        )
    }
    numeric = {
        "subscriber_id": [rng.randrange(5) for _ in range(count)],
        "ip_version": [4] * count,
        "port": [443] * count,
        "bytes_down": [1.5] * count,
        "bytes_up": [0.5] * count,
        # peak * rows >= 2**62: the numpy kernels must defer to python,
        # whose arbitrary-precision sums stay exact.
        "packets_down": [rng.choice((2**61, -(2**61), 7)) for _ in range(count)],
        "packets_up": [1] * count,
        "sampled": [rng.choice((0, 1)) for _ in range(count)],
    }
    table.append_columns(count, codes=codes, numeric=numeric)


def _adversarial_tables(seed: int):
    """(label, table) pairs covering the adversarial shapes of the contract."""
    rng = random.Random(seed)
    base = FlowTable.from_records(
        _random_flow(rng, hours=6, subscribers=20) for _ in range(rng.randrange(80, 200))
    )
    single_rows = FlowTable.from_records(
        # Row-unique subscriber ids: every (subscriber_id,) group is one row.
        make_flow(
            timestamp=datetime(2022, 3, 1, hour % 24),
            subscriber_id=1000 + index,
            subscriber_prefix="p0",
            ip_version=4,
            provider_key=_PROVIDERS[index % len(_PROVIDERS)],
            server_ip=f"10.0.1.{index % 7}",
            server_continent="EU",
            server_region="eu-west-1",
            transport="tcp",
            port=443,
            bytes_down=float(index),
            bytes_up=0.0,
        )
        for index, hour in enumerate(rng.sample(range(240), 40))
    )
    one_group = FlowTable.from_records(
        make_flow(
            timestamp=datetime(2022, 3, 1),
            subscriber_id=rng.randrange(3),
            subscriber_prefix="p0",
            ip_version=4,
            provider_key="amazon",
            server_ip="10.0.0.1",
            server_continent="EU",
            server_region="eu-west-1",
            transport="tcp",
            port=443,
            bytes_down=rng.uniform(-10, 10),
            bytes_up=1.0,
        )
        for _ in range(30)
    )
    # Pool-shared slice: shares the base pools, so some pool entries have no
    # rows at all in the slice (empty groups relative to the pool).
    sliced = base.select(range(0, len(base), 3))
    # Merged pools: extend_table remaps a table with its own (partly
    # overlapping) pools; also covers append-after-build invalidation.
    merged = base.select(range(len(base)))
    other = FlowTable.from_records(
        _random_flow(rng, hours=10, subscribers=8) for _ in range(60)
    )
    merged.extend_table(other)
    overflow = base.select(range(0, len(base), 2))
    _overflow_rows(overflow, rng, 12)
    return [
        ("base", base),
        ("single-row-groups", single_rows),
        ("all-one-group", one_group),
        ("pool-shared-slice", sliced),
        ("merged-pools", merged),
        ("overflow-packets", overflow),
        ("empty", FlowTable()),
    ]


def _masks(rng: random.Random, rows: int):
    yield None
    yield bytearray(rows)  # all masked out
    yield bytearray(rng.randrange(2) for _ in range(rows))
    yield bytearray(index % 2 for index in range(rows))


def _float_bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return value


def _assert_bit_identical(label, reference, candidate):
    """Dicts must match in key order, value types, and exact float bits."""
    assert list(reference) == list(candidate), f"{label}: key order differs"
    for key in reference:
        ref_value, got_value = reference[key], candidate[key]
        assert type(ref_value) is type(got_value), f"{label}[{key!r}]: type differs"
        if isinstance(ref_value, list):
            assert [_float_bits(v) for v in ref_value] == [
                _float_bits(v) for v in got_value
            ], f"{label}[{key!r}]: bits differ"
        else:
            assert _float_bits(ref_value) == _float_bits(got_value), (
                f"{label}[{key!r}]: bits differ"
            )


@pytest.fixture(autouse=True)
def _reset_backend():
    yield
    kernels.set_backend(None)


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_bit_identical_on_adversarial_tables(seed):
    """python-reference == fused-python == numpy, exactly, on every shape."""
    for label, table in _adversarial_tables(seed):
        rng = random.Random(seed * 1000 + len(table))
        for mask in _masks(rng, len(table)):
            for by in _GROUPINGS:
                for values in _SUM_COLUMNS:
                    reference = kernels.reference_group_sums(table, by, values, mask)
                    for backend in _backends():
                        kernels.set_backend(backend)
                        table._group_cache.clear()
                        got = table.group_sums(by, values, mask=mask)
                        _assert_bit_identical(
                            f"{label}/sums/{by}/{values}/{backend}", reference, got
                        )
                for of in _MEMBER_COLUMNS:
                    distinct_ref = kernels.reference_group_distinct(table, by, of, mask)
                    count_ref = kernels.reference_group_distinct_count(table, by, of, mask)
                    for backend in _backends():
                        kernels.set_backend(backend)
                        table._group_cache.clear()
                        got_distinct = table.group_distinct(by, of, mask=mask)
                        got_count = table.group_distinct_count(by, of, mask=mask)
                        assert list(got_distinct) == list(distinct_ref)
                        assert got_distinct == distinct_ref
                        _assert_bit_identical(
                            f"{label}/count/{by}/{of}/{backend}", count_ref, got_count
                        )


@pytest.mark.parametrize("seed", SEEDS)
def test_index_builders_agree(seed):
    """The numpy and python GroupIndex builders produce identical indexes."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    for label, table in _adversarial_tables(seed):
        for by in _GROUPINGS:
            kernels.set_backend(kernels.BACKEND_PYTHON)
            python_index = kernels.build_group_index(table, by)
            kernels.set_backend(kernels.BACKEND_NUMPY)
            numpy_index = kernels.build_group_index(table, by)
            assert python_index.gids == numpy_index.gids, f"{label}/{by}"
            assert list(python_index.group_keys) == list(numpy_index.group_keys), (
                f"{label}/{by}"
            )


def test_group_index_fallbacks_are_counted_by_reason():
    """Numpy builds handed to the python builder count their reason; no result moves."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    from repro.flows.kernels_np import GROUP_INDEX_FALLBACK_COUNTER as prefix

    table = _adversarial_tables(0)[0][1]
    wide = table.select(range(len(table)))
    for name in CATEGORICAL_COLUMNS:
        # Seven pools of 600+ entries: their mixed-radix span exceeds 2**63.
        for value in range(600):
            wide.encode_value(name, f"pad-{value}")
    cases = (
        (table, ("provider_key", "transport"), None),
        (table, ("provider_key",), None),
        (table, ("provider_key", "subscriber_id"), "mixed_keys"),
        (table, ("transport", "port"), "mixed_keys"),
        (table, ("bytes_down",), "float_key"),
        (wide, CATEGORICAL_COLUMNS, "span_overflow"),
    )
    was_enabled = obs_metrics.enabled()
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    obs_metrics.enable()
    try:
        for source, by, reason in cases:
            kernels.set_backend(kernels.BACKEND_PYTHON)
            expected = kernels.build_group_index(source, by)
            before = obs_metrics.registry().counters()
            kernels.set_backend(kernels.BACKEND_NUMPY)
            built = kernels.build_group_index(source, by)
            assert built.gids == expected.gids and built.group_keys == expected.group_keys
            counted = {
                name: value - before.get(name, 0.0)
                for name, value in obs_metrics.registry().counters().items()
                if name.startswith(prefix) and value != before.get(name, 0.0)
            }
            assert counted == ({f"{prefix}.{reason}": 1.0} if reason else {}), by
    finally:
        if not was_enabled:
            obs_metrics.disable()
        obs_metrics.set_registry(previous)


@pytest.mark.parametrize("seed", SEEDS)
def test_totals_and_distinct_parity(seed):
    """Whole-table totals and distincts are bit-identical across backends."""
    for label, table in _adversarial_tables(seed):
        for name, _typecode in NUMERIC_COLUMNS:
            reference = kernels.reference_total(table, name)
            for backend in _backends():
                kernels.set_backend(backend)
                got = table.total(name)
                assert type(got) is type(reference), f"{label}/{name}/{backend}"
                assert _float_bits(got) == _float_bits(reference), (
                    f"{label}/{name}/{backend}"
                )
        for name in CATEGORICAL_COLUMNS + ("subscriber_id", "bytes_down"):
            reference = kernels.reference_distinct(table, name)
            for backend in _backends():
                kernels.set_backend(backend)
                assert table.distinct(name) == reference, f"{label}/{name}/{backend}"


def _digest(table: FlowTable) -> str:
    stream = io.BytesIO()
    dump_table(table, stream)
    return hashlib.sha256(stream.getvalue()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_group_index_caching_changes_no_output_and_no_digest(seed):
    """Warm-cache reruns return identical results; the table bytes never move."""
    for label, table in _adversarial_tables(seed):
        before = _digest(table)
        for backend in _backends():
            kernels.set_backend(backend)
            table._group_cache.clear()
            cold_sums = table.group_sums(("provider_key", "timestamp"), ("bytes_down",))
            cold_count = table.group_distinct_count(("provider_key",), "subscriber_id")
            assert table.group_index(("provider_key", "timestamp")) is table.group_index(
                ("provider_key", "timestamp")
            ), "cache must serve the same index object while unmutated"
            warm_sums = table.group_sums(("provider_key", "timestamp"), ("bytes_down",))
            warm_count = table.group_distinct_count(("provider_key",), "subscriber_id")
            _assert_bit_identical(f"{label}/{backend}/warm-sums", cold_sums, warm_sums)
            _assert_bit_identical(f"{label}/{backend}/warm-count", cold_count, warm_count)
        assert _digest(table) == before, f"{label}: aggregations mutated the table"


def _mutators():
    def via_extend(table, rng):
        table.extend([_random_flow(rng, hours=4, subscribers=6)])

    def via_append(table, rng):
        table.append(_random_flow(rng, hours=4, subscribers=6))

    def via_append_columns(table, rng):
        _overflow_rows(table, rng, 3)

    def via_extend_table(table, rng):
        other = FlowTable.from_records(
            _random_flow(rng, hours=4, subscribers=6) for _ in range(5)
        )
        table.extend_table(other)

    def via_truncate(table, rng):
        table.truncate(len(table) - 1)

    def via_assign_numeric(table, rng):
        table.assign_numeric("bytes_down", [1.0] * len(table))

    return [
        ("extend", via_extend),
        ("append", via_append),
        ("append_columns", via_append_columns),
        ("extend_table", via_extend_table),
        ("truncate", via_truncate),
        ("assign_numeric", via_assign_numeric),
    ]


@pytest.mark.parametrize("mutator_name,mutate", _mutators())
def test_group_index_invalidation_bug_trap(mutator_name, mutate):
    """Every mutating primitive makes a cached GroupIndex unusable.

    The cache is keyed on the table's mutation counter: after any mutation
    the next aggregation must rebuild and match a fresh-table recompute, on
    every backend.
    """
    by = ("provider_key", "timestamp")
    for backend in _backends():
        kernels.set_backend(backend)
        rng = random.Random(17)
        table = FlowTable.from_records(
            _random_flow(rng, hours=5, subscribers=10) for _ in range(50)
        )
        stale = table.group_index(by)
        assert table.group_index(by) is stale, "unmutated cache must hit"
        mutate(table, rng)
        rebuilt = table.group_index(by)
        assert rebuilt is not stale, f"{mutator_name}: stale index reused"
        assert rebuilt.version == table._version
        fresh = FlowTable.from_records(table.to_records())
        _assert_bit_identical(
            f"{mutator_name}/{backend}",
            fresh.group_sums(by, ("bytes_down", "bytes_up")),
            table.group_sums(by, ("bytes_down", "bytes_up")),
        )
        assert table.group_distinct_count(by, "subscriber_id") == (
            fresh.group_distinct_count(by, "subscriber_id")
        )


def test_pool_growth_does_not_invalidate_but_pickle_drops_cache():
    """encode_value touches no rows (cache stays); pickles start cold."""
    rng = random.Random(23)
    table = FlowTable.from_records(
        _random_flow(rng, hours=5, subscribers=10) for _ in range(40)
    )
    by = ("provider_key",)
    index = table.group_index(by)
    table.encode_value("provider_key", "never-seen-provider")
    assert table.group_index(by) is index, "pool growth alone must not invalidate"
    clone = pickle.loads(pickle.dumps(table))
    assert clone._group_cache == {}, "pickled tables must not carry cached indexes"
    assert clone.group_sums(by, ("bytes_down",)) == table.group_sums(by, ("bytes_down",))


def test_int64_safe_limit_constants_agree():
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    from repro.flows import kernels_np

    assert kernels.INT64_SAFE_LIMIT == kernels_np.INT64_SAFE_LIMIT


def test_env_var_selects_backend_and_rejects_garbage(monkeypatch):
    monkeypatch.setenv(kernels.KERNELS_ENV_VAR, "python")
    assert kernels.active_backend() == kernels.BACKEND_PYTHON
    monkeypatch.setenv(kernels.KERNELS_ENV_VAR, "fortran")
    with pytest.raises(ValueError):
        kernels.active_backend()
    monkeypatch.delenv(kernels.KERNELS_ENV_VAR)
    if kernels.numpy_available():
        monkeypatch.setenv(kernels.KERNELS_ENV_VAR, "numpy")
        assert kernels.active_backend() == kernels.BACKEND_NUMPY


# -- numpy-absent environments ----------------------------------------------------

#: Runs the tier-1-shaped analysis path and prints a canonical JSON summary.
#: ``--block-numpy`` poisons the numpy import before repro is imported, so
#: the kernels must auto-detect the pure-python backend.  Float repr is exact
#: for doubles, so equal stdout means bit-equal analysis results.
_SUBPROCESS_SCRIPT = r"""
import json, sys

if "--block-numpy" in sys.argv:
    sys.modules["numpy"] = None

from datetime import datetime, timedelta
import random

from repro.core.disruption import GROUP_ALL, GROUP_EU, GROUP_US_EAST, outage_impact
from repro.core.traffic import ScannerExclusion
from repro.flows import kernels
from repro.flows.flowtable import FlowTable
from repro.flows.netflow import make_flow

expected = "python" if "--block-numpy" in sys.argv else kernels.active_backend()
if "--block-numpy" in sys.argv:
    assert not kernels.numpy_available(), "numpy import was not blocked"
assert kernels.active_backend() == expected

rng = random.Random(4)
records = [
    make_flow(
        timestamp=datetime(2021, 12, 5) + timedelta(hours=rng.randrange(72)),
        subscriber_id=rng.randrange(40),
        subscriber_prefix="p0",
        ip_version=4,
        provider_key=rng.choice(("amazon", "google")),
        server_ip="10.0.0.%d" % rng.randrange(1, 30),
        server_continent=rng.choice(("EU", "NA")),
        server_region=rng.choice(("us-east-1", "eu-west-1")),
        transport="tcp",
        port=8883,
        bytes_down=rng.uniform(10, 1e6),
        bytes_up=rng.uniform(1, 1e4),
    )
    for _ in range(400)
]
table = FlowTable.from_records(records)
exclusion = ScannerExclusion(table, {"10.0.0.%d" % n for n in range(1, 30)})
report = outage_impact(
    table,
    "amazon",
    (datetime(2021, 12, 7, 12), datetime(2021, 12, 7, 15)),
    (datetime(2021, 12, 5), datetime(2021, 12, 7)),
    sampling_ratio=4,
)
summary = {
    "contacts": sorted(exclusion.contacts_per_line().items()),
    "scanners": sorted(exclusion.scanner_lines(threshold=5)),
    "traffic": {
        group: [[str(when), value] for when, value in report.traffic_series[group].items()]
        for group in (GROUP_ALL, GROUP_US_EAST, GROUP_EU)
    },
    "lines": {
        group: [[str(when), value] for when, value in report.line_series[group].items()]
        for group in (GROUP_ALL, GROUP_US_EAST, GROUP_EU)
    },
    "min_traffic": report.previous_week_min_traffic,
    "volume": table.total("bytes_down"),
    "footprint": sorted(
        (key, len(ips))
        for key, ips in table.group_distinct(("provider_key",), "server_ip").items()
    ),
}
print(json.dumps(summary, sort_keys=True))
"""


def _run_analysis_subprocess(tmp_path, *args: str) -> str:
    script = tmp_path / "analysis_probe.py"
    script.write_text(_SUBPROCESS_SCRIPT)
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_numpy_absent_subprocess(tmp_path):
    """Blocking numpy leaves the analysis path working and byte-identical."""
    blocked = _run_analysis_subprocess(tmp_path, "--block-numpy")
    unblocked = _run_analysis_subprocess(tmp_path)
    assert json.loads(blocked)  # sanity: non-empty analysis output
    assert blocked == unblocked
