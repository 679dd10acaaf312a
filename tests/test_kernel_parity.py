"""Differential kernel-parity harness (the PR-9 contract).

Every grouped aggregation runs on one of two interchangeable backends
(:mod:`repro.flows.kernels`): the fused pure-python kernels and the optional
numpy kernels.  This module keeps the original dict loops (``reference_*``)
as their ground truth and makes the equivalence of all three a fuzzed,
CI-enforced contract:

* seeded adversarial tables -- empty tables, single-row groups, all-one-group,
  pool-shared slices (empty groups relative to the pool), merged pools (a
  table extended with another table's records), negative/zero values, >2**31
  volumes, and near-2**62 packet counts that trip the numpy overflow guard
  into the python fallback;
* **bit-identical** comparison -- result dicts must match in key order and in
  the exact IEEE-754 bit pattern of every float;
* ``GroupIndex`` caching must never change any analysis output or the
  ``dump_table`` store digest, and stale-index reuse must be impossible after
  every mutating primitive;
* a numpy-blocked subprocess must produce byte-identical analysis output on
  the pure-python kernels (see ``test_numpy_absent_subprocess``);
* the row kernels -- ``select_mask`` and every filter on it, the row masks and
  NetFlow export -- give the same bytes on every backend, on array-backed
  tables and on lazy copies loaded through ``load_table_mmap``.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import random
import struct
import subprocess
import sys
from array import array
from datetime import datetime, timedelta
from itertools import compress
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

import pytest

from repro.flows import kernels
from repro.flows.flowtable import (
    CATEGORICAL_COLUMNS,
    NUMERIC_COLUMNS,
    FlowTable,
    GroupKey,
    LazyColumn,
)
from repro.flows.netflow import NetFlowCollector
from repro.obs import metrics as obs_metrics
from repro.simulation.rng import RngRegistry
from repro.store.codec import dump_table, load_table_mmap

from flowrows import append_records, from_records, make_flow

SEEDS = range(6)

_PROVIDERS = ("amazon", "google", "microsoft", "bosch")
_CONTINENTS = ("EU", "NA", "AS")
_REGIONS = ("us-east-1", "eu-west-1", "ap-south-1")
_TRANSPORTS = ("tcp", "udp")

#: Groupings exercised by the fuzzer: categorical single/multi keys, integer
#: numeric keys, and mixed categorical/integer keys (packed by the numpy
#: builder with radix max - min + 1 over ports -1..2**31-1 and negative ids).
_GROUPINGS = (
    ("provider_key",),
    ("timestamp",),
    ("provider_key", "timestamp"),
    ("provider_key", "server_continent", "transport"),
    ("subscriber_id",),
    ("port",),
    ("provider_key", "subscriber_id"),
    ("transport", "port", "subscriber_id"),
    ("subscriber_id", "port"),
)

_MEMBER_COLUMNS = ("server_ip", "subscriber_id", "sampled", "bytes_down")

_SUM_COLUMNS = (
    ("bytes_down",),
    ("bytes_down", "bytes_up"),
    ("packets_down", "packets_up", "port"),
)


# ---------------------------------------------------------------------------------
# Reference kernels (the original implementations, verbatim semantics): the
# ground truth every backend is compared against.  Nothing in src/ calls them.
# ---------------------------------------------------------------------------------


def reference_group_sums(
    table: "FlowTable",
    by: Sequence[str],
    values: Sequence[str],
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", List[float]]:
    """The original dict-accumulator group-sum loop (parity ground truth)."""
    keys, decode = table._group_codes(by)
    value_arrays: List = [table.numeric(name) for name in values]
    if mask is not None:
        keys = compress(keys, mask)
        value_arrays = [compress(column, mask) for column in value_arrays]
    sums: Dict[object, List[float]] = {}
    if len(value_arrays) == 1:
        column = value_arrays[0]
        for key, value in zip(keys, column):
            bucket = sums.get(key)
            if bucket is None:
                sums[key] = [value]
            else:
                bucket[0] += value
    elif len(value_arrays) == 2:
        first, second = value_arrays
        for key, value_a, value_b in zip(keys, first, second):
            bucket = sums.get(key)
            if bucket is None:
                sums[key] = [value_a, value_b]
            else:
                bucket[0] += value_a
                bucket[1] += value_b
    else:
        for key, row in zip(keys, zip(*value_arrays)):
            bucket = sums.get(key)
            if bucket is None:
                sums[key] = list(row)
            else:
                for position, value in enumerate(row):
                    bucket[position] += value
    return {decode(key): bucket for key, bucket in sums.items()}


def _reference_code_sets(
    table: "FlowTable", by: Sequence[str], of: str, mask: Optional[Sequence[int]]
):
    keys, decode = table._group_codes(by)
    of_keys, of_pool = table._key_column(of)
    if mask is not None:
        keys = compress(keys, mask)
        of_keys = compress(of_keys, mask)
    groups: Dict[object, Set] = {}
    for key, member in zip(keys, of_keys):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = {member}
        else:
            bucket.add(member)
    return groups, decode, of_pool


def reference_group_distinct(
    table: "FlowTable",
    by: Sequence[str],
    of: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", Set[object]]:
    """The original dict-of-sets distinct grouping (parity ground truth)."""
    groups, decode, of_pool = _reference_code_sets(table, by, of, mask)
    if of_pool is None:
        return {decode(key): bucket for key, bucket in groups.items()}
    return {
        decode(key): {of_pool[member] for member in bucket}
        for key, bucket in groups.items()
    }


def reference_group_distinct_count(
    table: "FlowTable",
    by: Sequence[str],
    of: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", int]:
    """The original distinct-count grouping (parity ground truth)."""
    groups, decode, _ = _reference_code_sets(table, by, of, mask)
    return {decode(key): len(bucket) for key, bucket in groups.items()}


def reference_group_pair_sums(
    table: "FlowTable",
    by: str,
    first: str,
    second: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict[object, float]:
    """The original dict loop of the pair sums: ``a + b`` per row onto ``0.0``."""
    members, pool = table._key_column(by)
    rows = zip(members, table.numeric(first), table.numeric(second))
    if mask is not None:
        rows = compress(rows, mask)
    sums: Dict[object, float] = {}
    for member, a, b in rows:
        sums[member] = sums.get(member, 0.0) + (a + b)
    return sums if pool is None else {pool[member]: total for member, total in sums.items()}


def reference_total(table: "FlowTable", value: str) -> float:
    """Left-to-right python fold (parity ground truth).

    Not ``sum()``: from Python 3.12 on it compensates float rounding.
    """
    total = 0
    for item in table.numeric(value):
        total += item
    return total


def reference_distinct(table: "FlowTable", name: str) -> Set[object]:
    """The original whole-table distinct (parity ground truth)."""
    if table.is_categorical(name):
        pool = table.pool(name)
        return {pool[code] for code in set(table.codes(name))}
    return set(table.numeric(name))


def reference_expand_code_mask(
    codes: Sequence[int], code_mask: Sequence[int], mask: Optional[Sequence[int]] = None
) -> bytearray:
    """The original per-row mask expansion: one ``code_mask[code]`` per row.

    Unmasked, each row holds its code's flag as given; masked, ``1`` where
    the mask entry and the flag are both truthy.  A negative code counts
    from the end, and every row's flag is looked up, whatever its mask
    entry, so a code past the pool raises ``IndexError``.
    """
    if mask is None:
        return bytearray(map(code_mask.__getitem__, codes))
    return bytearray(1 if code_mask[code] and keep else 0 for keep, code in zip(mask, codes))


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


def _every(rows: int, step: int, start: int = 0) -> bytearray:
    """Row mask keeping rows ``start``, ``start + step``, ... of ``rows``."""
    return bytearray(index >= start and (index - start) % step == 0 for index in range(rows))


def _adversarial_tables(seed: int):
    """(label, table) pairs covering the adversarial shapes of the contract."""
    rng = random.Random(seed)
    base = from_records(
        _random_flow(rng, hours=6, subscribers=20) for _ in range(rng.randrange(80, 200))
    )
    single_rows = from_records(
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
    one_group = from_records(
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
    sliced = base.select_mask(_every(len(base), 3))
    # Merged pools: another table's (partly overlapping) values interned on
    # top of the base pools; also covers append-after-build invalidation.
    merged = base.select_mask(_every(len(base), 1))
    other = from_records(
        _random_flow(rng, hours=10, subscribers=8) for _ in range(60)
    )
    append_records(merged, other.to_records())
    overflow = base.select_mask(_every(len(base), 2))
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
                    reference = reference_group_sums(table, by, values, mask)
                    for backend in _backends():
                        kernels.set_backend(backend)
                        table._group_cache.clear()
                        got = table.group_sums(by, values, mask=mask)
                        _assert_bit_identical(
                            f"{label}/sums/{by}/{values}/{backend}", reference, got
                        )
                for of in _MEMBER_COLUMNS:
                    distinct_ref = reference_group_distinct(table, by, of, mask)
                    count_ref = reference_group_distinct_count(table, by, of, mask)
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


#: Key columns of the pair-sum fuzz: one categorical, one integer.
_PAIR_KEYS = ("server_ip", "subscriber_id")


@pytest.mark.parametrize("seed", SEEDS)
def test_group_pair_sums_bit_identical_on_adversarial_tables(seed):
    """Pair sums equal the reference dict loop on every shape, mask and backend."""
    for label, table in _adversarial_tables(seed):
        rng = random.Random(seed * 1000 + len(table))
        for mask in _masks(rng, len(table)):
            for by in _PAIR_KEYS:
                reference = reference_group_pair_sums(table, by, "bytes_down", "bytes_up", mask)
                for backend in _backends():
                    kernels.set_backend(backend)
                    table._group_cache.clear()
                    got = table.group_pair_sums(by, "bytes_down", "bytes_up", mask=mask)
                    _assert_bit_identical(f"{label}/pairs/{by}/{backend}", reference, got)


def _masked_aggregations(table: FlowTable, by, mask):
    """Every masked grouped aggregation of one grouping, in comparable form."""
    distinct = table.group_distinct(by, "server_ip", mask=mask)
    return (
        table.group_sums(by, ("bytes_down", "bytes_up"), mask=mask),
        table.group_distinct_count(by, "subscriber_id", mask=mask),
        list(distinct.items()),
    )


def test_masked_python_calls_build_and_read_no_group_index():
    """On python, a masked aggregation groups the kept rows and leaves the cache alone."""
    kernels.set_backend(kernels.BACKEND_PYTHON)
    table = _adversarial_tables(0)[0][1]
    mask = bytearray(index % 2 for index in range(len(table)))
    table._group_cache.clear()

    def run():
        for by in _GROUPINGS:
            _masked_aggregations(table, by, mask)
        for by in _PAIR_KEYS:
            table.group_pair_sums(by, "bytes_down", "bytes_up", mask=mask)

    _result, counted = _counted(run, "flowtable.group_index")
    assert counted == {}
    assert table._group_cache == {}


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_masked_results_do_not_depend_on_a_built_index(seed):
    """A masked result is the same whether or not the grouping's index was built first."""
    for label, table in _adversarial_tables(seed):
        rng = random.Random(seed * 31 + len(table))
        masks = [mask for mask in _masks(rng, len(table)) if mask is not None]
        for backend in _backends():
            kernels.set_backend(backend)
            for by in _GROUPINGS:
                for mask in masks:
                    table._group_cache.clear()
                    without = _masked_aggregations(table, by, mask)
                    table.group_index(by)
                    with_index = _masked_aggregations(table, by, mask)
                    where = f"{label}/{by}/{backend}"
                    _assert_bit_identical(f"{where}/sums", without[0], with_index[0])
                    _assert_bit_identical(f"{where}/count", without[1], with_index[1])
                    assert without[2] == with_index[2], f"{where}/distinct"


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


def _builder_cases():
    """(label, table, key columns, numpy builder branches) reaching every branch.

    ``limit`` below is the builder's ``max(2 * rows, 2**16)``: integer key
    columns of a multi-column key with a radix in (64, limit] are relabeled
    to ranks, and key spans above ``limit`` are densified by ``np.unique``.
    """
    rng = random.Random(99)

    def flows(count, ports, subscribers, servers):
        return [
            make_flow(
                timestamp=datetime(2022, 3, 1) + timedelta(hours=rng.randrange(48)),
                subscriber_id=rng.randrange(-subscribers, subscribers),
                subscriber_prefix="p0",
                ip_version=4,
                provider_key=rng.choice(_PROVIDERS),
                server_ip="10.1.{}.{}".format(*divmod(rng.randrange(servers), 250)),
                server_continent="EU",
                server_region="eu-west-1",
                transport=rng.choice(_TRANSPORTS),
                port=rng.choice(ports),
                bytes_down=rng.uniform(-10, 1e4),
                bytes_up=1.0,
            )
            for _ in range(count)
        ]

    # Ports 80..61616: radix 61537 <= limit, relabeled in multi-column keys;
    # line ids -60..59 (negative keys): radix 120, relabeled too.
    ports = from_records(flows(300, (443, 8883, 1883, 5683, 61616, 80), 60, 30))
    # Ports -1..2**31-1: wider than limit, never relabeled.
    wide = from_records(flows(200, (443, -1, 2**31 - 1), 20, 30))
    one_row = from_records(flows(1, (443,), 5, 5))
    # A filtered table sharing pools far larger than 2 x its 12 rows: a
    # 600-entry provider pool (below limit) and a server pool above 2**16.
    padded = from_records(flows(240, (443, 8883), 60, 500))
    for value in range(600):
        padded.encode_value("provider_key", f"provider-{value}")
    for value in range(2**16 + 100):
        padded.encode_value("server_ip", f"pad-{value}")
    filtered = padded.select_mask(_every(len(padded), 20, start=3))
    assert len(filtered.pool("server_ip")) > max(2 * len(filtered), 2**16)
    return [
        ("ports", ports, ("provider_key", "port"), {"relabel"}),
        ("ports", ports, ("port", "subscriber_id"), {"relabel"}),
        ("ports", ports, ("port",), set()),
        ("ports", ports, ("provider_key", "transport", "subscriber_id"), {"relabel"}),
        ("negative", ports, ("subscriber_id",), set()),
        # 30 x 300 server pool x (120 line ids -> ranks) x 48 hours > limit.
        ("ports", ports, ("server_ip", "subscriber_id", "timestamp"), {"relabel", "densify"}),
        ("wide", wide, ("port",), {"densify"}),
        ("wide", wide, ("transport", "port", "subscriber_id"), {"densify"}),
        ("wide", wide, ("port", "provider_key"), {"densify"}),
        ("one-row", one_row, ("provider_key",), set()),
        ("one-row", one_row, ("port", "subscriber_id"), set()),
        ("one-row", one_row, ("timestamp", "provider_key", "port"), set()),
        ("filtered", filtered, ("provider_key",), set()),
        ("filtered", filtered, ("provider_key", "timestamp"), set()),
        ("filtered", filtered, ("server_ip",), {"densify"}),
        ("filtered", filtered, ("server_ip", "provider_key"), {"densify"}),
    ]


def _numpy_build_branches(monkeypatch, table, by):
    """Build the numpy index; return it with the builder branches it took."""
    from repro.flows import kernels_np

    taken = set()
    relabel, unique = kernels_np._relabel, kernels_np.np.unique

    def spy_relabel(*args):
        taken.add("relabel")
        return relabel(*args)

    def spy_unique(*args, **kwargs):
        taken.add("densify")
        return unique(*args, **kwargs)

    kernels.set_backend(kernels.BACKEND_NUMPY)
    with monkeypatch.context() as patched:
        patched.setattr(kernels_np, "_relabel", spy_relabel)
        patched.setattr(kernels_np.np, "unique", spy_unique)
        index = kernels.build_group_index(table, by)
    return index, taken


def test_sort_free_builder_matches_the_python_builder_on_every_branch(monkeypatch):
    """Relabel, direct and densify branches all give the python builder's index."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    for label, table, by, branches in _builder_cases():
        kernels.set_backend(kernels.BACKEND_PYTHON)
        expected = kernels.build_group_index(table, by)
        built, taken = _numpy_build_branches(monkeypatch, table, by)
        assert taken == branches, f"{label}/{by}: took {taken}"
        assert built.gids.tobytes() == expected.gids.tobytes(), f"{label}/{by}"
        assert built.group_keys == expected.group_keys, f"{label}/{by}"
        # Masked aggregations recover the reference first-appearance order.
        rng = random.Random(len(table))
        for mask in _masks(rng, len(table)):
            sums_ref = reference_group_sums(table, by, ("bytes_down",), mask)
            count_ref = reference_group_distinct_count(table, by, "server_ip", mask)
            distinct_ref = reference_group_distinct(table, by, "subscriber_id", mask)
            table._group_cache.clear()
            _assert_bit_identical(
                f"{label}/{by}/sums", sums_ref, table.group_sums(by, ("bytes_down",), mask=mask)
            )
            _assert_bit_identical(
                f"{label}/{by}/count",
                count_ref,
                table.group_distinct_count(by, "server_ip", mask=mask),
            )
            distinct = table.group_distinct(by, "subscriber_id", mask=mask)
            assert list(distinct) == list(distinct_ref) and distinct == distinct_ref


def test_pair_bitset_equals_np_unique_and_both_branches_agree(monkeypatch):
    """The bitset's marked cells are ``np.unique(pairs)``, its column sums the counts.

    Above ``_BITSET_SPAN_LIMIT`` (forced to 1 here) the distinct kernels sort
    with ``np.unique`` instead, with the reference kernels' results.
    """
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    from repro.flows import kernels_np

    np = kernels_np.np
    rng = random.Random(11)
    for count in (1, 3, 50):
        for members in ([0], [-5, -5, 2], [rng.randrange(-300, 300) for _ in range(500)]):
            gids = [rng.randrange(count) for _ in members]
            pairs = np.array(members, dtype=np.int64) * count + np.array(gids, dtype=np.int64)
            unique = np.unique(pairs)
            seen, base = kernels_np._pair_bitset(pairs, count)
            assert (np.flatnonzero(seen) + base).tolist() == unique.tolist()
            assert seen.sum(axis=0).tolist() == np.bincount(unique % count, minlength=count).tolist()
    assert kernels_np._pair_bitset(np.array([], dtype=np.int64), 3) is None
    kernels.set_backend(kernels.BACKEND_NUMPY)
    table = _adversarial_tables(0)[0][1]
    for limit in (kernels_np._BITSET_SPAN_LIMIT, 1):
        monkeypatch.setattr(kernels_np, "_BITSET_SPAN_LIMIT", limit)
        for mask in _masks(random.Random(limit), len(table)):
            for by in (("provider_key",), ("subscriber_id", "port")):
                distinct = table.group_distinct(by, "subscriber_id", mask=mask)
                expected = reference_group_distinct(table, by, "subscriber_id", mask)
                assert list(distinct) == list(expected) and distinct == expected
                assert table.group_distinct_count(by, "server_ip", mask=mask) == (
                    reference_group_distinct_count(table, by, "server_ip", mask)
                )
    assert kernels_np._pair_bitset(np.array([0, 5], dtype=np.int64), 3) is None


def _counted(run, prefix: str):
    """Run ``run()`` with metrics on; return (its result, new ``prefix`` counters)."""
    was_enabled = obs_metrics.enabled()
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    obs_metrics.enable()
    try:
        result = run()
        counters = {
            name: value
            for name, value in obs_metrics.registry().counters().items()
            if name.startswith(prefix)
        }
    finally:
        if not was_enabled:
            obs_metrics.disable()
        obs_metrics.set_registry(previous)
    return result, counters


def test_group_index_fallbacks_are_counted_by_reason():
    """Numpy builds handed to the python builder count their reason; no result moves."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    from repro.flows.kernels_np import GROUP_INDEX_FALLBACK_COUNTER as prefix

    table = _adversarial_tables(0)[0][1]
    wide = table.select_mask(_every(len(table), 1))
    for name in CATEGORICAL_COLUMNS:
        # Seven pools of 600+ entries: their mixed-radix span exceeds 2**63.
        for value in range(600):
            wide.encode_value(name, f"pad-{value}")
    overflow = dict(_adversarial_tables(0))["overflow-packets"]
    cases = (
        (table, ("provider_key", "transport"), None),
        (table, ("provider_key",), None),
        # Mixed categorical/integer keys pack into int64 like categorical ones.
        (table, ("provider_key", "subscriber_id"), None),
        (table, ("transport", "port"), None),
        (table, ("bytes_down",), "float_key"),
        (table, ("provider_key", "bytes_down"), "float_key"),
        (wide, CATEGORICAL_COLUMNS, "span_overflow"),
        # Packet counts span +-2**61: times the line-id radix, >= 2**63.
        (overflow, ("subscriber_id", "packets_down"), "span_overflow"),
    )
    for source, by, reason in cases:
        kernels.set_backend(kernels.BACKEND_PYTHON)
        expected = kernels.build_group_index(source, by)
        kernels.set_backend(kernels.BACKEND_NUMPY)
        built, counted = _counted(lambda: kernels.build_group_index(source, by), prefix)
        assert built.gids == expected.gids and built.group_keys == expected.group_keys
        assert counted == ({f"{prefix}.{reason}": 1.0} if reason else {}), by


@pytest.mark.parametrize("seed", SEEDS)
def test_totals_and_distinct_parity(seed):
    """Whole-table totals and distincts are bit-identical across backends."""
    for label, table in _adversarial_tables(seed):
        for name, _typecode in NUMERIC_COLUMNS:
            reference = reference_total(table, name)
            for backend in _backends():
                kernels.set_backend(backend)
                got = table.total(name)
                assert type(got) is type(reference), f"{label}/{name}/{backend}"
                assert _float_bits(got) == _float_bits(reference), (
                    f"{label}/{name}/{backend}"
                )
        for name in CATEGORICAL_COLUMNS + ("subscriber_id", "bytes_down"):
            reference = reference_distinct(table, name)
            for backend in _backends():
                kernels.set_backend(backend)
                assert table.distinct(name) == reference, f"{label}/{name}/{backend}"


def _flow(provider_key: str, bytes_down: float, hour: int = 0):
    return make_flow(
        timestamp=datetime(2022, 3, 1) + timedelta(hours=hour),
        subscriber_id=1,
        subscriber_prefix="p0",
        ip_version=4,
        provider_key=provider_key,
        server_ip="10.0.0.1",
        server_continent="EU",
        server_region="eu-west-1",
        transport="tcp",
        port=443,
        bytes_down=bytes_down,
        bytes_up=0.0,
    )


def test_float_totals_fold_left_to_right():
    """Ten rows of 0.1 total 0.9999999999999999 on every backend and interpreter.

    From Python 3.12 on, ``sum()`` compensates and gives 1.0, so a total
    built on it would differ by interpreter and from numpy's ``cumsum``.
    """
    table = from_records(_flow("amazon", 0.1, hour) for hour in range(10))
    for backend in _backends():
        kernels.set_backend(backend)
        assert table.total("bytes_down") == 0.9999999999999999, backend
    assert kernels.fold_sum([0.1] * 10) == 0.9999999999999999
    if sys.version_info >= (3, 12):
        assert sum([0.1] * 10) == 1.0


@pytest.mark.parametrize("masked", (False, True))
def test_leading_negative_zero_sums_to_positive_zero_on_every_backend(masked):
    """A group whose first contribution is -0.0 sums to +0.0, masked or not."""
    table = from_records(
        [_flow("amazon", -0.0), _flow("google", -0.0), _flow("bosch", 5.0), _flow("google", 2.5)]
    )
    mask = bytearray([1, 1, 0, 1]) if masked else None
    results = []
    for backend in _backends():
        kernels.set_backend(backend)
        table._group_cache.clear()
        got = table.group_sums(("provider_key",), ("bytes_down",), mask=mask)
        assert _float_bits(got["amazon"][0]) == _float_bits(0.0), backend
        assert got["google"] == [2.5], backend
        results.append(got)
    for got in results[1:]:
        _assert_bit_identical("leading -0.0", results[0], got)


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
    def via_append_columns(table, rng):
        _overflow_rows(table, rng, 3)

    def via_assign_numeric(table, rng):
        table.assign_numeric("bytes_down", [1.0] * len(table))

    return [
        ("append_columns", via_append_columns),
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
        table = from_records(
            _random_flow(rng, hours=5, subscribers=10) for _ in range(50)
        )
        stale = table.group_index(by)
        assert table.group_index(by) is stale, "unmutated cache must hit"
        mutate(table, rng)
        rebuilt = table.group_index(by)
        assert rebuilt is not stale, f"{mutator_name}: stale index reused"
        assert rebuilt.version == table._version
        fresh = from_records(table.to_records())
        _assert_bit_identical(
            f"{mutator_name}/{backend}",
            fresh.group_sums(by, ("bytes_down", "bytes_up")),
            table.group_sums(by, ("bytes_down", "bytes_up")),
        )
        assert table.group_distinct_count(by, "subscriber_id") == (
            fresh.group_distinct_count(by, "subscriber_id")
        )


def test_pool_growth_does_not_invalidate_the_cache():
    """encode_value touches no rows, so the cached index stays valid."""
    rng = random.Random(23)
    table = from_records(
        _random_flow(rng, hours=5, subscribers=10) for _ in range(40)
    )
    by = ("provider_key",)
    index = table.group_index(by)
    table.encode_value("provider_key", "never-seen-provider")
    assert table.group_index(by) is index, "pool growth alone must not invalidate"


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


# -- row kernels: filters, masks, export --------------------------------------------


def _lazy_copy(table: FlowTable, path: Path) -> FlowTable:
    """The table reloaded through the mmap read path (every column lazy)."""
    with open(path, "wb") as handle:
        dump_table(table, handle)
    return load_table_mmap(path)


def _row_tables(seed: int, tmp_path: Path):
    """Each adversarial table plus its lazy, mmap-backed copy."""
    for label, table in _adversarial_tables(seed):
        yield label, table
        yield f"{label}/mmap", _lazy_copy(table, tmp_path / f"{seed}-{label}.tbl")


def _row_masks(rng: random.Random, rows: int):
    yield bytearray(rows)  # all zero
    yield bytearray([1]) * rows  # all one
    yield bytearray(rng.randrange(4) for _ in range(rows))  # random, truthy != 1
    yield bytearray(index % 2 for index in range(rows))  # alternating


def _oracle_select(table: FlowTable, mask) -> FlowTable:
    """Naive per-row filter: copy row by row the rows whose entry is truthy."""
    rows = [index for index in range(len(table)) if mask[index]]
    kept = FlowTable()
    kept._pools = table._pools
    kept.append_columns(
        len(rows),
        codes={name: [table.codes(name)[row] for row in rows] for name in CATEGORICAL_COLUMNS},
        numeric={
            name: [table.numeric(name)[row] for row in rows] for name, _ in NUMERIC_COLUMNS
        },
    )
    return kept


def _lazy_columns(table: FlowTable):
    return [table.codes(name) for name in CATEGORICAL_COLUMNS] + [
        table.numeric(name) for name, _typecode in NUMERIC_COLUMNS
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_select_mask_matches_a_per_row_oracle(seed, tmp_path):
    """Every backend filters exactly the truthy rows, byte for byte."""
    for label, table in _row_tables(seed, tmp_path):
        rng = random.Random(seed * 7919 + len(table))
        for number, mask in enumerate(_row_masks(rng, len(table))):
            expected = _digest(_oracle_select(table, mask))
            for backend in _backends():
                kernels.set_backend(backend)
                got = table.select_mask(mask)
                assert len(got) == sum(1 for flag in mask if flag)
                assert _digest(got) == expected, f"{label}/mask{number}/{backend}"


def _expansions(table: FlowTable, rng: random.Random):
    """Each mask expansion of one table: (its call, the oracle's arguments).

    The oracle's per-code flags come from the predicate over the pool, not
    from the table's own ``_code_mask``.
    """

    def flags(name, predicate):
        return bytearray(1 if predicate(value) else 0 for value in table.pool(name))

    def in_providers(key):
        return key in ("amazon", "bosch")

    ips = table.pool("server_ip")
    allowed = set(ips[::2]) | {"192.0.2.1"}
    per_code = bytearray(rng.randrange(2) for _ in ips)
    base = bytearray(rng.randrange(3) for _ in range(len(table)))
    cases = [
        (
            lambda: table.mask_code("provider_key", in_providers),
            (table.codes("provider_key"), flags("provider_key", in_providers)),
        ),
        (
            lambda: table.mask_server_ips(allowed),
            (table.codes("server_ip"), flags("server_ip", allowed.__contains__)),
        ),
        (
            lambda: kernels.expand_code_mask(table.codes("server_ip"), per_code, base),
            (table.codes("server_ip"), per_code, base),
        ),
    ]
    days = sorted({ts.date() for ts in table.pool("timestamp")}) + [
        datetime(2030, 1, 1).date()
    ]
    for day in days:
        cases.append(
            (
                lambda day=day: table.mask_day(day),
                (table.codes("timestamp"), flags("timestamp", lambda ts: ts.date() == day)),
            )
        )
    return cases


def _row_mask_outputs(table: FlowTable):
    """Every other row mask and mask-built filter of one table, as comparable bytes."""
    lines = sorted(set(table.numeric("subscriber_id")))
    exclusions = [
        set(),
        set(lines[: len(lines) // 3]),
        {10**6, -(10**6), 2**70},  # unknown ids, one beyond int64
        {line for line in lines if line < 0} | {-1, -2},  # negative ids
    ]
    versions = table.numeric("ip_version")
    outputs = [kernels.not_in_mask(versions, {version}) for version in (4, 6, 5, 300)]
    outputs += [_digest(table.exclude_subscribers(excluded)) for excluded in exclusions]
    google = table.mask_code("provider_key", lambda key: key == "google")
    outputs += [
        _digest(table.select_mask(kernels.not_in_mask(versions, {4}))),
        _digest(table.select_mask(google)),
    ]
    for output in outputs:
        assert isinstance(output, (str, bytearray))
    return outputs


@pytest.mark.parametrize("seed", SEEDS)
def test_row_masks_are_byte_identical_across_backends(seed, tmp_path):
    """Expansions equal the per-row oracle; other masks equal the python backend's."""
    for label, table in _row_tables(seed, tmp_path):
        cases = _expansions(table, random.Random(seed))
        expected = [reference_expand_code_mask(*arguments) for _call, arguments in cases]
        results = {}
        for backend in _backends():
            kernels.set_backend(backend)
            for number, ((call, _arguments), oracle) in enumerate(zip(cases, expected)):
                got = call()
                assert type(got) is bytearray and got == oracle, (
                    f"{label}/expansion{number}/{backend}"
                )
            results[backend] = _row_mask_outputs(table)
        reference = results[kernels.BACKEND_PYTHON]
        for backend, outputs in results.items():
            assert outputs == reference, f"{label}/{backend}"


#: Pool sizes on both sides of every block boundary the byte path handles,
#: up to its last (8 blocks of 256) and one entry past it (the per-row path).
_POOL_SIZES = (1, 2, 255, 256, 257, 511, 512, 2048, 2049)


def _boundary_codes(pool_size: int, rng: random.Random) -> array:
    """Both codes around every block boundary of a pool, then random codes."""
    edges = {pool_size - 1}
    for start in range(256, pool_size, 256):
        edges |= {start - 1, start}
    codes = sorted(edges) + [rng.randrange(pool_size) for _ in range(600)]
    rng.shuffle(codes)
    return array("i", codes)


def _flag_tables(pool_size: int, rng: random.Random):
    """Per-code flags: bytes 0/1/2/255 with the second block all zero, and all zero."""
    flags = bytearray(rng.choice((0, 1, 2, 255)) for _ in range(pool_size))
    flags[256:512] = bytes(len(flags[256:512]))
    return [flags, bytes(flags), bytearray(pool_size)]


def _row_mask_kinds(rows: int, rng: random.Random):
    """No mask, 0/2/255 bytes as ``bytearray`` and as ``bytes``, and a bool list."""
    truthy = bytearray(rng.choice((0, 2, 255)) for _ in range(rows))
    return [None, truthy, bytes(truthy), [bool(flag) for flag in truthy]]


def _mapped_codes(codes: array, path: Path, checked: List[int]) -> LazyColumn:
    """``codes`` as a lazy column over an mmap'd file, counting its deferred check."""
    path.write_bytes(codes.tobytes())
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return LazyColumn("i", memoryview(mapped), validate=lambda _column: checked.append(1))


@pytest.mark.parametrize("pool_size", _POOL_SIZES)
@pytest.mark.parametrize("backend", _backends())
def test_expand_code_mask_matches_the_oracle_on_every_block_layout(backend, pool_size, tmp_path):
    """Every pool size, flag byte, mask kind and code storage gives the oracle's bytes."""
    kernels.set_backend(backend)
    rng = random.Random(pool_size)
    codes = _boundary_codes(pool_size, rng)
    checked: List[int] = []
    lazy = _mapped_codes(codes, tmp_path / "codes.bin", checked)
    for code_mask in _flag_tables(pool_size, rng):
        for mask in _row_mask_kinds(len(codes), rng):
            expected = reference_expand_code_mask(codes, code_mask, mask)
            for label, column in (("array", codes), ("mmap", lazy)):
                got = kernels.expand_code_mask(column, code_mask, mask)
                assert type(got) is bytearray and got == expected, (
                    f"{label}/{type(code_mask).__name__}/{type(mask).__name__}"
                )
        assert kernels.expand_code_mask(array("i"), code_mask) == bytearray()
        assert kernels.expand_code_mask(array("i"), code_mask, b"") == bytearray()
    assert checked == [1], "the lazy column's deferred check ran once, before any value"


@pytest.mark.parametrize("pool_size", (1, 300, 2048, 2049))
@pytest.mark.parametrize("backend", _backends())
def test_expand_code_mask_index_contract(backend, pool_size):
    """Past-the-end codes raise under any mask, negative codes count from the end,
    results are fresh."""
    kernels.set_backend(backend)
    code_mask = bytearray(range(pool_size)) if pool_size <= 256 else bytearray(
        index % 7 for index in range(pool_size)
    )
    code_mask[-1] = 9
    # Past the end, and codes with a non-zero byte only in the third or fourth
    # plane; a falsy mask entry on the bad code's row raises too.
    for bad in (pool_size, 2**16, 2**24, -(2**31)):
        for mask in (None, bytearray([1, 1]), bytearray([1, 0]), bytearray([0, 0])):
            with pytest.raises(IndexError):
                kernels.expand_code_mask(array("i", [0, bad]), code_mask, mask)
    assert kernels.expand_code_mask(array("i", [-1, 0]), code_mask) == bytearray(
        [9, code_mask[0]]
    )
    assert kernels.expand_code_mask(array("i", [-pool_size]), code_mask) == bytearray(
        code_mask[:1]
    )
    with pytest.raises(IndexError):
        kernels.expand_code_mask(array("i", [-pool_size - 1]), code_mask)
    codes, mask = array("i", [0, pool_size - 1]), bytearray([1, 3])
    before = (codes.tobytes(), bytes(code_mask), bytes(mask))
    for result in (
        kernels.expand_code_mask(codes, code_mask),
        kernels.expand_code_mask(codes, code_mask, mask),
    ):
        result[:] = b"\xee" * len(result)
    assert (codes.tobytes(), bytes(code_mask), bytes(mask)) == before


class _LookupSpy(bytearray):
    """Per-code flags that count the single-code lookups made through them."""

    lookups = 0

    def __getitem__(self, index):
        if isinstance(index, int):
            self.lookups += 1
        return super().__getitem__(index)


@pytest.mark.skipif(sys.byteorder != "little", reason="the byte path needs a little-endian host")
def test_expand_code_mask_takes_the_byte_path_up_to_eight_blocks(tmp_path):
    """The python backend expands int32 codes over 1..8 blocks without a per-row lookup."""
    kernels.set_backend(kernels.BACKEND_PYTHON)
    for pool_size in _POOL_SIZES:
        rng = random.Random(pool_size)
        codes = _boundary_codes(pool_size, rng)
        lazy = _mapped_codes(codes, tmp_path / f"{pool_size}.bin", [])
        code_mask = _LookupSpy(rng.randrange(2) for _ in range(pool_size))
        for mask in _row_mask_kinds(len(codes), rng):
            for column in (codes, lazy):
                code_mask.lookups = 0
                got = kernels.expand_code_mask(column, code_mask, mask)
                assert got == reference_expand_code_mask(codes, bytes(code_mask), mask)
                per_row = pool_size > 8 * 256 or isinstance(mask, list)
                assert (code_mask.lookups > 0) == per_row, (pool_size, type(mask).__name__)


def _planted_codes(bound: int) -> List[int]:
    """Codes to plant into an in-range column: the bound itself, both codes at
    every 256 edge up to 2**16, and codes set only in the upper byte planes."""
    edges = [code for start in range(256, 2**16 + 1, 256) for code in (start - 1, start)]
    return [-1, -(2**31), bound, 2**16, 2**24, 2**31 - 1] + edges


@pytest.mark.skipif(sys.byteorder != "little", reason="the byte planes need a little-endian host")
@pytest.mark.parametrize("bound", _POOL_SIZES + (0, 65535, 65536))
def test_codes_in_range_matches_min_max(bound):
    """The byte-plane range check gives the ``min``/``max`` verdict on every column."""

    def oracle(codes):
        return not codes or (min(codes) >= 0 and max(codes) < bound)

    rng = random.Random(bound)
    base = _boundary_codes(bound, rng) if bound else array("i")
    assert kernels.codes_in_range(array("i"), bound) is True
    assert kernels.codes_in_range(base, bound) is oracle(base) is True
    for planted in _planted_codes(bound):
        codes = array("i", base)
        codes.insert(rng.randrange(len(codes) + 1), planted)
        assert kernels.codes_in_range(codes, bound) is oracle(codes), planted


def test_codes_in_range_declines_what_it_cannot_read():
    """Other bounds, typecodes and sequences get ``None``: the caller checks them."""
    assert kernels.codes_in_range(array("i", [0]), 65537) is None
    assert kernels.codes_in_range(array("i", [0]), -1) is None
    for typecode in ("q", "b"):
        assert kernels.codes_in_range(array(typecode, [0, 1]), 2) is None
    assert kernels.codes_in_range([0, 1], 2) is None


@pytest.mark.parametrize("ratio", (1, 4))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_export_is_identical_across_backends(seed, ratio, tmp_path):
    for label, table in _row_tables(seed, tmp_path):
        digests = {}
        for backend in _backends():
            kernels.set_backend(backend)
            exported = NetFlowCollector(ratio).export_table(table, RngRegistry(seed))
            digests[backend] = _digest(exported)
        assert len(set(digests.values())) == 1, f"{label}/ratio{ratio}: {digests}"


def test_numpy_filters_read_lazy_columns_off_the_map(tmp_path):
    """Filters, masks and export never decode the source's lazy columns."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    kernels.set_backend(kernels.BACKEND_NUMPY)
    source = _adversarial_tables(3)[0][1]
    table = _lazy_copy(source, tmp_path / "lazy.tbl")
    mask = bytearray(random.Random(3).randrange(2) for _ in range(len(table)))

    def filters(table):
        return [
            table.select_mask(mask),
            table.select_mask(table.mask_day(datetime(2022, 3, 1).date())),
            table.select_mask(kernels.not_in_mask(table.numeric("ip_version"), {6})),
            table.select_mask(table.mask_server_ips({"10.0.0.3"})),
            table.exclude_subscribers({-3, 0, 5}),
            NetFlowCollector(1).export_table(table, RngRegistry(3)),
        ]

    filtered = filters(table)
    for column in _lazy_columns(table):
        assert isinstance(column, LazyColumn) and column._array is None
    kernels.set_backend(kernels.BACKEND_PYTHON)
    assert [_digest(result) for result in filtered] == [
        _digest(result) for result in filters(source)
    ]


@pytest.mark.parametrize("entries", (6, 14))
@pytest.mark.parametrize("backend", _backends())
def test_wrong_length_masks_raise(backend, entries):
    """A row mask must have one entry per row; compress() would cut the table."""
    kernels.set_backend(backend)
    base = _adversarial_tables(0)[0][1]
    table = base.select_mask(bytearray(index < 10 for index in range(len(base))))
    mask = bytearray([1]) * entries
    message = f"row mask has {entries} entries for 10 rows"
    with pytest.raises(ValueError, match=message):
        table.select_mask(mask)
    with pytest.raises(ValueError, match=message):
        table.group_sums(("provider_key",), ("bytes_down",), mask=mask)
    with pytest.raises(ValueError, match=message):
        table.group_distinct(("provider_key",), "server_ip", mask=mask)
    with pytest.raises(ValueError, match=message):
        table.group_distinct_count(("provider_key",), "server_ip", mask=mask)
    with pytest.raises(ValueError, match=message):
        kernels.expand_code_mask(table.codes("server_ip"), bytearray(64), mask)


def test_kernel_fallbacks_are_counted_by_reason():
    """Every numpy hand-off to python counts kernels.fallbacks.<kernel>.<reason>."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    from repro.flows.kernels_np import KERNEL_FALLBACK_COUNTER as prefix

    tables = dict(_adversarial_tables(0))
    base, overflow = tables["base"], tables["overflow-packets"]
    cases = (
        (lambda: overflow.group_sums(("provider_key",), ("packets_down",)),
         "group_sums.int64_overflow"),
        (lambda: overflow.total("packets_down"), "total.int64_overflow"),
        (lambda: base.group_distinct_count(("provider_key",), "bytes_down"),
         "group_distinct_count.float_member"),
        (lambda: base.group_distinct(("provider_key",), "bytes_down"),
         "group_distinct.float_member"),
        (lambda: base.distinct("bytes_down"), "distinct.float_member"),
        (lambda: kernels.not_in_mask(base.numeric("subscriber_id"), {1.0, 2}),
         "not_in_mask.value_type"),
        (lambda: _digest(base.select_mask(["x" if i % 3 else "" for i in range(len(base))])),
         "filter_rows.mask_type"),
        (lambda: base.group_sums(("provider_key",), ("bytes_down",), mask=[None] * len(base)),
         "group_sums.mask_type"),
    )
    for run, reason in cases:
        kernels.set_backend(kernels.BACKEND_PYTHON)
        expected = run()
        kernels.set_backend(kernels.BACKEND_NUMPY)
        got, counted = _counted(run, prefix)
        assert got == expected, reason
        assert counted == {f"{prefix}.{reason}": 1.0}, reason
    # The fast paths count nothing.
    kernels.set_backend(kernels.BACKEND_NUMPY)
    _result, counted = _counted(
        lambda: (
            base.group_sums(("provider_key", "port"), ("packets_down",)),
            base.exclude_subscribers({1, 2}),
            kernels.not_in_mask(base.numeric("ip_version"), {4}),
        ),
        "kernels.",
    )
    assert not [name for name in counted if "fallbacks" in name]


def test_cli_commands_record_no_kernel_fallback():
    """All ten CLI commands of small(7) run entirely on the numpy kernels."""
    if kernels.active_backend() != kernels.BACKEND_NUMPY:
        pytest.skip("numpy backend not active")
    from repro.cli import _COMMANDS
    from repro.experiments.context import build_context
    from repro.simulation.config import ScenarioConfig

    def run_all():
        context = build_context(ScenarioConfig.small(7), use_cache=False)
        return [command(context) for command in _COMMANDS.values()]

    outputs, counted = _counted(run_all, "kernels.")
    assert len(outputs) == 10
    assert not [name for name in counted if "fallbacks" in name], counted


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
import math
import random

from repro.core.disruption import GROUP_ALL, GROUP_EU, GROUP_US_EAST, outage_impact
from repro.core.traffic import ScannerExclusion
from repro.flows import kernels
from repro.flows.flowtable import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS, FlowTable

expected = "python" if "--block-numpy" in sys.argv else kernels.active_backend()
if "--block-numpy" in sys.argv:
    assert not kernels.numpy_available(), "numpy import was not blocked"
assert kernels.active_backend() == expected

rng = random.Random(4)
table = FlowTable()
codes = {name: [] for name in CATEGORICAL_COLUMNS}
numeric = {name: [] for name, _typecode in NUMERIC_COLUMNS}
for _ in range(400):
    row = {
        "timestamp": datetime(2021, 12, 5) + timedelta(hours=rng.randrange(72)),
        "subscriber_id": rng.randrange(40),
        "provider_key": rng.choice(("amazon", "google")),
        "server_ip": "10.0.0.%d" % rng.randrange(1, 30),
        "server_continent": rng.choice(("EU", "NA")),
        "server_region": rng.choice(("us-east-1", "eu-west-1")),
        "bytes_down": rng.uniform(10, 1e6),
        "bytes_up": rng.uniform(1, 1e4),
    }
    row.update(subscriber_prefix="p0", ip_version=4, transport="tcp", port=8883, sampled=0)
    row["packets_down"] = math.ceil(row["bytes_down"] / 900)
    row["packets_up"] = math.ceil(row["bytes_up"] / 900)
    for name, values in codes.items():
        values.append(table.encode_value(name, row[name]))
    for name, values in numeric.items():
        values.append(row[name])
table.append_columns(400, codes, numeric)
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
        [sys.executable, "-B", str(script), *args],
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
