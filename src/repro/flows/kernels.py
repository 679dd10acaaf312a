"""Pluggable row and grouped-aggregation kernels for :class:`~repro.flows.flowtable.FlowTable`.

The Section 5 analyses (traffic shares, distinct-destination footprints,
outage deltas) all reduce to row filters, row masks and grouped aggregations
over period flow tables.  This module turns them into a kernel layer with
interchangeable implementations:

* **Reference kernels** -- the original dict-per-metric loops, the semantic
  ground truth both backends are differentially fuzzed against.  Nothing in
  the program calls them, so they live with that harness
  (``reference_*`` in ``tests/test_kernel_parity.py``).
* **Fused pure-python kernels** -- a :class:`GroupIndex` maps every row to a
  dense group id once per ``(table, key columns)`` pair; aggregations then
  run a single traversal accumulating into flat lists indexed by group id,
  skipping both the per-call packed-key build and the per-row dict probes.
* **Numpy kernels** (:mod:`repro.flows.kernels_np`, import-guarded) -- the
  same contracts on ``bincount``/``unique``; selected automatically when
  numpy is importable.  Columns loaded zero-copy from an mmap'd store
  artifact (:class:`~repro.flows.flowtable.LazyColumn`) feed these kernels
  straight off the map via ``np.frombuffer``; the python kernels decode such
  a column into an ``array`` on first touch instead.

**Row kernels** follow the same contract: :func:`filter_rows` (behind
``FlowTable.select_mask`` and every ``where_*`` filter, scanner exclusion and
NetFlow export) and four mask builders -- :func:`expand_code_mask` (a
per-pool-entry mask expanded over a code column, optionally AND-ed with a row
mask), :func:`equal_mask`, :func:`not_in_mask` and :func:`nonzero_mask`.  Each
python path is the original per-row loop; the numpy kernel returns
``NotImplemented`` for anything it cannot reproduce byte for byte.  Row masks
must have one entry per row: the dispatchers raise ``ValueError`` naming both
lengths instead of letting ``compress`` silently cut the table to the mask.

Backend selection: ``IOT_REPRO_KERNELS=python|numpy`` forces a backend,
:func:`set_backend` overrides it in-process (tests, benchmarks), and with
neither set the numpy backend is auto-detected.  All backends are
**bit-identical**: float group sums accumulate in row order on every path
(numpy ``bincount`` is a sequential loop), integer sums that could overflow
an int64 accumulator fall back to the python kernels (exact arbitrary
precision), and result dicts preserve the first-appearance key order of the
reference implementation.  The one documented exception: a group whose
*first* contribution is ``-0.0`` keeps the sign bit on the python paths but
not under numpy (``bincount`` starts from ``+0.0``).

The :class:`GroupIndex` cache lives on the table (``FlowTable.group_index``)
and is invalidated by a mutation counter bumped by every mutating primitive
(``extend``/``append_columns``/``extend_table``/``truncate``/
``assign_numeric``); pool growth alone (``encode_value``, sibling tables
sharing pools) does not change any row and deliberately does not invalidate.
"""

from __future__ import annotations

import os
from array import array
from itertools import compress
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.flows.flowtable import FlowTable, GroupKey

#: Environment variable forcing a kernel backend (``python`` or ``numpy``).
KERNELS_ENV_VAR = "IOT_REPRO_KERNELS"

BACKEND_PYTHON = "python"
BACKEND_NUMPY = "numpy"

#: Conservative magnitude bound for int64 accumulation: when
#: ``max(|value|) * rows`` could reach 2**62 the numpy integer kernels defer
#: to the python paths, whose arbitrary-precision ints cannot overflow.
INT64_SAFE_LIMIT = 2**62

_UNSET = object()
_np_kernels = _UNSET
_backend_override: Optional[str] = None


def _numpy_kernels():
    """The numpy kernel module, or ``None`` when numpy is not importable."""
    global _np_kernels
    if _np_kernels is _UNSET:
        try:
            from repro.flows import kernels_np
        except ImportError:
            _np_kernels = None
        else:
            _np_kernels = kernels_np
    return _np_kernels


def numpy_available() -> bool:
    """True when the numpy backend can be used in this interpreter."""
    return _numpy_kernels() is not None


def set_backend(backend: Optional[str]) -> None:
    """Force a kernel backend in-process (``None`` restores auto-detection).

    Takes precedence over ``IOT_REPRO_KERNELS``.  Requesting ``numpy`` in an
    interpreter without numpy raises immediately instead of silently running
    the python kernels, so benchmarks and tests cannot mis-report a backend.
    """
    if backend not in (None, BACKEND_PYTHON, BACKEND_NUMPY):
        raise ValueError(f"unknown kernel backend {backend!r}")
    if backend == BACKEND_NUMPY and not numpy_available():
        raise RuntimeError("kernel backend 'numpy' requested but numpy is not importable")
    global _backend_override
    _backend_override = backend


def active_backend() -> str:
    """The kernel backend aggregations will dispatch to right now."""
    if _backend_override is not None:
        return _backend_override
    env = os.environ.get(KERNELS_ENV_VAR, "").strip().lower()
    if env:
        if env not in (BACKEND_PYTHON, BACKEND_NUMPY):
            raise ValueError(f"{KERNELS_ENV_VAR}={env!r}: expected 'python' or 'numpy'")
        if env == BACKEND_NUMPY and not numpy_available():
            raise RuntimeError(f"{KERNELS_ENV_VAR}=numpy but numpy is not importable")
        return env
    return BACKEND_NUMPY if numpy_available() else BACKEND_PYTHON


def _use_numpy() -> bool:
    return active_backend() == BACKEND_NUMPY


# ---------------------------------------------------------------------------------
# Group index
# ---------------------------------------------------------------------------------


class GroupIndex:
    """The grouping permutation of one ``(table, key columns)`` pair.

    ``gids[row]`` is a dense group id in first-appearance order;
    ``group_keys[gid]`` is the decoded group key (bare value for one key
    column, tuple for several) -- exactly the dict keys, in exactly the
    insertion order, the reference kernels produce.  The index is
    mask-independent (masks subset rows at aggregation time) and is computed
    once per table revision: ``version`` snapshots the owning table's
    mutation counter so any row mutation makes the cached index unusable.
    """

    __slots__ = ("by", "version", "gids", "group_keys", "_gids_np")

    def __init__(self, by: Tuple[str, ...], version: int, gids: array, group_keys: List["GroupKey"]) -> None:
        self.by = by
        self.version = version
        self.gids = gids
        self.group_keys = group_keys
        self._gids_np = None

    def __len__(self) -> int:
        return len(self.group_keys)

    def gids_numpy(self):
        """The row->group-id mapping as an int64 numpy view (lazily cached)."""
        if self._gids_np is None:
            import numpy

            self._gids_np = numpy.frombuffer(self.gids, dtype=numpy.int64)
        return self._gids_np


def build_group_index(table: "FlowTable", by: Tuple[str, ...]) -> GroupIndex:
    """Build the dense grouping of a table over the given key columns.

    The numpy builder is used when the active backend is numpy and the key
    columns pack into one int64 (any mix of categorical and integer columns
    whose mixed-radix span stays below 2**63); both builders produce
    identical indexes, which the parity harness asserts.
    """
    version = table._version
    if _use_numpy():
        built = _numpy_kernels().build_group_index(table, by)
        if built is not NotImplemented:
            gids, group_keys = built
            return GroupIndex(by, version, gids, group_keys)
    keys, decode = table._group_codes(by)
    gid_of: Dict[object, int] = {}
    gids = array("q")
    append = gids.append
    for key in keys:
        gid = gid_of.get(key)
        if gid is None:
            gid = gid_of[key] = len(gid_of)
        append(gid)
    return GroupIndex(by, version, gids, [decode(key) for key in gid_of])


# ---------------------------------------------------------------------------------
# Dispatchers (called by FlowTable, NetFlow export and the Section 5-6 analyses)
# ---------------------------------------------------------------------------------


def _check_mask(mask: Optional[Sequence[int]], rows: int) -> None:
    """Reject a row mask whose length differs from the row count."""
    if mask is not None and len(mask) != rows:
        raise ValueError(f"row mask has {len(mask)} entries for {rows} rows")


def filter_rows(columns: Sequence[Sequence], mask: Sequence[int]) -> List[array]:
    """The rows of every column whose mask entry is truthy, as new arrays.

    ``columns`` are one table's ``array``/lazy columns (equal lengths).
    """
    _check_mask(mask, len(columns[0]))
    if _use_numpy():
        result = _numpy_kernels().filter_rows(columns, mask)
        if result is not NotImplemented:
            return result
    return [array(column.typecode, compress(column, mask)) for column in columns]


def expand_code_mask(
    codes: Sequence[int], code_mask: bytearray, mask: Optional[Sequence[int]] = None
) -> bytearray:
    """Row mask ``code_mask[code]`` of a code column, AND-ed with ``mask``.

    ``code_mask`` holds one flag per pool entry, so a predicate runs once per
    distinct value; the result is a fresh row mask.  With ``mask`` every row
    becomes ``1`` when both its mask entry and its code flag are truthy.
    """
    _check_mask(mask, len(codes))
    if _use_numpy():
        result = _numpy_kernels().expand_code_mask(codes, code_mask, mask)
        if result is not NotImplemented:
            return result
    if mask is None:
        return bytearray(map(code_mask.__getitem__, codes))
    return bytearray(1 if keep and code_mask[code] else 0 for keep, code in zip(mask, codes))


def equal_mask(column: Sequence, value: object) -> bytearray:
    """Row mask of a numeric column equal to ``value``."""
    if _use_numpy():
        result = _numpy_kernels().equal_mask(column, value)
        if result is not NotImplemented:
            return result
    return bytearray(1 if item == value else 0 for item in column)


def not_in_mask(column: Sequence, values: Set[object]) -> bytearray:
    """Row mask of a numeric column whose value is not in ``values``."""
    if _use_numpy():
        result = _numpy_kernels().not_in_mask(column, values)
        if result is not NotImplemented:
            return result
    return bytearray(0 if item in values else 1 for item in column)


def nonzero_mask(first: Sequence, second: Sequence) -> bytearray:
    """Row mask of rows where either of two equal-length columns is truthy."""
    if len(first) != len(second):
        raise ValueError(f"columns of {len(first)} and {len(second)} rows")
    if _use_numpy():
        result = _numpy_kernels().nonzero_mask(first, second)
        if result is not NotImplemented:
            return result
    return bytearray(1 if a or b else 0 for a, b in zip(first, second))


def group_sums(
    table: "FlowTable",
    by: Sequence[str],
    values: Sequence[str],
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", List[float]]:
    """Sum numeric columns per group key on the active backend."""
    _check_mask(mask, len(table))
    index = table.group_index(by)
    columns = [table.numeric(name) for name in values]
    if _use_numpy():
        result = _numpy_kernels().group_sums(index, columns, mask)
        if result is not NotImplemented:
            return result
    return fused_group_sums(index, columns, mask)


def group_distinct_count(
    table: "FlowTable",
    by: Sequence[str],
    of: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", int]:
    """Count distinct values of one column per group key on the active backend."""
    _check_mask(mask, len(table))
    index = table.group_index(by)
    members, _pool = table._key_column(of)
    if _use_numpy():
        result = _numpy_kernels().group_distinct_count(index, members, mask)
        if result is not NotImplemented:
            return result
    return fused_group_distinct_count(index, members, mask)


def group_distinct(
    table: "FlowTable",
    by: Sequence[str],
    of: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", Set[object]]:
    """Distinct values of one column per group key on the active backend."""
    _check_mask(mask, len(table))
    index = table.group_index(by)
    members, pool = table._key_column(of)
    if _use_numpy():
        result = _numpy_kernels().group_distinct(index, members, pool, mask)
        if result is not NotImplemented:
            return result
    return fused_group_distinct(index, members, pool, mask)


def total(table: "FlowTable", value: str) -> float:
    """Sum one numeric column over all rows on the active backend."""
    column = table.numeric(value)
    if _use_numpy():
        result = _numpy_kernels().total(column)
        if result is not NotImplemented:
            return result
    return sum(column)


def distinct(table: "FlowTable", name: str) -> Set[object]:
    """Distinct values of one column across the whole table."""
    if table.is_categorical(name):
        pool = table.pool(name)
        codes = table.codes(name)
        if _use_numpy():
            result = _numpy_kernels().distinct_codes(codes)
            if result is not NotImplemented:
                return {pool[code] for code in result}
        return {pool[code] for code in set(codes)}
    column = table.numeric(name)
    if _use_numpy():
        result = _numpy_kernels().distinct_values(column)
        if result is not NotImplemented:
            return result
    return set(column)


# ---------------------------------------------------------------------------------
# Fused pure-python kernels
# ---------------------------------------------------------------------------------


def fused_group_sums(
    index: GroupIndex, columns: Sequence[Sequence], mask: Optional[Sequence[int]]
) -> Dict["GroupKey", List[float]]:
    """One traversal over dense group ids, accumulating into flat lists.

    Initializing accumulators with integer ``0`` reproduces the reference
    semantics bit for bit: ``0 + v`` adopts the first value unchanged
    (including a ``-0.0`` sign bit) and keeps integer sums exact at arbitrary
    precision.
    """
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    gids: Sequence[int] = index.gids
    if mask is None:
        if len(columns) == 1:
            sums = [0] * count
            for gid, value in zip(gids, columns[0]):
                sums[gid] += value
            return {key: [value] for key, value in zip(group_keys, sums)}
        if len(columns) == 2:
            first, second = columns
            sums_a = [0] * count
            sums_b = [0] * count
            for gid, value_a, value_b in zip(gids, first, second):
                sums_a[gid] += value_a
                sums_b[gid] += value_b
            return {
                key: [value_a, value_b]
                for key, value_a, value_b in zip(group_keys, sums_a, sums_b)
            }
        buckets = [[0] * len(columns) for _ in range(count)]
        for gid, row in zip(gids, zip(*columns)):
            bucket = buckets[gid]
            for position, value in enumerate(row):
                bucket[position] += value
        return dict(zip(group_keys, buckets))
    # Masked: only groups with surviving rows appear, in masked
    # first-appearance order (the reference dict-insertion order).
    slots: List[Optional[List[float]]] = [None] * count
    order: List[int] = []
    push = order.append
    rows = zip(compress(gids, mask), *(compress(column, mask) for column in columns))
    for gid, *row in rows:
        bucket = slots[gid]
        if bucket is None:
            slots[gid] = list(row)
            push(gid)
        else:
            for position, value in enumerate(row):
                bucket[position] += value
    return {group_keys[gid]: slots[gid] for gid in order}


def fused_group_distinct_count(
    index: GroupIndex, members: Sequence, mask: Optional[Sequence[int]]
) -> Dict["GroupKey", int]:
    """Distinct-count via per-group set buckets indexed by dense group id.

    The dense-id list lookup replaces the reference path's packed-key dict
    probe on every row, which is where the original loop spent its time.
    """
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    gids: Sequence[int] = index.gids
    if mask is not None:
        gids = compress(gids, mask)
        members = compress(members, mask)
    slots, order = _member_sets_from(gids, members, count)
    return {group_keys[gid]: len(slots[gid]) for gid in order}


def fused_group_distinct(
    index: GroupIndex,
    members: Sequence,
    pool: Optional[List[object]],
    mask: Optional[Sequence[int]],
) -> Dict["GroupKey", Set[object]]:
    """Per-group sets of decoded member values."""
    if not index.group_keys:
        return {}
    gids: Sequence[int] = index.gids
    if mask is not None:
        gids = compress(gids, mask)
        members = compress(members, mask)
    slots, order = _member_sets_from(gids, members, len(index.group_keys))
    group_keys = index.group_keys
    if pool is None:
        return {group_keys[gid]: slots[gid] for gid in order}
    return {
        group_keys[gid]: {pool[member] for member in slots[gid]} for gid in order
    }


def _member_sets_from(
    gids, members, count: int
) -> Tuple[List[Optional[Set]], List[int]]:
    slots: List[Optional[Set]] = [None] * count
    order: List[int] = []
    push = order.append
    for gid, member in zip(gids, members):
        bucket = slots[gid]
        if bucket is None:
            slots[gid] = {member}
            push(gid)
        else:
            bucket.add(member)
    return slots, order
