"""Pluggable row and grouped-aggregation kernels for :class:`~repro.flows.flowtable.FlowTable`.

The Section 5 analyses (traffic shares, distinct-destination footprints,
outage deltas) all reduce to row filters, row masks and grouped aggregations
over period flow tables.  This module turns them into a kernel layer with
interchangeable implementations:

* **Reference kernels** -- the original dict-per-metric loops, the semantic
  ground truth both backends are differentially fuzzed against.  Nothing in
  the program calls them, so they live with that harness
  (``reference_*`` in ``tests/test_kernel_parity.py``).
* **Pure-python kernels** -- an unmasked call reads a :class:`GroupIndex`,
  which maps every row to a dense group id once per ``(table, key columns)``
  pair, and runs a single traversal accumulating into flat lists indexed by
  group id (``fused_*``), skipping both the per-call packed-key build and the
  per-row dict probes.  A masked call groups only the rows its mask keeps:
  key, value and member columns are compressed to the kept rows, the keys
  packed (``FlowTable._group_codes``), and one dict pass accumulates per
  packed key in masked first-appearance order (``masked_group_sums`` and the
  member-set pass).  It never builds, reads or caches a :class:`GroupIndex`,
  so a mask keeping a fraction of a week's rows costs that fraction.
* **Numpy kernels** (:mod:`repro.flows.kernels_np`, import-guarded) -- the
  same contracts on ``bincount``/``unique``; selected automatically when
  numpy is importable.  Columns loaded zero-copy from an mmap'd store
  artifact (:class:`~repro.flows.flowtable.LazyColumn`) feed these kernels
  straight off the map via ``np.frombuffer``; the python kernels decode such
  a column into an ``array`` on first touch instead.

**Row kernels** follow the same contract: :func:`filter_rows` (behind
``FlowTable.select_mask``, scanner exclusion and NetFlow export) and three
mask builders -- :func:`expand_code_mask` (a per-pool-entry mask expanded
over a code column, optionally AND-ed with a row mask), :func:`not_in_mask`
and :func:`nonzero_mask`.  The python :func:`expand_code_mask` runs in
C-level byte operations: it translates the low-byte plane of the codes
through each 256-entry block of flags (``bytes.translate``), keeps each
block's bytes where the codes' second byte names that block, and ANDs a row
mask in as one integer ``&``.  It takes that path for ``array('i')`` codes on
a little-endian host, ``bytes``/``bytearray`` flags and mask, at most
:data:`_MAX_BYTE_BLOCKS` blocks and every code in range, which
:func:`codes_in_range` checks on the same byte planes (the store codec's
code-range check calls it too); any other input runs the per-row lookup, the
only path for it.  The other python row kernels are the original loops
(``compress`` for the filter); the numpy kernel returns ``NotImplemented``
for anything it cannot reproduce byte for byte.  Row masks must have one
entry per row: the dispatchers raise ``ValueError`` naming both lengths
instead of letting ``compress`` silently cut the table to the mask.

Backend selection: ``IOT_REPRO_KERNELS=python|numpy`` forces a backend,
:func:`set_backend` overrides it in-process (tests, benchmarks), and with
neither set the numpy backend is auto-detected.  All backends are
**bit-identical**: float group sums accumulate in row order on every path
(numpy ``bincount`` is a sequential loop), integer sums that could overflow
an int64 accumulator fall back to the python kernels (exact arbitrary
precision), and result dicts preserve the first-appearance key order of the
reference implementation.  Every production path starts a group's sum from
zero (``0 + -0.0`` is ``+0.0``, and ``bincount`` starts from ``+0.0``), so a
group whose *first* contribution is ``-0.0`` sums to ``+0.0`` on both
backends; only the reference kernels of the parity harness keep that sign.

The :class:`GroupIndex` cache lives on the table (``FlowTable.group_index``)
and is invalidated by a mutation counter bumped by every mutating primitive
(``append_columns``/``assign_numeric``); pool growth alone (``encode_value``,
sibling tables sharing pools) does not change any row and deliberately does
not invalidate.  The numpy kernels take the index for
masked and unmasked calls alike; each dispatcher fetches it inside its numpy
branch, so the python backend asks for it only for unmasked calls.
"""

from __future__ import annotations

import os
import sys
from array import array
from functools import reduce
from itertools import compress
from operator import add
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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

#: Most 256-entry pool blocks the byte path of :func:`expand_code_mask`
#: takes.  Each block with a set flag costs two ``bytes.translate`` and two
#: ``int.from_bytes`` passes over the rows, so the byte path slows with the
#: block count while the per-row lookup does not.  Over 160,000 random codes
#: (2-CPU x86-64 Xeon, CPython 3.11, best of 3 runs of minimum-of-15) the
#: byte path took 0.9, 3.1, 4.2, 7.2, 12.0 and 20.9 ms at 1, 2, 4, 8, 16 and
#: 32 blocks, the lookup 10-13 ms at every size: the crossover lies near 16
#: blocks, and 8 keeps a margin of about 1.7x.
_MAX_BYTE_BLOCKS = 8

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Every byte value in order: ``_BYTE_VALUES[:n]`` holds the bytes below ``n``.
_BYTE_VALUES = bytes(range(256))

#: ``bytes.translate`` table mapping every non-zero byte to 1.
_TRUTH = b"\x00" + b"\x01" * 255

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
    mask-independent (the numpy kernels subset rows at aggregation time;
    masked python calls group the kept rows without it) and is computed
    once per table revision: ``version`` snapshots the owning table's
    mutation counter so any row mutation makes the cached index unusable.
    """

    __slots__ = ("version", "gids", "group_keys", "_gids_np")

    def __init__(self, version: int, gids: array, group_keys: List["GroupKey"]) -> None:
        self.version = version
        self.gids = gids
        self.group_keys = group_keys
        self._gids_np = None

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
            return GroupIndex(version, gids, group_keys)
    keys, decode = table._group_codes(by)
    gid_of: Dict[object, int] = {}
    gids = array("q")
    append = gids.append
    for key in keys:
        gid = gid_of.get(key)
        if gid is None:
            gid = gid_of[key] = len(gid_of)
        append(gid)
    return GroupIndex(version, gids, [decode(key) for key in gid_of])


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
    distinct value; the result is a fresh row mask.  Unmasked, each row holds
    its code's flag byte as given; with ``mask`` every row becomes ``1`` when
    both its mask entry and its code flag are truthy, else ``0``.

    The python path expands bytes in C (:func:`_expand_bytes`) when the codes
    are a 4-byte ``array('i')`` (a lazy column is materialized first, which
    runs its code-range check) on a little-endian host, ``code_mask`` and
    ``mask`` are ``bytes``/``bytearray``, the pool spans 1 to
    :data:`_MAX_BYTE_BLOCKS` blocks of 256 entries and every code lies in
    ``[0, len(code_mask))``.  Any other input runs the per-row lookup, so a
    negative code still counts from the end and a code past the pool still
    raises ``IndexError``, whatever its row's mask entry, on either backend.
    """
    _check_mask(mask, len(codes))
    if _use_numpy():
        result = _numpy_kernels().expand_code_mask(codes, code_mask, mask)
        if result is not NotImplemented:
            return result
    result = _expand_bytes(codes, code_mask, mask)
    if result is not None:
        return result
    if mask is None:
        return bytearray(map(code_mask.__getitem__, codes))
    # Every code is looked up, whatever its mask entry, so an out-of-pool
    # code raises here as it does on numpy.
    return bytearray(1 if code_mask[code] and keep else 0 for keep, code in zip(mask, codes))


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
    columns = [table.numeric(name) for name in values]
    if _use_numpy():
        result = _numpy_kernels().group_sums(table.group_index(by), columns, mask)
        if result is not NotImplemented:
            return result
    if mask is not None:
        return masked_group_sums(table, by, columns, mask)
    return fused_group_sums(table.group_index(by), columns)


def group_pair_sums(
    table: "FlowTable",
    by: str,
    first: str,
    second: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict[object, float]:
    """Per value of column ``by``, the row-order sum of ``first + second``.

    Each row adds its two columns; each value of ``by`` adds its rows'
    totals in row order from ``0.0``, keyed in (masked) first-appearance
    order.  numpy selects the masked rows, adds them and runs ``bincount``;
    python compresses the three columns to the masked rows and runs one loop
    over them.  Both give the same floats.
    """
    _check_mask(mask, len(table))
    left, right = table.numeric(first), table.numeric(second)
    if _use_numpy():
        result = _numpy_kernels().group_pair_sums(table.group_index((by,)), left, right, mask)
        if result is not NotImplemented:
            return result
    members, pool = table._key_column(by)
    if mask is not None:
        members, left, right = (compress(column, mask) for column in (members, left, right))
    sums: Dict[object, float] = {}
    for member, a, b in zip(members, left, right):
        sums[member] = sums.get(member, 0.0) + (a + b)
    return sums if pool is None else {pool[member]: total for member, total in sums.items()}


def group_distinct_count(
    table: "FlowTable",
    by: Sequence[str],
    of: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", int]:
    """Count distinct values of one column per group key on the active backend."""
    _check_mask(mask, len(table))
    members, _pool = table._key_column(of)
    if _use_numpy():
        result = _numpy_kernels().group_distinct_count(table.group_index(by), members, mask)
        if result is not NotImplemented:
            return result
    if mask is not None:
        sets, decode = _masked_member_sets(table, by, members, mask)
        return {decode(key): len(bucket) for key, bucket in sets.items()}
    return fused_group_distinct_count(table.group_index(by), members)


def group_distinct(
    table: "FlowTable",
    by: Sequence[str],
    of: str,
    mask: Optional[Sequence[int]] = None,
) -> Dict["GroupKey", Set[object]]:
    """Distinct values of one column per group key on the active backend."""
    _check_mask(mask, len(table))
    members, pool = table._key_column(of)
    if _use_numpy():
        result = _numpy_kernels().group_distinct(table.group_index(by), members, pool, mask)
        if result is not NotImplemented:
            return result
    if mask is not None:
        sets, decode = _masked_member_sets(table, by, members, mask)
        return _decoded_sets(((decode(key), bucket) for key, bucket in sets.items()), pool)
    return fused_group_distinct(table.group_index(by), members, pool)


def fold_sum(values: Iterable[float]) -> float:
    """Add ``values`` strictly left to right, starting from the integer 0.

    This is ``sum()`` up to Python 3.11.  From 3.12 on, ``sum()`` adds floats
    with compensated summation, which changes the last bits of a total, while
    numpy's ``cumsum`` adds left to right.  Every float total that feeds an
    output goes through this fold, so it is the same on every interpreter and
    kernel backend.  Integers add exactly either way.
    """
    return reduce(add, values, 0)


def total(table: "FlowTable", value: str) -> float:
    """Sum one numeric column over all rows on the active backend."""
    column = table.numeric(value)
    if _use_numpy():
        result = _numpy_kernels().total(column)
        if result is not NotImplemented:
            return result
    return fold_sum(column)


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
# Pure-python kernels
# ---------------------------------------------------------------------------------


def _expand_bytes(
    codes: Sequence[int], code_mask: bytearray, mask: Optional[Sequence[int]]
) -> Optional[bytearray]:
    """The python :func:`expand_code_mask` in C-level byte operations.

    ``None`` unless every condition :func:`expand_code_mask` lists holds; the
    codes are range-checked on the byte planes this expansion reuses
    (:func:`_checked_planes`, as :func:`codes_in_range`).  A little-endian
    ``int32`` code is four byte planes: the low byte indexes a block of 256
    flags and the second names the block.  A block's expansion is one
    ``translate`` of the low plane, kept, as a little-endian int, where the
    second plane names the block.
    """
    if not (
        isinstance(code_mask, (bytes, bytearray))
        and (mask is None or isinstance(mask, (bytes, bytearray)))
    ):
        return None
    blocks = -(-len(code_mask) // 256)
    if not 1 <= blocks <= _MAX_BYTE_BLOCKS:
        return None
    materialize = getattr(codes, "materialize", None)  # a LazyColumn: decode and check
    if materialize is not None:
        codes = materialize()
    checked = _checked_planes(codes, len(code_mask))
    if checked is None or not checked[0]:
        return None  # not int32 codes on a little-endian host, or a code outside the pool
    _in_range, low, high, last_rows = checked
    flags = code_mask if mask is None else code_mask.translate(_TRUTH)
    if blocks == 1:
        expanded = low.translate(flags.ljust(256, b"\x00"))
        if mask is None:
            return bytearray(expanded)
        result = int.from_bytes(expanded, "little")
    else:
        result = 0
        for block in range(blocks):
            table = flags[256 * block : 256 * (block + 1)]
            if any(table):
                expanded = low.translate(table.ljust(256, b"\x00"))
                reuse = block == blocks - 1 and last_rows is not None
                rows = last_rows if reuse else _rows_in_block(high, block)
                result |= int.from_bytes(expanded, "little") & rows
    if mask is not None:
        result &= int.from_bytes(mask.translate(_TRUTH), "little")
    return bytearray(result.to_bytes(len(codes), "little"))


def codes_in_range(codes: Sequence[int], bound: int) -> Optional[bool]:
    """Whether every code lies in ``[0, bound)``, tested on byte planes in C.

    ``None`` unless ``codes`` is a 4-byte ``array('i')`` on a little-endian
    host and ``0 <= bound <= 65536``: the caller then checks another way.  A
    code in range has zero top two byte planes, a second plane naming one of
    the blocks ``0 .. (bound - 1) // 256``, and, in the last, partial block,
    a low byte below ``bound % 256``.
    """
    checked = _checked_planes(codes, bound)
    return None if checked is None else checked[0]


def _checked_planes(codes: Sequence[int], bound: int) -> Optional[Tuple]:
    """``None`` where :func:`codes_in_range` is, else ``(its answer, low plane,
    second plane, the last partial block's rows or None)`` for reuse."""
    if not (
        _LITTLE_ENDIAN
        and isinstance(codes, array)
        and codes.typecode == "i"
        and codes.itemsize == 4
        and 0 <= bound <= 65536
    ):
        return None
    raw = codes.tobytes()
    zeros = bytes(len(codes))
    low, high = raw[0::4], raw[1::4]
    blocks, tail = -(-bound // 256), bound % 256
    if raw[3::4] != zeros or raw[2::4] != zeros or high.translate(None, _BYTE_VALUES[:blocks]):
        return False, low, high, None  # a negative code, or one past the last block
    if not tail:
        return True, low, high, None
    if blocks == 1:  # every row lies in the one, partial block
        return not low.translate(None, _BYTE_VALUES[:tail]), low, high, None
    last_rows = _rows_in_block(high, blocks - 1)
    past_tail = low.translate(bytes(tail).ljust(256, b"\xff"))
    return not last_rows & int.from_bytes(past_tail, "little"), low, high, last_rows


def _rows_in_block(high: bytes, block: int) -> int:
    """A little-endian int with byte ``0xFF`` where ``high`` holds ``block``, else 0."""
    selector = bytes(block) + b"\xff" + bytes(255 - block)
    return int.from_bytes(high.translate(selector), "little")


def fused_group_sums(
    index: GroupIndex, columns: Sequence[Sequence]
) -> Dict["GroupKey", List[float]]:
    """Unmasked sums: one traversal over dense group ids into flat lists.

    Every accumulator starts at the integer ``0``: ``0 + v`` adopts a first
    float value unchanged except that ``-0.0`` becomes ``+0.0``, as under
    numpy's ``bincount``, and integer sums stay exact at arbitrary precision.
    Only the reference kernels keep a ``-0.0`` first contribution.
    """
    group_keys = index.group_keys
    count = len(group_keys)
    gids: Sequence[int] = index.gids
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


def fused_group_distinct_count(index: GroupIndex, members: Sequence) -> Dict["GroupKey", int]:
    """Unmasked distinct counts via per-group sets indexed by dense group id.

    The dense-id list lookup replaces the reference path's packed-key dict
    probe on every row, which is where the original loop spent its time.
    """
    return {
        key: len(bucket) for key, bucket in zip(index.group_keys, _member_sets(index, members))
    }


def fused_group_distinct(
    index: GroupIndex, members: Sequence, pool: Optional[List[object]]
) -> Dict["GroupKey", Set[object]]:
    """Unmasked per-group sets of decoded member values."""
    return _decoded_sets(zip(index.group_keys, _member_sets(index, members)), pool)


def _member_sets(index: GroupIndex, members: Sequence) -> List[Set]:
    """Each group's set of raw member values, by dense group id.

    Unmasked, every group id has a row, and ids are dense in first-appearance
    order, so the list is already in the reference key order.
    """
    slots: List[Set] = [set() for _ in index.group_keys]
    for gid, member in zip(index.gids, members):
        slots[gid].add(member)
    return slots


def masked_group_sums(
    table: "FlowTable", by: Sequence[str], columns: Sequence[Sequence], mask: Sequence[int]
) -> Dict["GroupKey", List[float]]:
    """Sums over only the rows ``mask`` keeps, with no :class:`GroupIndex`.

    The key columns are compressed to the kept rows and packed
    (``FlowTable._group_codes``), each value column is compressed the same
    way, and one dict pass per value column adds the values to their packed
    key's total, from the integer ``0`` as in :func:`fused_group_sums`.
    Keys come out in masked first-appearance order.
    """
    keys, decode = table._group_codes(by, mask)
    if len(columns) == 1:
        sums = _sums_by_key(keys, compress(columns[0], mask))
        return {decode(key): [total] for key, total in sums.items()}
    keys = list(keys)  # read once per value column
    totals = [_sums_by_key(keys, compress(column, mask)) for column in columns]
    return {decode(key): [sums[key] for sums in totals] for key in dict.fromkeys(keys)}


def _sums_by_key(keys: Iterable, values: Iterable) -> Dict[object, float]:
    """Each key's values added in row order from ``0``, keys in first-appearance order."""
    sums: Dict[object, float] = {}
    get = sums.get
    for key, value in zip(keys, values):
        sums[key] = get(key, 0) + value
    return sums


def _masked_member_sets(
    table: "FlowTable", by: Sequence[str], members: Sequence, mask: Sequence[int]
) -> Tuple[Dict[object, Set], Callable[[object], "GroupKey"]]:
    """Each packed key's set of raw member values over the rows ``mask`` keeps.

    Keys come out in masked first-appearance order, with the decoder back to
    group keys; no :class:`GroupIndex` is built or read.
    """
    keys, decode = table._group_codes(by, mask)
    sets: Dict[object, Set] = {}
    for key, member in zip(keys, compress(members, mask)):
        bucket = sets.get(key)
        if bucket is None:
            sets[key] = {member}
        else:
            bucket.add(member)
    return sets, decode


def _decoded_sets(
    groups: Iterable[Tuple["GroupKey", Set]], pool: Optional[List[object]]
) -> Dict["GroupKey", Set[object]]:
    """``{group key: member set}``, members decoded through ``pool`` when given."""
    if pool is None:
        return dict(groups)
    return {key: {pool[member] for member in bucket} for key, bucket in groups}
