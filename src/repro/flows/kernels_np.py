"""Numpy flow-table kernels (optional backend).

Importing this module requires numpy; :mod:`repro.flows.kernels` guards the
import and falls back to the pure-python kernels when it fails.  Every kernel
here either returns a result **bit-identical** to the python kernel or
returns ``NotImplemented`` so the dispatcher runs the python path instead:

* Float group sums use ``np.bincount``, whose accumulation is a sequential
  loop in row order -- the same addition order as the python kernels, hence
  the same IEEE-754 result; both start each sum from zero, so a leading
  ``-0.0`` sums to ``+0.0`` on either backend.
* Integer group sums accumulate into an int64 array via ``np.add.at``.
* Result dicts preserve the reference first-appearance key order: group ids
  are dense in first-appearance order by construction, and masked
  aggregations recover the masked first-appearance order with the same
  sort-free first-rows pass (:func:`_first_rows`) over the masked group ids.
* Distinct sets and counts (``group_distinct``, ``group_distinct_count``)
  pack each row as ``member * groups + gid`` and mark the pairs in one
  sort-free bitset of member rows x group columns (:func:`_pair_bitset`)
  while their span is at most :data:`_BITSET_SPAN_LIMIT` cells: its column
  sums are the counts, and its marked positions, in order, are
  ``np.unique(pairs)``, so the sets and their insertion order are the
  sort's.  Only a wider span sorts with ``np.unique``.
* Row filters boolean-index each column's view and fill the result ``array``
  with one ``frombytes``; row masks compare or index whole column views and
  come back as the same 0/1 ``bytearray`` the python loops build.
* Group indexes pack every key column into one mixed-radix int64 key: a
  categorical column adds its codes (radix = pool size), an integer column
  adds ``value - min`` (radix = ``max - min + 1``), relabeled to the ranks of
  the values present when that radix is in ``(64, limit]``.  Keys spanning at
  most ``limit = max(2 * rows, 2**16)`` get dense first-appearance ids from
  ``np.minimum.at`` in O(rows + span) with no sort; wider keys are densified
  once by ``np.unique`` first.
* The generation column builder turns one day's draws into the day's flow
  columns with the python builder's IEEE-754 operations in its order,
  mapping ``math.exp`` where numpy's ``exp`` could round differently.

``NotImplemented`` cases, each counted under
``kernels.fallbacks.<kernel>.<reason>`` (:data:`KERNEL_FALLBACK_COUNTER`)
while metrics are on:

* ``int64_overflow`` -- integer sums, packed distinct pairs or a total where
  ``max(|value|) * rows`` could reach the :data:`~repro.flows.kernels`
  ``INT64_SAFE_LIMIT``; python's arbitrary-precision ints cannot overflow.
* ``float_member`` -- ``group_distinct``/``distinct`` over a float column:
  ``np.unique`` collapses NaNs that python set semantics keep distinct.
* ``column_type`` -- a column without a fixed-width buffer view, or a
  non-integer column where a mask compares against python ints.
* ``mask_type`` -- a row mask (or per-code mask) that is not a flat
  bool/int/float sequence, whose truthiness ``!= 0`` could not reproduce.
* ``value_type`` -- a membership value that is not an ``int``.
* ``port_weights`` / ``packet_range`` -- the generation column builder
  (:func:`build_flow_columns`) met a port table that is not finite and
  non-decreasing, or a packet count outside int64.

The group-index builder keeps its own counters,
``kernels.group_index_fallbacks.float_key`` and ``.span_overflow`` (packed
span >= 2**63).  Mask lengths are checked by the dispatchers, so every
kernel may rely on ``len(mask) == rows``.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.flows.flowtable import COLUMN_TYPECODES, LazyColumn
from repro.flows.netflow import DEFAULT_PACKET_SIZE
from repro.obs import metrics as obs_metrics

#: array-module typecode -> numpy dtype for zero-copy column views.
_DTYPES = {
    "b": np.int8,
    "i": np.int32,
    "q": np.int64,
    "d": np.float64,
}

_INT_TYPECODES = ("b", "i", "q")

#: Cell bound for the sort-free bitset of distinct packed pairs behind
#: ``group_distinct`` and ``group_distinct_count`` (64 MiB of bool); wider
#: (member range x group count) spans fall back to the ``np.unique`` sort,
#: which needs no memory proportional to the value range.
_BITSET_SPAN_LIMIT = 1 << 26

#: Mirrors :data:`repro.flows.kernels.INT64_SAFE_LIMIT` (redefined here to
#: keep this module importable on its own; the parity harness asserts the two
#: stay equal).
INT64_SAFE_LIMIT = 2**62

#: Counter prefix for group-index builds handed to the python builder; the
#: reason is the last name component (``float_key``, ``span_overflow``), so
#: ``repro stats`` shows each cause on its own line.
GROUP_INDEX_FALLBACK_COUNTER = "kernels.group_index_fallbacks"

#: Counter prefix for every other kernel call handed to python:
#: ``kernels.fallbacks.<kernel>.<reason>``.
KERNEL_FALLBACK_COUNTER = "kernels.fallbacks"


def _fallback(kernel: str, reason: str):
    """Count a kernel call handed to the python kernels; return NotImplemented."""
    obs_metrics.inc(f"{KERNEL_FALLBACK_COUNTER}.{kernel}.{reason}")
    return NotImplemented


def _as_np(column: Sequence) -> Optional[np.ndarray]:
    """Zero-copy numpy view of a column (None when unsupported).

    Plain ``array`` columns and :class:`LazyColumn` views both wrap their raw
    bytes via ``np.frombuffer`` -- for a lazy column that means the kernels
    read straight from the mmap'd store artifact, no copy anywhere (and
    :meth:`LazyColumn.as_numpy` still runs the deferred code-range check).
    """
    if isinstance(column, array):
        dtype = _DTYPES.get(column.typecode)
        if dtype is not None:
            return np.frombuffer(column, dtype=dtype)
    if isinstance(column, LazyColumn):
        return column.as_numpy()
    if isinstance(column, np.ndarray):
        return column
    return None


def _int_view(column: Sequence) -> Optional[np.ndarray]:
    """Buffer view of an integer ``array``/:class:`LazyColumn`, else None."""
    if isinstance(column, (array, LazyColumn)) and column.typecode in _INT_TYPECODES:
        return _as_np(column)
    return None


def _truth(values: Sequence) -> Optional[np.ndarray]:
    """Per-row truthiness of a flat numeric sequence (None: python decides).

    Masks and packet columns arrive as ``bytearray``, ``array``, lazy column
    or plain list; for bool/int/float elements ``!= 0`` is exactly python's
    truthiness (NaN included).  Anything else -- object or string elements,
    nested sequences -- is left to the python loops.
    """
    if isinstance(values, (bytes, bytearray)):
        view = np.frombuffer(values, dtype=np.uint8)
    else:
        view = _as_np(values)
        if view is None:
            try:
                view = np.asarray(values)
            except (TypeError, ValueError, OverflowError):
                return None
    if view.ndim != 1 or view.dtype.kind not in "biuf":
        return None
    return view != 0


def _int_bound_ok(values: np.ndarray, rows: int) -> bool:
    """True when int64 accumulation over ``rows`` rows cannot overflow."""
    if not values.size or not rows:
        return True
    peak = max(abs(int(values.max())), abs(int(values.min())))
    return peak * rows < INT64_SAFE_LIMIT


def _first_rows(keys: np.ndarray, span: int) -> np.ndarray:
    """The row where each key first occurs, in row order (keys in ``[0, span)``).

    ``np.minimum.at`` leaves each key's smallest row number in ``first``; a
    row is a first row exactly when it holds that minimum.  O(rows + span),
    no sort.  (A reversed fancy assignment would be cheaper, but numpy does
    not define which of several writes to one index wins.)
    """
    positions = np.arange(len(keys), dtype=np.int64)
    first = np.full(span, len(keys), dtype=np.int64)
    np.minimum.at(first, keys, positions)
    return np.flatnonzero(first[keys] == positions)


def _first_appearance_order(gids: np.ndarray, count: int) -> np.ndarray:
    """Group ids (dense in ``[0, count)``) in order of first occurrence in ``gids``."""
    return gids[_first_rows(gids, count)]


def _as_bytearray(flags: np.ndarray) -> bytearray:
    """A bool/uint8 row mask as the 0/1 ``bytearray`` the python loops build."""
    return bytearray(flags.view(np.uint8))


# ---------------------------------------------------------------------------------
# Group index construction
# ---------------------------------------------------------------------------------


def _index_fallback(reason: str):
    """Count a group-index build handed to the python builder; return NotImplemented."""
    obs_metrics.inc(f"{GROUP_INDEX_FALLBACK_COUNTER}.{reason}")
    return NotImplemented


def _relabel(offsets: np.ndarray, radix: int) -> Tuple[np.ndarray, int]:
    """Each offset's rank among the offsets present, and how many are present.

    A presence table over ``[0, radix)`` and its running count map the
    values present onto ``0..n-1`` in value order.
    """
    present = np.zeros(radix, dtype=bool)
    present[offsets] = True
    ranks = np.cumsum(present) - 1
    return ranks[offsets], int(ranks[-1]) + 1


def build_group_index(table, by: Tuple[str, ...]):
    """Dense first-appearance group ids and decoded group keys.

    Returns ``(gids array('q'), group keys in first-appearance order)`` or
    ``NotImplemented`` for float key columns and for multi-column keys whose
    mixed-radix span reaches 2**63 -- the python builder handles those, and
    each hand-off increments a :data:`GROUP_INDEX_FALLBACK_COUNTER` counter
    named for its reason.  Every radix and the total span are computed in
    python ints before any int64 arithmetic.  Each key column becomes an
    offset from its low value (a categorical column's codes, an integer
    column's ``value - min``); several pack into one int64 key, most
    significant first, after each integer column with a radix in
    ``(64, limit]`` is relabeled to the ranks of the values present, where
    ``limit = max(2 * rows, 2**16)``.  A key span within ``limit`` runs the
    sort-free :func:`_first_rows` pass directly; a wider one is densified
    once by ``np.unique`` first.  Extra memory stays O(rows).  Group keys
    are read back from each group's first row, so they are the python
    builder's values and types exactly.
    """
    views: List[np.ndarray] = []
    pools: List[Optional[List[object]]] = []
    for name in by:
        if table.is_categorical(name):
            views.append(_as_np(table.codes(name)))
            pools.append(table.pool(name))
        else:
            column = table.numeric(name)
            if column.typecode not in _INT_TYPECODES:
                return _index_fallback("float_key")
            views.append(_as_np(column))
            pools.append(None)
    rows = len(table)
    if not rows:
        return array("q"), []
    limit = max(2 * rows, 2**16)
    lows: List[int] = []
    radixes: List[int] = []
    for view, pool in zip(views, pools):
        if pool is not None:
            lows.append(0)
            radixes.append(max(1, len(pool)))
        else:
            lows.append(int(view.min()))
            radixes.append(int(view.max()) - lows[-1] + 1)
    if len(by) == 1:
        span = radixes[0]
        keys = views[0].astype(np.int64, copy=False)
        if span <= limit:
            keys = keys - lows[0]
    else:
        if math.prod(radixes) >= 2**63:
            return _index_fallback("span_overflow")
        keys = np.zeros(rows, dtype=np.int64)
        span = 1
        for view, pool, low, radix in zip(views, pools, lows, radixes):
            offsets = view.astype(np.int64) - low
            if pool is None and 64 < radix <= limit:
                offsets, radix = _relabel(offsets, radix)
            keys *= radix
            keys += offsets
            span *= radix
    if span > limit:
        present, keys = np.unique(keys, return_inverse=True)
        span = len(present)
    first_rows = _first_rows(keys, span)
    rank = np.empty(span, dtype=np.int64)
    rank[keys[first_rows]] = np.arange(len(first_rows), dtype=np.int64)
    gids = array("q")
    gids.frombytes(np.ascontiguousarray(rank[keys], dtype=np.int64).view(np.uint8))
    key_columns: List[List[object]] = []
    for view, pool in zip(views, pools):
        values = view[first_rows].tolist()
        key_columns.append(values if pool is None else [pool[code] for code in values])
    if len(by) == 1:
        return gids, key_columns[0]
    return gids, list(zip(*key_columns))


# ---------------------------------------------------------------------------------
# Row filters and row masks
# ---------------------------------------------------------------------------------


def filter_rows(columns: Sequence, mask: Sequence[int]):
    """Every column's rows under a truthy mask entry, as new ``array`` columns."""
    selector = _truth(mask)
    if selector is None:
        return _fallback("filter_rows", "mask_type")
    views: List[np.ndarray] = []
    for column in columns:
        view = _as_np(column) if isinstance(column, (array, LazyColumn)) else None
        if view is None:
            return _fallback("filter_rows", "column_type")
        views.append(view)
    kept: List[array] = []
    for column, view in zip(columns, views):
        out = array(column.typecode)
        out.frombytes(view[selector].view(np.uint8))
        kept.append(out)
    return kept


def expand_code_mask(codes: Sequence, code_mask, mask: Optional[Sequence[int]]):
    """Row mask ``code_mask[code]`` per row, AND-ed with ``mask`` when given.

    Out-of-range codes raise ``IndexError`` exactly as the python loop's
    ``code_mask[code]`` does (negative codes count from the end on both).
    """
    view = _as_np(codes)
    if view is None or view.dtype.kind != "i":
        return _fallback("expand_code_mask", "column_type")
    if not isinstance(code_mask, (bytes, bytearray)):
        return _fallback("expand_code_mask", "mask_type")
    rows = np.frombuffer(code_mask, dtype=np.uint8)[view]
    if mask is None:
        return bytearray(rows)
    selector = _truth(mask)
    if selector is None:
        return _fallback("expand_code_mask", "mask_type")
    return _as_bytearray(selector & (rows != 0))


def not_in_mask(column: Sequence, values: Set[object]):
    """Row mask of an integer column whose value is not in a set of ``int``s."""
    view = _int_view(column)
    if view is None:
        return _fallback("not_in_mask", "column_type")
    if any(type(value) is not int for value in values):
        return _fallback("not_in_mask", "value_type")
    bounds = np.iinfo(view.dtype)
    members = np.array(
        [value for value in values if bounds.min <= value <= bounds.max], dtype=np.int64
    )
    return _as_bytearray(np.isin(view, members, invert=True))


def nonzero_mask(first: Sequence, second: Sequence):
    """Row mask of rows where either column is nonzero."""
    first_flags = _truth(first)
    second_flags = _truth(second)
    if first_flags is None or second_flags is None:
        return _fallback("nonzero_mask", "column_type")
    return _as_bytearray(first_flags | second_flags)


# ---------------------------------------------------------------------------------
# Aggregation kernels
# ---------------------------------------------------------------------------------


def group_sums(index, columns: Sequence, mask: Optional[Sequence[int]]):
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    gids = index.gids_numpy()
    np_columns: List[np.ndarray] = []
    for column in columns:
        view = _as_np(column)
        if view is None:
            return _fallback("group_sums", "column_type")
        np_columns.append(view)
    selector = None
    if mask is not None:
        selector = _truth(mask)
        if selector is None:
            return _fallback("group_sums", "mask_type")
        gids = gids[selector]
    rows = len(gids)
    sums: List[Sequence] = []
    for column in np_columns:
        values = column[selector] if selector is not None else column
        if values.dtype == np.float64:
            sums.append(np.bincount(gids, weights=values, minlength=count).tolist())
        else:
            if not _int_bound_ok(values, rows):
                return _fallback("group_sums", "int64_overflow")
            accumulator = np.zeros(count, dtype=np.int64)
            np.add.at(accumulator, gids, values.astype(np.int64, copy=False))
            sums.append(accumulator.tolist())
    if selector is None:
        return {key: [column[gid] for column in sums] for gid, key in enumerate(group_keys)}
    order = _first_appearance_order(gids, count)
    return {
        group_keys[gid]: [column[gid] for column in sums]
        for gid in order.tolist()
    }


def group_pair_sums(index, first: Sequence, second: Sequence, mask: Optional[Sequence[int]]):
    left, right = _as_np(first), _as_np(second)
    if left is None or right is None or left.dtype != np.float64 or right.dtype != np.float64:
        return _fallback("group_pair_sums", "column_type")
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    gids = index.gids_numpy()
    order = range(count)
    if mask is not None:
        selector = _truth(mask)
        if selector is None:
            return _fallback("group_pair_sums", "mask_type")
        # Selecting before adding keeps every temporary to the masked rows.
        gids, left, right = gids[selector], left[selector], right[selector]
        order = _first_appearance_order(gids, count).tolist()
    sums = np.bincount(gids, weights=left + right, minlength=count).tolist()
    return {group_keys[gid]: sums[gid] for gid in order}


def _packed_pairs(kernel: str, index, members: Sequence, mask: Optional[Sequence[int]]):
    """(masked gids, packed member*count+gid pairs) or NotImplemented."""
    count = len(index.group_keys)
    member_view = _int_view(members)
    if member_view is None:
        reason = "float_member" if getattr(members, "typecode", None) == "d" else "column_type"
        return _fallback(kernel, reason)
    member_view = member_view.astype(np.int64, copy=False)
    gids = index.gids_numpy()
    if mask is not None:
        selector = _truth(mask)
        if selector is None:
            return _fallback(kernel, "mask_type")
        gids = gids[selector]
        member_view = member_view[selector]
    if member_view.size and not _int_bound_ok(member_view, count + 1):
        return _fallback(kernel, "int64_overflow")
    return gids, member_view * count + gids


def _pair_bitset(pairs: np.ndarray, count: int) -> Optional[Tuple[np.ndarray, int]]:
    """The packed pairs marked in a bitset of member rows x group columns.

    Returns ``(seen, base)``: cell ``(r, j)`` of ``seen`` stands for the pair
    ``base + r * count + j``, so ``np.flatnonzero(seen) + base`` equals
    ``np.unique(pairs)`` and ``seen.sum(axis=0)`` counts each group's
    distinct members -- O(rows + span) against the O(rows log rows) sort
    inside ``np.unique``, which dominates when most pairs are distinct.
    ``base`` aligns the bitset to a gid-0 boundary (negative members too).
    ``None`` for no pairs, or when the span exceeds
    :data:`_BITSET_SPAN_LIMIT`; the caller then sorts with ``np.unique``.
    """
    if not pairs.size:
        return None
    base = (int(pairs.min()) // count) * count
    span_rows = (int(pairs.max()) - base) // count + 1
    if span_rows * count > _BITSET_SPAN_LIMIT:
        return None
    seen = np.zeros((span_rows, count), dtype=bool)
    seen.reshape(-1)[pairs - base] = True
    return seen, base


def group_distinct_count(index, members: Sequence, mask: Optional[Sequence[int]]):
    """Distinct members per group: the bitset's column sums (``np.unique`` above its limit)."""
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    packed = _packed_pairs("group_distinct_count", index, members, mask)
    if packed is NotImplemented:
        return NotImplemented
    gids, pairs = packed
    bitset = _pair_bitset(pairs, count)
    if bitset is None:
        counts = np.bincount(np.unique(pairs) % count, minlength=count)
    else:
        counts = bitset[0].sum(axis=0, dtype=np.int64)
    if mask is None:
        # Unmasked, every group id occurs, so the reference first-appearance
        # order is the index order 0..count-1 -- skip the recovery sort.
        return {key: int(counts[gid]) for gid, key in enumerate(group_keys)}
    order = _first_appearance_order(gids, count)
    return {group_keys[gid]: int(counts[gid]) for gid in order.tolist()}


def group_distinct(
    index,
    members: Sequence,
    pool: Optional[List[object]],
    mask: Optional[Sequence[int]],
):
    """Member sets per group, filled from the distinct pairs in ``np.unique`` order."""
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    packed = _packed_pairs("group_distinct", index, members, mask)
    if packed is NotImplemented:
        return NotImplemented
    gids, pairs = packed
    bitset = _pair_bitset(pairs, count)
    uniq = np.unique(pairs) if bitset is None else np.flatnonzero(bitset[0]) + bitset[1]
    sets: Dict[object, Set[object]] = {}
    pair_gids = (uniq % count).tolist()
    pair_members = (uniq // count).tolist()
    if mask is None:
        for key in group_keys:
            sets[key] = set()
    else:
        for gid in _first_appearance_order(gids, count).tolist():
            sets[group_keys[gid]] = set()
    if pool is None:
        for gid, member in zip(pair_gids, pair_members):
            sets[group_keys[gid]].add(member)
    else:
        for gid, member in zip(pair_gids, pair_members):
            sets[group_keys[gid]].add(pool[member])
    return sets


def total(column: Sequence):
    values = _as_np(column)
    if values is None:
        return _fallback("total", "column_type")
    if not values.size:
        return 0
    if values.dtype == np.float64:
        # cumsum accumulates strictly sequentially, matching kernels.fold_sum.
        return float(np.cumsum(values)[-1])
    if not _int_bound_ok(values, len(values)):
        return _fallback("total", "int64_overflow")
    return int(np.sum(values, dtype=np.int64))


def distinct_codes(codes: Sequence):
    view = _as_np(codes)
    if view is None:
        return _fallback("distinct", "column_type")
    return np.unique(view).tolist()


def distinct_values(column: Sequence):
    view = _int_view(column)
    if view is None:
        # float columns: NaN set semantics differ
        reason = "float_member" if getattr(column, "typecode", None) == "d" else "column_type"
        return _fallback("distinct", reason)
    return set(np.unique(view).tolist())


# ---------------------------------------------------------------------------------
# Generation column builder
# ---------------------------------------------------------------------------------


def _typed(typecode: str, values: np.ndarray) -> array:
    """A numpy column as the ``array`` of one flow-table column."""
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(values, dtype=_DTYPES[typecode]).view(np.uint8))
    return out


def _packets(volume: np.ndarray) -> Optional[np.ndarray]:
    """``(ceil(v / size) or 1) if v > 0 else 0`` per element (None: out of int64)."""
    packets = np.where(volume > 0, np.maximum(np.ceil(volume / DEFAULT_PACKET_SIZE), 1.0), 0.0)
    if not packets.max() < 2.0**63:
        return None
    return packets.astype(np.int64)


def build_flow_columns(plan, draws):
    """One generation day's flow columns from its draws, in bulk.

    The same columns, byte for byte, as the python builder
    (``repro.flows.workload.build_flow_columns``): codes and per-device
    values are gathered by candidate index; ``exp`` is ``math.exp`` mapped
    over ``z * sigma``, because numpy's own ``exp`` is not guaranteed to
    round like libm; every product runs element by element in the python
    expression's order, so each is the same IEEE-754 operation.  The port
    index counts the cumulative weights ``<= u * total``, which is
    ``bisect_right`` on a non-decreasing table, clamped to the last port;
    ``ceil`` and the division before it are exact.

    ``NotImplemented`` cases (counted under
    ``kernels.fallbacks.flow_columns.<reason>``): ``port_weights`` -- a
    port table that is not finite and non-decreasing, where the count and
    ``bisect_right`` could differ; ``packet_range`` -- a packet count
    outside int64, where the python builder raises.
    """
    candidates = np.frombuffer(draws.candidate, dtype=np.int32)
    if not len(candidates):
        return [array(typecode) for typecode in COLUMN_TYPECODES]
    tables = plan.port_cumulative
    for cumulative in tables:
        if not (
            cumulative
            and all(map(math.isfinite, cumulative))
            and all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        ):
            return _fallback("flow_columns", "port_weights")
    scaled = np.frombuffer(draws.z, dtype=np.float64) * plan.volume_sigma
    volume = np.fromiter(map(math.exp, scaled.tolist()), dtype=np.float64, count=len(scaled))
    volume = volume * plan.volume_correction * _as_np(plan.multiplier)[candidates]
    traffic = np.frombuffer(draws.traffic_factor, dtype=np.float64)
    bytes_down = _as_np(plan.per_hour_down)[candidates] * volume * traffic
    bytes_up = _as_np(plan.per_hour_up)[candidates] * volume * traffic

    # One row per port table, padded with +inf, which no roll reaches.
    padded = np.full((len(tables), max(map(len, tables))), np.inf)
    for row, cumulative in enumerate(tables):
        padded[row, : len(cumulative)] = cumulative
    lengths = np.array([len(cumulative) for cumulative in tables], dtype=np.int64)
    totals = np.array([cumulative[-1] for cumulative in tables])
    table = _as_np(plan.port_table)[candidates]
    rolled = np.frombuffer(draws.port_u, dtype=np.float64) * totals[table]
    index = np.minimum((padded[table] <= rolled[:, None]).sum(axis=1), lengths[table] - 1)
    slots = (np.cumsum(lengths) - lengths)[table] + index
    transport = np.array([code for codes in plan.port_transport for code in codes], dtype=np.int32)
    port = np.array([number for numbers in plan.port_number for number in numbers], dtype=np.int32)

    packets_down = _packets(bytes_down)
    packets_up = _packets(bytes_up)
    if packets_down is None or packets_up is None:
        return _fallback("flow_columns", "packet_range")
    timestamps = np.repeat(
        np.array([code for code, _count in draws.hours], dtype=np.int32),
        [count for _code, count in draws.hours],
    )
    columns = (
        timestamps,
        _as_np(plan.prefix)[candidates],
        _as_np(plan.provider)[candidates],
        _as_np(plan.server_ip)[candidates],
        _as_np(plan.server_continent)[candidates],
        _as_np(plan.server_region)[candidates],
        transport[slots],
        _as_np(plan.line_id)[candidates],
        _as_np(plan.ip_version)[candidates],
        port[slots],
        bytes_down,
        bytes_up,
        packets_down,
        packets_up,
        np.zeros(len(candidates), dtype=np.int8),
    )
    return [_typed(typecode, column) for typecode, column in zip(COLUMN_TYPECODES, columns)]
