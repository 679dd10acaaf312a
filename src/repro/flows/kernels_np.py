"""Numpy grouped-aggregation kernels (optional backend).

Importing this module requires numpy; :mod:`repro.flows.kernels` guards the
import and falls back to the pure-python kernels when it fails.  Every kernel
here either returns a result **bit-identical** to the python reference or
returns ``NotImplemented`` so the dispatcher runs the python path instead:

* Float group sums use ``np.bincount``, whose accumulation is a sequential
  loop in row order -- the same addition order as the python kernels, hence
  the same IEEE-754 result (the lone exception, a leading ``-0.0``, is
  documented in :mod:`repro.flows.kernels`).
* Integer group sums accumulate into an int64 array via ``np.add.at``; when
  ``max(|value|) * rows`` could reach the :data:`~repro.flows.kernels`
  ``INT64_SAFE_LIMIT`` the kernel defers to python, whose arbitrary-precision
  ints cannot overflow.  The same guard covers packed distinct-count pairs
  and whole-column totals.
* Result dicts preserve the reference first-appearance key order: group ids
  are dense in first-appearance order by construction, and masked
  aggregations recover the masked first-appearance order from
  ``np.unique(..., return_index=True)``.
* Float *member* columns (``group_distinct`` over a float column) defer to
  python: ``np.unique`` collapses NaNs that python set semantics keep
  distinct.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.flows.flowtable import LazyColumn
from repro.obs import metrics as obs_metrics

#: array-module typecode -> numpy dtype for zero-copy column views.
_DTYPES = {
    "b": np.int8,
    "i": np.int32,
    "q": np.int64,
    "d": np.float64,
}

_INT_TYPECODES = ("b", "i", "q")

#: Cell bound for the sort-free bitset distinct-count layout (64 MiB of
#: bool); wider (member range x group count) spans fall back to the
#: ``np.unique`` sort, which needs no memory proportional to the value range.
_BITSET_SPAN_LIMIT = 1 << 26

#: Mirrors :data:`repro.flows.kernels.INT64_SAFE_LIMIT` (redefined here to
#: keep this module importable on its own; the parity harness asserts the two
#: stay equal).
INT64_SAFE_LIMIT = 2**62

#: Counter prefix for group-index builds handed to the python builder; the
#: reason is the last name component (``mixed_keys``, ``float_key``,
#: ``span_overflow``), so ``repro stats`` shows each cause on its own line.
GROUP_INDEX_FALLBACK_COUNTER = "kernels.group_index_fallbacks"


def _as_np(column: Sequence) -> Optional[np.ndarray]:
    """Zero-copy numpy view of a column (None when unsupported).

    Plain ``array`` columns and :class:`LazyColumn` views both wrap their raw
    bytes via ``np.frombuffer`` -- for a lazy column that means the kernels
    read straight from the mmap'd store artifact, no copy anywhere.
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


def _int_member_view(members: Sequence) -> Optional[np.ndarray]:
    """int64 view of an integer member column, or None for other columns."""
    if isinstance(members, (array, LazyColumn)) and members.typecode in _INT_TYPECODES:
        view = _as_np(members)
        if view is not None:
            return view.astype(np.int64, copy=False)
    return None


def _mask_selector(mask: Sequence[int], rows: int) -> Optional[np.ndarray]:
    """Boolean row selector for a mask, or None when python must handle it."""
    if isinstance(mask, (bytes, bytearray)):
        selector = np.frombuffer(mask, dtype=np.uint8)
    else:
        try:
            selector = np.asarray(mask)
        except Exception:
            return None
    if selector.shape != (rows,):
        # compress() semantics (short/long masks) differ from fancy indexing;
        # leave those rare shapes to the python kernels.
        return None
    return selector != 0


def _int_bound_ok(values: np.ndarray, rows: int) -> bool:
    """True when int64 accumulation over ``rows`` rows cannot overflow."""
    if not values.size or not rows:
        return True
    peak = max(abs(int(values.max())), abs(int(values.min())))
    return peak * rows < INT64_SAFE_LIMIT


def _first_appearance_order(gids: np.ndarray) -> np.ndarray:
    """Group ids in order of their first occurrence in ``gids``."""
    present, first = np.unique(gids, return_index=True)
    return present[np.argsort(first, kind="stable")]


# ---------------------------------------------------------------------------------
# Group index construction
# ---------------------------------------------------------------------------------


def _index_fallback(reason: str):
    """Count a group-index build handed to the python builder; return NotImplemented."""
    obs_metrics.inc(f"{GROUP_INDEX_FALLBACK_COUNTER}.{reason}")
    return NotImplemented


def build_group_index(table, by: Tuple[str, ...]):
    """Dense first-appearance group ids over int64-packable key columns.

    Returns ``(gids array('q'), packed keys in first-appearance order)`` or
    ``NotImplemented`` when the key columns cannot pack into int64 (multi-column
    keys that are not all categorical, float keys, or a mixed-radix span
    beyond 2**63) -- the python builder handles those, and each hand-off
    increments a :data:`GROUP_INDEX_FALLBACK_COUNTER` counter named for its
    reason.
    """
    if len(by) == 1:
        name = by[0]
        if table.is_categorical(name):
            keys = _as_np(table.codes(name)).astype(np.int64, copy=False)
        else:
            column = table.numeric(name)
            if column.typecode not in _INT_TYPECODES:
                return _index_fallback("float_key")
            keys = _as_np(column).astype(np.int64, copy=False)
    elif all(table.is_categorical(name) for name in by):
        sizes = [len(table.pool(name)) for name in by]
        span = 1
        for size in sizes:
            span *= max(1, size)
        if span >= 2**63:
            return _index_fallback("span_overflow")
        keys = _as_np(table.codes(by[0])).astype(np.int64, copy=False)
        for name, size in zip(by[1:], sizes[1:]):
            keys = keys * size + _as_np(table.codes(name)).astype(np.int64, copy=False)
    else:
        return _index_fallback("mixed_keys")
    if not keys.size:
        return array("q"), []
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    gids = array("q")
    gids.frombytes(np.ascontiguousarray(rank[inverse], dtype=np.int64).tobytes())
    return gids, [int(key) for key in uniq[order]]


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
            return NotImplemented
        np_columns.append(view)
    selector = None
    if mask is not None:
        selector = _mask_selector(mask, len(gids))
        if selector is None:
            return NotImplemented
        gids = gids[selector]
    rows = len(gids)
    sums: List[Sequence] = []
    for column in np_columns:
        values = column[selector] if selector is not None else column
        if values.dtype == np.float64:
            sums.append(np.bincount(gids, weights=values, minlength=count).tolist())
        else:
            if not _int_bound_ok(values, rows):
                return NotImplemented
            accumulator = np.zeros(count, dtype=np.int64)
            np.add.at(accumulator, gids, values.astype(np.int64, copy=False))
            sums.append(accumulator.tolist())
    if selector is None:
        return {key: [column[gid] for column in sums] for gid, key in enumerate(group_keys)}
    order = _first_appearance_order(gids)
    return {
        group_keys[gid]: [column[gid] for column in sums]
        for gid in order.tolist()
    }


def _packed_pairs(index, members: Sequence, mask: Optional[Sequence[int]]):
    """(masked gids, packed member*count+gid pairs) or NotImplemented."""
    count = len(index.group_keys)
    member_view = _int_member_view(members)
    if member_view is None:
        return NotImplemented
    gids = index.gids_numpy()
    selector = None
    if mask is not None:
        selector = _mask_selector(mask, len(gids))
        if selector is None:
            return NotImplemented
        gids = gids[selector]
        member_view = member_view[selector]
    if member_view.size and not _int_bound_ok(member_view, count + 1):
        return NotImplemented
    return gids, member_view * count + gids


def group_distinct_count(index, members: Sequence, mask: Optional[Sequence[int]]):
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    packed = _packed_pairs(index, members, mask)
    if packed is NotImplemented:
        return NotImplemented
    gids, pairs = packed
    if not pairs.size:
        return {}
    # Sort-free when the (member range x group count) span is modest: mark
    # packed pairs in a bitset laid out as member rows x group columns, then
    # a column sum counts distinct members per group -- O(rows + span) versus
    # the O(rows log rows) sort inside np.unique, which dominates when most
    # pairs are distinct.  ``base`` aligns the bitset to a gid-0 boundary so
    # column j holds exactly group j (works for negative members too).
    base = (int(pairs.min()) // count) * count
    span_rows = (int(pairs.max()) - base) // count + 1
    if span_rows * count <= _BITSET_SPAN_LIMIT:
        seen = np.zeros(span_rows * count, dtype=bool)
        seen[pairs - base] = True
        counts = seen.reshape(span_rows, count).sum(axis=0, dtype=np.int64)
    else:
        uniq = np.unique(pairs)
        counts = np.bincount(uniq % count, minlength=count)
    if mask is None:
        # Unmasked, every group id occurs, so the reference first-appearance
        # order is the index order 0..count-1 -- skip the recovery sort.
        return {key: int(counts[gid]) for gid, key in enumerate(group_keys)}
    order = _first_appearance_order(gids)
    return {group_keys[gid]: int(counts[gid]) for gid in order.tolist()}


def group_distinct(
    index,
    members: Sequence,
    pool: Optional[List[object]],
    mask: Optional[Sequence[int]],
):
    group_keys = index.group_keys
    count = len(group_keys)
    if not count:
        return {}
    packed = _packed_pairs(index, members, mask)
    if packed is NotImplemented:
        return NotImplemented
    gids, pairs = packed
    uniq = np.unique(pairs)
    sets: Dict[object, Set[object]] = {}
    pair_gids = (uniq % count).tolist()
    pair_members = (uniq // count).tolist()
    if mask is None:
        for key in group_keys:
            sets[key] = set()
    else:
        for gid in _first_appearance_order(gids).tolist():
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
        return NotImplemented
    if not values.size:
        return 0
    if values.dtype == np.float64:
        # cumsum accumulates strictly sequentially, matching python sum().
        return float(np.cumsum(values)[-1])
    if not _int_bound_ok(values, len(values)):
        return NotImplemented
    return int(np.sum(values, dtype=np.int64))


def distinct_codes(codes: Sequence):
    view = _as_np(codes)
    if view is None:
        return NotImplemented
    return np.unique(view).tolist()


def distinct_values(column: Sequence):
    view = _int_member_view(column)
    if view is None:
        return NotImplemented  # float columns: NaN set semantics differ
    return set(np.unique(view).tolist())
