"""Columnar flow store: the one representation of the ISP's flows.

Generation, NetFlow export, the artifact store and every Section 5--6 analysis
work on a :class:`FlowTable`.  A list of frozen
:class:`~repro.flows.netflow.FlowRecord` objects would pay an attribute lookup
per field per row and re-hash tuple-of-string keys in every grouped
aggregation; the table stores the same data as parallel columns:

* **Dictionary-encoded categoricals** (timestamp, provider, server address,
  continent, region, transport, subscriber prefix): each column is an
  ``array('i')`` of small integer codes plus a value pool, so group keys are
  ints and repeated values are stored once.
* **Primitive arrays** (:mod:`array`) for the numeric fields (byte counts,
  packet counts, port, subscriber id, ip version, sampled flag) -- no numpy
  dependency.

Rows go in one way: values interned with :meth:`encode_value` and appended
column-wise with :meth:`append_columns` (or whole columns adopted by the
store codec through :meth:`adopt_columns`).  Rows are filtered one way: a
row mask (:meth:`mask_code`, :meth:`mask_day`, :meth:`mask_server_ips`, or a
kernel mask over a numeric column) goes into :meth:`select_mask`, which
:meth:`exclude_subscribers` also ends in, or straight into the ``mask=`` of a
grouped aggregation (:meth:`group_sums`, :meth:`group_distinct`,
:meth:`group_distinct_count`) keyed by any column combination -- provider,
hour, subscriber, port, continent pair.  The Section 5 analyses in
:mod:`repro.core.traffic` run on these primitives instead of repeated linear
passes over record lists.

Filters, masks and aggregations are all executed by the pluggable kernel
layer in :mod:`repro.flows.kernels` (pure-python loops, optional numpy
backend behind ``IOT_REPRO_KERNELS``).  A row mask must have exactly one
entry per row: :meth:`select_mask` and the grouped aggregations raise
``ValueError`` naming both lengths otherwise.  The grouping permutation is
computed once per ``(table, key columns)`` pair -- :meth:`group_index` -- and
cached until a mutating primitive (:meth:`append_columns`,
:meth:`assign_numeric`) bumps the table's mutation counter, so analyses
sharing a grouping share the index.  The numpy kernels use it for every
aggregation; the python kernels only for unmasked ones, as a masked python
call groups just the rows its mask keeps.

:meth:`to_records` materializes every row as a ``FlowRecord`` for
assertions.  Filtered tables share the value pools of their parent, which
keeps filtering cheap.

Columns are usually plain :mod:`array` objects, but a table loaded through the
zero-copy store read path (:func:`repro.store.codec.load_table_mmap`) holds
:class:`LazyColumn` views over the mapped artifact instead: the raw bytes stay
on the map and are decoded into an ``array`` only on first sequence access,
while the numpy kernel backend reads them directly via ``np.frombuffer`` with
no copy at all -- filters and masks included, so a warm table is filtered
straight off the map.  Every mutating primitive runs the copy-on-write barrier
(:meth:`FlowTable._materialize_for_write`) before touching a column, so by the
time ``_version`` is bumped the table is array-backed again and the
GroupIndex/mutation contract is unchanged.
"""

from __future__ import annotations

from array import array
from datetime import date
from itertools import compress
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.flows.netflow import FlowRecord

#: Dictionary-encoded columns, in FlowRecord field order where applicable.
CATEGORICAL_COLUMNS = (
    "timestamp",
    "subscriber_prefix",
    "provider_key",
    "server_ip",
    "server_continent",
    "server_region",
    "transport",
)

#: Numeric columns and their :mod:`array` typecodes.
NUMERIC_COLUMNS = (
    ("subscriber_id", "q"),
    ("ip_version", "b"),
    ("port", "i"),
    ("bytes_down", "d"),
    ("bytes_up", "d"),
    ("packets_down", "q"),
    ("packets_up", "q"),
    ("sampled", "b"),
)

#: Array typecode of every column, in CATEGORICAL_COLUMNS + NUMERIC_COLUMNS
#: order (dictionary codes are ``array('i')``).
COLUMN_TYPECODES = ("i",) * len(CATEGORICAL_COLUMNS) + tuple(
    typecode for _name, typecode in NUMERIC_COLUMNS
)

_NUMERIC_TYPECODES = dict(NUMERIC_COLUMNS)
_NUMERIC_NAMES = tuple(_NUMERIC_TYPECODES)

GroupKey = Union[object, Tuple[object, ...]]

#: numpy dtype strings of the fixed-width typecodes the codec emits (the
#: platform-dependent ones -- 'l', 'L', ... -- never appear in artifacts).
_NP_DTYPE_OF_TYPECODE = {"b": "int8", "i": "int32", "q": "int64", "d": "float64"}


class LazyColumn:
    """A read-only column decoded on first touch from a mapped byte buffer.

    Holds the raw little-endian bytes of one serialized column -- typically a
    ``memoryview`` slice over an mmap'd store artifact -- and presents the
    sequence protocol of the ``array`` it stands in for.  The first sequence
    access (:meth:`materialize`, iteration, indexing) decodes the buffer into
    a real ``array`` once and caches it; :meth:`as_numpy` instead wraps the
    buffer in a zero-copy ``np.frombuffer`` view, so the numpy kernel backend
    never pays the copy at all.  :meth:`tobytes` re-emits the buffer verbatim,
    which is what keeps ``dump_table`` round-trips byte-identical.

    An optional ``validate`` callable (the codec's deferred code-range check)
    runs once against the first decoded representation and may raise
    :class:`~repro.store.codec.StoreFormatError`; corruption a structural
    parse cannot see is therefore surfaced on first touch, before any value
    escapes.  Instances are immutable: :class:`FlowTable` swaps them for
    mutable arrays via its copy-on-write barrier before any mutation.
    """

    __slots__ = ("typecode", "itemsize", "buffer", "_length", "_array", "_np", "_validate")

    def __init__(
        self,
        typecode: str,
        buffer: "memoryview",
        validate: Optional[Callable[[Sequence], None]] = None,
    ) -> None:
        self.typecode = typecode
        self.itemsize = array(typecode).itemsize
        self.buffer = buffer
        self._length = len(buffer) // self.itemsize
        self._array: Optional[array] = None
        self._np = None
        self._validate = validate

    def __len__(self) -> int:
        return self._length

    def materialize(self) -> array:
        """The decoded ``array`` (built and validated on first call)."""
        if self._array is None:
            column = array(self.typecode)
            column.frombytes(self.buffer)
            if self._validate is not None:
                self._validate(column)
                self._validate = None
            self._array = column
        return self._array

    def as_numpy(self):
        """Zero-copy numpy view of the buffer (``None`` for odd typecodes)."""
        if self._np is None:
            dtype = _NP_DTYPE_OF_TYPECODE.get(self.typecode)
            if dtype is None:
                return None
            import numpy

            view = numpy.frombuffer(self.buffer, dtype=dtype)
            if self._validate is not None:
                self._validate(view)
                self._validate = None
            self._np = view
        return self._np

    def tobytes(self) -> bytes:
        """The raw column bytes, exactly as serialized."""
        return bytes(self.buffer)

    def __iter__(self) -> Iterator:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]


#: What a FlowTable column slot may hold.
ColumnStorage = Union[array, LazyColumn]


class _Pool:
    """An append-only dictionary-encoded value pool shared between tables."""

    __slots__ = ("values", "code_of")

    def __init__(self) -> None:
        self.values: List[object] = []
        self.code_of: Dict[object, int] = {}

    def encode(self, value: object) -> int:
        code = self.code_of.get(value)
        if code is None:
            code = len(self.values)
            self.code_of[value] = code
            self.values.append(value)
        return code


class FlowTable:
    """Columnar, dictionary-encoded storage for flow records."""

    def __init__(self) -> None:
        self._pools: Dict[str, _Pool] = {name: _Pool() for name in CATEGORICAL_COLUMNS}
        self._codes: Dict[str, ColumnStorage] = {name: array("i") for name in CATEGORICAL_COLUMNS}
        self._numeric: Dict[str, ColumnStorage] = {
            name: array(typecode) for name, typecode in NUMERIC_COLUMNS
        }
        self._length = 0
        #: Mutation counter: bumped by every row-mutating primitive so cached
        #: :class:`~repro.flows.kernels.GroupIndex` objects can never be
        #: reused across a mutation (pool growth alone leaves rows intact and
        #: does not bump it).
        self._version = 0
        self._group_cache: Dict[Tuple[str, ...], "kernels.GroupIndex"] = {}

    def _materialize_for_write(self) -> None:
        """Copy-on-write barrier: decode every lazy column into a mutable array.

        Called by every mutating primitive before it touches a column, so a
        table loaded zero-copy from an mmap'd artifact silently detaches from
        the map the moment it stops being read-only -- the mapped bytes are
        never written through, and ``_version`` is only ever bumped on
        array-backed tables.  The codec's decoding loaders reuse it to turn a
        parsed table into an array-backed one.
        """
        for name, column in self._codes.items():
            if type(column) is LazyColumn:
                self._codes[name] = column.materialize()
        for name, column in self._numeric.items():
            if type(column) is LazyColumn:
                self._numeric[name] = column.materialize()

    # -- construction ------------------------------------------------------------

    def encode_value(self, name: str, value: object) -> int:
        """Intern a value in a categorical column's pool and return its code.

        The columnar generation path encodes every distinct value once up
        front (per device, per server choice) and then appends plain integer
        codes, so the per-row work is free of dictionary probes.
        """
        return self._pools[name].encode(value)

    def append_columns(
        self,
        count: int,
        codes: Mapping[str, Iterable[int]],
        numeric: Mapping[str, Iterable],
    ) -> None:
        """Bulk-append ``count`` pre-encoded rows column-wise.

        ``codes`` maps every categorical column to an iterable of pool codes
        (obtained from :meth:`encode_value`); ``numeric`` maps every numeric
        column to an iterable of values.  Each column costs one C-level
        ``array.extend``; lengths are validated against ``count`` so a short
        or long iterable cannot silently skew the table.  The append is
        atomic: on any error the already-extended columns are truncated back,
        so a caught failure leaves the table unchanged.
        """
        self._materialize_for_write()
        target = self._length + count
        try:
            for name in CATEGORICAL_COLUMNS:
                column = self._codes[name]
                column.extend(codes[name])
                if len(column) != target:
                    raise ValueError(
                        f"column {name!r}: got {len(column) - self._length} rows, expected {count}"
                    )
            for name, _typecode in NUMERIC_COLUMNS:
                column = self._numeric[name]
                column.extend(numeric[name])
                if len(column) != target:
                    raise ValueError(
                        f"column {name!r}: got {len(column) - self._length} rows, expected {count}"
                    )
        except Exception:
            for name in CATEGORICAL_COLUMNS:
                del self._codes[name][self._length :]
            for name, _typecode in NUMERIC_COLUMNS:
                del self._numeric[name][self._length :]
            raise
        self._length = target
        if count:
            self._version += 1

    def adopt_columns(
        self,
        length: int,
        codes: Mapping[str, ColumnStorage],
        numeric: Mapping[str, ColumnStorage],
    ) -> None:
        """Adopt pre-built column objects wholesale (the lazy-load primitive).

        Unlike :meth:`append_columns`, the column objects themselves -- plain
        arrays or buffer-backed :class:`LazyColumn` views -- become the
        table's storage, so the zero-copy store read path can attach mapped
        columns without decoding them.  The table must be empty, every column
        must already have ``length`` rows, and the pools must already be
        interned (the codec does both before calling).
        """
        if self._length:
            raise ValueError("adopt_columns requires an empty table")
        for name in CATEGORICAL_COLUMNS:
            column = codes[name]
            if len(column) != length:
                raise ValueError(f"column {name!r}: {len(column)} codes for {length} rows")
            self._codes[name] = column
        for name, _typecode in NUMERIC_COLUMNS:
            column = numeric[name]
            if len(column) != length:
                raise ValueError(f"column {name!r}: {len(column)} values for {length} rows")
            self._numeric[name] = column
        self._length = length
        if length:
            self._version += 1

    def assign_numeric(self, name: str, values: Iterable) -> None:
        """Replace one numeric column wholesale (length-checked).

        Used by the batched NetFlow export to overwrite sampled byte and
        packet counts on a freshly filtered table without materializing
        records.
        """
        column = array(_NUMERIC_TYPECODES[name], values)
        if len(column) != self._length:
            raise ValueError(
                f"column {name!r}: got {len(column)} values for {self._length} rows"
            )
        self._materialize_for_write()
        self._numeric[name] = column
        self._version += 1

    # -- rows --------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def record_at(self, index: int) -> FlowRecord:
        """Materialize the record at one row index."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        pools = self._pools
        codes = self._codes
        numeric = self._numeric
        return FlowRecord(
            timestamp=pools["timestamp"].values[codes["timestamp"][index]],
            subscriber_id=numeric["subscriber_id"][index],
            subscriber_prefix=pools["subscriber_prefix"].values[codes["subscriber_prefix"][index]],
            ip_version=numeric["ip_version"][index],
            provider_key=pools["provider_key"].values[codes["provider_key"][index]],
            server_ip=pools["server_ip"].values[codes["server_ip"][index]],
            server_continent=pools["server_continent"].values[codes["server_continent"][index]],
            server_region=pools["server_region"].values[codes["server_region"][index]],
            transport=pools["transport"].values[codes["transport"][index]],
            port=numeric["port"][index],
            bytes_down=numeric["bytes_down"][index],
            bytes_up=numeric["bytes_up"][index],
            packets_down=numeric["packets_down"][index],
            packets_up=numeric["packets_up"][index],
            sampled=bool(numeric["sampled"][index]),
        )

    def to_records(self) -> List[FlowRecord]:
        """Materialize every row as a :class:`FlowRecord` (lossless)."""
        return [self.record_at(index) for index in range(self._length)]

    # -- column access -----------------------------------------------------------

    def is_categorical(self, name: str) -> bool:
        """True for dictionary-encoded columns."""
        return name in self._codes

    def codes(self, name: str) -> ColumnStorage:
        """The integer code column of a categorical column.

        Usually an ``array('i')``; on a table loaded zero-copy from the store
        it is a :class:`LazyColumn` view (same sequence protocol, and
        ``tobytes``/``typecode``/``itemsize`` for the codec).
        """
        return self._codes[name]

    def pool(self, name: str) -> List[object]:
        """The value pool of a categorical column (indexed by code)."""
        return self._pools[name].values

    def numeric(self, name: str) -> ColumnStorage:
        """The primitive column of a numeric column (array or lazy view)."""
        return self._numeric[name]

    def _key_column(self, name: str) -> Tuple[Sequence, Optional[List[object]]]:
        """Return (per-row key codes, decode pool or None) for a column."""
        if name in self._codes:
            return self._codes[name], self._pools[name].values
        return self._numeric[name], None

    # -- bulk filters ------------------------------------------------------------

    def select_mask(self, mask: Sequence[int]) -> "FlowTable":
        """Return a new table with the rows whose mask entry is truthy.

        ``mask`` needs one entry per row (``ValueError`` otherwise).  All 15
        columns go through one :func:`~repro.flows.kernels.filter_rows` call:
        one C-level pass per column on either backend, and under numpy lazy
        columns are read straight off the map.
        """
        from repro.flows import kernels

        kept = kernels.filter_rows(
            [self._codes[name] for name in CATEGORICAL_COLUMNS]
            + [self._numeric[name] for name in _NUMERIC_NAMES],
            mask,
        )
        table = FlowTable()
        table._pools = self._pools
        table._codes = dict(zip(CATEGORICAL_COLUMNS, kept))
        table._numeric = dict(zip(_NUMERIC_NAMES, kept[len(CATEGORICAL_COLUMNS) :]))
        table._length = len(kept[0])
        return table

    def _code_mask(self, name: str, predicate: Callable[[object], bool]) -> bytearray:
        """Per-code boolean mask of a categorical column's pool."""
        values = self._pools[name].values
        mask = bytearray(len(values))
        for code, value in enumerate(values):
            if predicate(value):
                mask[code] = 1
        return mask

    def mask_code(self, name: str, predicate: Callable[[object], bool]) -> bytearray:
        """Row mask over a categorical column; the predicate runs once per
        *distinct* value, the per-row expansion is one kernel call."""
        from repro.flows import kernels

        return kernels.expand_code_mask(self._codes[name], self._code_mask(name, predicate))

    def mask_day(self, day: date) -> bytearray:
        """Row mask selecting one calendar day."""
        return self.mask_code("timestamp", lambda ts: ts.date() == day)

    def mask_server_ips(self, ips: Iterable[str]) -> bytearray:
        """Row mask selecting flows whose server address is in the given set."""
        allowed = set(ips)
        return self.mask_code("server_ip", lambda ip: ip in allowed)

    def exclude_subscribers(self, subscriber_ids: Iterable[int]) -> "FlowTable":
        """Drop all rows of the given subscriber lines."""
        from repro.flows import kernels

        excluded = set(subscriber_ids)
        if not excluded:
            return self
        return self.select_mask(kernels.not_in_mask(self._numeric["subscriber_id"], excluded))

    # -- grouped aggregation -----------------------------------------------------

    def _group_codes(
        self, by: Sequence[str], mask: Optional[Sequence[int]] = None
    ) -> Tuple[Iterable, Callable[[object], GroupKey]]:
        """Per-row composite key iterator plus a decoder back to values.

        All-categorical key combinations are packed into single integers
        (mixed-radix over the pool sizes): int keys hash far faster than
        tuples of strings/datetimes, which is where grouped aggregations
        spend their time.  With ``mask``, each key column is compressed to
        the rows whose mask entry is truthy before packing, so only kept rows
        are keyed, in row order.  This is the python kernels' key source; the
        numpy builder packs whole columns instead (:mod:`repro.flows.kernels_np`).
        """
        columns = [self._key_column(name) for name in by]
        if mask is not None:
            columns = [(compress(keys, mask), pool) for keys, pool in columns]
        if len(by) == 1:
            keys, pool = columns[0]
            if pool is None:
                return keys, lambda key: key
            return keys, lambda key: pool[key]
        key_columns = [keys for keys, _pool in columns]
        pools = [pool for _keys, pool in columns]
        if all(name in self._codes for name in by):
            sizes = [len(pool) for pool in pools]
            if len(by) == 2:
                first, second = key_columns
                radix = sizes[1]
                first_pool, second_pool = pools

                def decode_pair(key: int) -> Tuple[object, object]:
                    return (first_pool[key // radix], second_pool[key % radix])

                return [a * radix + b for a, b in zip(first, second)], decode_pair

            def decode_packed(key: int) -> Tuple[object, ...]:
                parts: List[object] = []
                for size, pool in zip(reversed(sizes), reversed(pools)):
                    key, code = divmod(key, size)
                    parts.append(pool[code])
                return tuple(reversed(parts))

            packed: List[int] = []
            for row in zip(*key_columns):
                key = 0
                for code, size in zip(row, sizes):
                    key = key * size + code
                packed.append(key)
            return packed, decode_packed

        def decode(key: Tuple[int, ...]) -> Tuple[object, ...]:
            return tuple(part if pool is None else pool[part] for part, pool in zip(key, pools))

        return zip(*key_columns), decode

    def group_index(self, by: Sequence[str]) -> "kernels.GroupIndex":
        """The cached grouping permutation for a key-column combination.

        Built once per table revision and reused by every aggregation that
        shares the grouping; any mutation (:meth:`append_columns`,
        :meth:`assign_numeric`) bumps :attr:`_version`, so a stale index can
        never be returned.  Derived tables (:meth:`select_mask`) start with an
        empty cache of their own.
        """
        from repro.flows import kernels
        from repro.obs import metrics as obs_metrics

        by = tuple(by)
        cached = self._group_cache.get(by)
        if cached is not None and cached.version == self._version:
            if obs_metrics.enabled():
                obs_metrics.inc("flowtable.group_index_hits")
            return cached
        if obs_metrics.enabled():
            obs_metrics.inc("flowtable.group_index_builds")
        index = kernels.build_group_index(self, by)
        self._group_cache[by] = index
        return index

    def group_sums(
        self,
        by: Sequence[str],
        values: Sequence[str],
        mask: Optional[Sequence[int]] = None,
    ) -> Dict[GroupKey, List[float]]:
        """Sum one or more numeric columns per group key.

        ``by`` names any combination of columns; single-column keys decode to
        the bare value, multi-column keys to a tuple.  ``mask`` restricts the
        aggregation to the rows whose mask entry is truthy without copying
        any column.  Returns ``{key: [sum per value column]}``.

        Runs on the active :mod:`repro.flows.kernels` backend: the numpy
        kernels and unmasked python calls read the cached :meth:`group_index`,
        a masked python call groups only the kept rows.  All backends are
        bit-identical to the reference kernels (see
        ``tests/test_kernel_parity.py``).
        """
        from repro.flows import kernels

        return kernels.group_sums(self, by, values, mask)

    def group_sum(
        self, by: Sequence[str], value: str, mask: Optional[Sequence[int]] = None
    ) -> Dict[GroupKey, float]:
        """Sum one numeric column per group key."""
        return {key: sums[0] for key, sums in self.group_sums(by, (value,), mask=mask).items()}

    def group_pair_sums(
        self, by: str, first: str, second: str, mask: Optional[Sequence[int]] = None
    ) -> Dict[object, float]:
        """Per value of ``by``, the row-order sum of ``first + second`` (one pass)."""
        from repro.flows import kernels

        return kernels.group_pair_sums(self, by, first, second, mask)

    def group_distinct(
        self, by: Sequence[str], of: str, mask: Optional[Sequence[int]] = None
    ) -> Dict[GroupKey, Set[object]]:
        """Distinct values of one column per group key (mask-restrictable)."""
        from repro.flows import kernels

        return kernels.group_distinct(self, by, of, mask)

    def group_distinct_count(
        self, by: Sequence[str], of: str, mask: Optional[Sequence[int]] = None
    ) -> Dict[GroupKey, int]:
        """Number of distinct values of one column per group key."""
        from repro.flows import kernels

        return kernels.group_distinct_count(self, by, of, mask)

    def distinct(self, name: str) -> Set[object]:
        """Distinct values of one column across the whole table."""
        from repro.flows import kernels

        return kernels.distinct(self, name)

    def total(self, value: str) -> float:
        """Sum of one numeric column over all rows."""
        from repro.flows import kernels

        return kernels.total(self, value)
