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

On top of the columns the table offers bulk filters (:meth:`where_day`,
:meth:`exclude_subscribers`, :meth:`where_provider`, :meth:`where_ip_version`,
:meth:`restrict_server_ips`), row masks (:meth:`mask_code`, :meth:`mask_day`,
:meth:`mask_server_ips`, :meth:`mask_ip_version`) and grouped aggregations
(:meth:`group_sums`, :meth:`group_distinct`, :meth:`group_distinct_count`)
keyed by any column combination -- provider, hour, subscriber, port,
continent pair.  The Section 5 analyses in :mod:`repro.core.traffic` run on
these primitives instead of repeated linear passes over record lists.

Filters, masks and aggregations are all executed by the pluggable kernel
layer in :mod:`repro.flows.kernels` (pure-python loops, optional numpy
backend behind ``IOT_REPRO_KERNELS``).  Every filter ends in
:meth:`select_mask`, one row-filter kernel call.  A row mask must have
exactly one entry per row: :meth:`select_mask` and the grouped aggregations
raise ``ValueError`` naming both lengths otherwise.  The grouping permutation
is computed once per ``(table, key columns)`` pair -- :meth:`group_index` --
and cached until any mutating primitive (:meth:`extend`,
:meth:`append_columns`, :meth:`extend_table`, :meth:`truncate`,
:meth:`assign_numeric`) bumps the table's mutation counter, so analyses
sharing a grouping share the index.

``FlowTable`` iterates and indexes like a sequence of ``FlowRecord`` row
views (materialized on demand), and :meth:`from_records`/:meth:`to_records`
convert losslessly in both directions for tests and small hand-built inputs.
Filtered tables share the value pools of their parent, which keeps slicing
cheap.

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
from operator import attrgetter
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

_NUMERIC_TYPECODES = dict(NUMERIC_COLUMNS)
_NUMERIC_NAMES = tuple(_NUMERIC_TYPECODES)

#: One C-level fetch of every FlowRecord field, in conversion order.
_RECORD_FIELDS = attrgetter(
    "timestamp",
    "subscriber_prefix",
    "provider_key",
    "server_ip",
    "server_continent",
    "server_region",
    "transport",
    "subscriber_id",
    "ip_version",
    "port",
    "bytes_down",
    "bytes_up",
    "packets_down",
    "packets_up",
    "sampled",
)

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


def _seq(column: ColumnStorage) -> Sequence:
    """The directly indexable storage of a column (decodes lazy columns)."""
    if type(column) is LazyColumn:
        return column.materialize()
    return column


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

    def __getstate__(self) -> Dict[str, object]:
        # Group indexes are derived data; drop them so pickled tables (the
        # parallel-generation batch shipping path) stay compact and free of
        # backend-specific objects.  Lazy columns are decoded first: their
        # memoryviews over an mmap'd artifact cannot leave the process.
        state = dict(self.__dict__)
        state["_group_cache"] = {}
        state["_codes"] = {name: _seq(column) for name, column in self._codes.items()}
        state["_numeric"] = {name: _seq(column) for name, column in self._numeric.items()}
        return state

    def _materialize_for_write(self) -> None:
        """Copy-on-write barrier: decode every lazy column into a mutable array.

        Called by every mutating primitive before it touches a column, so a
        table loaded zero-copy from an mmap'd artifact silently detaches from
        the map the moment it stops being read-only -- the mapped bytes are
        never written through, and ``_version`` is only ever bumped on
        array-backed tables, exactly as on the eager path.
        """
        for name, column in self._codes.items():
            if type(column) is LazyColumn:
                self._codes[name] = column.materialize()
        for name, column in self._numeric.items():
            if type(column) is LazyColumn:
                self._numeric[name] = column.materialize()

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowTable":
        """Build a table from flow records (one full pass)."""
        table = cls()
        table.extend(records)
        return table

    @classmethod
    def concat(cls, tables: Sequence["FlowTable"]) -> "FlowTable":
        """Merge tables into a new one with canonical dictionary codes.

        Equivalent to ``from_records(t0.to_records() + t1.to_records() + ...)``
        — same rows, same pools, same codes, hence byte-identical under
        :func:`~repro.store.codec.dump_table` — but without materializing any
        records: each source table is remapped code-wise via
        :meth:`extend_table`.  This is the merge primitive behind parallel
        per-hour workload generation, where worker batches arrive with
        batch-local pools and must land in one canonically coded table.
        """
        table = cls()
        for source in tables:
            table.extend_table(source)
        return table

    def append(self, record: FlowRecord) -> None:
        """Append one record (intended for freshly built tables)."""
        self.extend((record,))

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

    def extend_table(self, other: "FlowTable") -> None:
        """Append another table's rows, remapping its dictionary codes.

        The result is exactly what ``self.extend(other.to_records())`` would
        produce: same rows, same pools, same codes.  Pools are per-column, so
        the record path's row-major interning order is reproduced by remapping
        column-at-a-time as long as each column's *novel* values are interned
        in the order their first-carrying row appears — which is exactly the
        iteration order of ``dict.fromkeys`` over the source code array.  Each
        distinct source code then pays one pool probe and every row two
        C-level dict lookups, regardless of pool size or sharing, so merging
        is far cheaper than re-encoding records.  Tables that already share
        this table's pools (slices, mask selections) skip the remap entirely.

        Like :meth:`append_columns`, the append is atomic on the columns: the
        remapped code arrays are fully built before any column is extended.
        (Pools are append-only, so entries interned by a failed call are
        harmless.)
        """
        count = other._length
        if other._pools is self._pools:
            remapped: Dict[str, Sequence[int]] = {
                name: other._codes[name] for name in CATEGORICAL_COLUMNS
            }
        else:
            remapped = {}
            for name in CATEGORICAL_COLUMNS:
                source = other._codes[name]
                pool = other._pools[name].values
                encode = self._pools[name].encode
                remap = {code: encode(pool[code]) for code in dict.fromkeys(source)}
                remapped[name] = array("i", map(remap.__getitem__, source))
        self.append_columns(
            count,
            codes=remapped,
            numeric={name: other._numeric[name] for name, _typecode in NUMERIC_COLUMNS},
        )

    def truncate(self, length: int) -> None:
        """Drop every row at index ``length`` or beyond (pools are untouched).

        Parallel generation workers reuse one pool-context table across hour
        batches: each batch is appended, compacted out via :meth:`concat`, and
        truncated away again so worker memory stays flat while the interned
        plan values keep their codes.
        """
        if length < 0 or length > self._length:
            raise ValueError(f"cannot truncate {self._length} rows to {length}")
        self._materialize_for_write()
        if length != self._length:
            self._version += 1
        for name in CATEGORICAL_COLUMNS:
            del self._codes[name][length:]
        for name, _typecode in NUMERIC_COLUMNS:
            del self._numeric[name][length:]
        self._length = length

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

    def extend(self, records: Iterable[FlowRecord]) -> None:
        """Append many records.

        This is the conversion hot path (one call per raw flow corpus), so the
        dictionary encoding is inlined with pre-bound column methods instead of
        going through per-field lookups.
        """
        self._materialize_for_write()
        encoders = []
        for name in CATEGORICAL_COLUMNS:
            pool = self._pools[name]
            encoders.append((self._codes[name].append, pool.code_of, pool.values))
        (
            (ts_append, ts_codes, ts_values),
            (prefix_append, prefix_codes, prefix_values),
            (provider_append, provider_codes, provider_values),
            (ip_append, ip_codes, ip_values),
            (continent_append, continent_codes, continent_values),
            (region_append, region_codes, region_values),
            (transport_append, transport_codes, transport_values),
        ) = encoders
        numeric = self._numeric
        subscriber_append = numeric["subscriber_id"].append
        version_append = numeric["ip_version"].append
        port_append = numeric["port"].append
        down_append = numeric["bytes_down"].append
        up_append = numeric["bytes_up"].append
        packets_down_append = numeric["packets_down"].append
        packets_up_append = numeric["packets_up"].append
        sampled_append = numeric["sampled"].append
        fields = _RECORD_FIELDS
        count = 0
        for record in records:
            (
                timestamp,
                prefix,
                provider,
                server_ip,
                continent,
                region,
                transport,
                subscriber,
                version,
                port,
                down,
                up,
                packets_down,
                packets_up,
                sampled,
            ) = fields(record)
            code = ts_codes.get(timestamp)
            if code is None:
                code = ts_codes[timestamp] = len(ts_values)
                ts_values.append(timestamp)
            ts_append(code)
            code = prefix_codes.get(prefix)
            if code is None:
                code = prefix_codes[prefix] = len(prefix_values)
                prefix_values.append(prefix)
            prefix_append(code)
            code = provider_codes.get(provider)
            if code is None:
                code = provider_codes[provider] = len(provider_values)
                provider_values.append(provider)
            provider_append(code)
            code = ip_codes.get(server_ip)
            if code is None:
                code = ip_codes[server_ip] = len(ip_values)
                ip_values.append(server_ip)
            ip_append(code)
            code = continent_codes.get(continent)
            if code is None:
                code = continent_codes[continent] = len(continent_values)
                continent_values.append(continent)
            continent_append(code)
            code = region_codes.get(region)
            if code is None:
                code = region_codes[region] = len(region_values)
                region_values.append(region)
            region_append(code)
            code = transport_codes.get(transport)
            if code is None:
                code = transport_codes[transport] = len(transport_values)
                transport_values.append(transport)
            transport_append(code)
            subscriber_append(subscriber)
            version_append(version)
            port_append(port)
            down_append(down)
            up_append(up)
            packets_down_append(packets_down)
            packets_up_append(packets_up)
            sampled_append(1 if sampled else 0)
            count += 1
        self._length += count
        if count:
            self._version += 1

    # -- sequence protocol -------------------------------------------------------

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

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[FlowRecord, "FlowTable"]:
        """Sequence indexing: an int (negative allowed) materializes one record,
        a slice returns a new :class:`FlowTable` sharing the value pools."""
        if isinstance(index, slice):
            return self.select(range(*index.indices(self._length)))
        return self.record_at(index)

    def __iter__(self) -> Iterator[FlowRecord]:
        for index in range(self._length):
            yield self.record_at(index)

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

    def column(self, name: str) -> List[object]:
        """The fully decoded values of any column (one list per call)."""
        if name in self._codes:
            values = self._pools[name].values
            return [values[code] for code in self._codes[name]]
        if name == "sampled":
            return [bool(flag) for flag in self._numeric[name]]
        return list(self._numeric[name])

    def _key_column(self, name: str) -> Tuple[Sequence, Optional[List[object]]]:
        """Return (per-row key codes, decode pool or None) for a column."""
        if name in self._codes:
            return self._codes[name], self._pools[name].values
        return self._numeric[name], None

    # -- bulk filters ------------------------------------------------------------

    def select(self, indices: Sequence[int]) -> "FlowTable":
        """Return a new table with the given rows, sharing the value pools."""
        table = FlowTable()
        table._pools = self._pools
        for name in CATEGORICAL_COLUMNS:
            source = _seq(self._codes[name])
            table._codes[name] = array("i", map(source.__getitem__, indices))
        for name, typecode in NUMERIC_COLUMNS:
            source = _seq(self._numeric[name])
            table._numeric[name] = array(typecode, map(source.__getitem__, indices))
        table._length = len(indices)
        return table

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

    def mask_ip_version(self, ip_version: int) -> bytearray:
        """Row mask selecting one address family."""
        from repro.flows import kernels

        return kernels.equal_mask(self._numeric["ip_version"], ip_version)

    def where_code(self, name: str, predicate: Callable[[object], bool]) -> "FlowTable":
        """Rows whose categorical column value satisfies a predicate.

        The predicate runs once per *distinct* value, not once per row.
        Prefer passing a mask (:meth:`mask_code`) straight to the grouped
        aggregations when the filtered table is used only once -- that skips
        the 15-column row copy entirely.
        """
        return self.select_mask(self.mask_code(name, predicate))

    def where_day(self, day: date) -> "FlowTable":
        """Rows whose timestamp falls on the given calendar day."""
        return self.where_code("timestamp", lambda ts: ts.date() == day)

    def where_provider(self, provider_key: str) -> "FlowTable":
        """Rows of one provider."""
        return self.where_code("provider_key", lambda key: key == provider_key)

    def restrict_server_ips(self, ips: Iterable[str]) -> "FlowTable":
        """Rows whose server address is in the given set."""
        allowed = set(ips)
        return self.where_code("server_ip", lambda ip: ip in allowed)

    def where_ip_version(self, ip_version: int) -> "FlowTable":
        """Rows of one address family."""
        return self.select_mask(self.mask_ip_version(ip_version))

    def exclude_subscribers(self, subscriber_ids: Iterable[int]) -> "FlowTable":
        """Drop all rows of the given subscriber lines."""
        from repro.flows import kernels

        excluded = set(subscriber_ids)
        if not excluded:
            return self
        return self.select_mask(kernels.not_in_mask(self._numeric["subscriber_id"], excluded))

    # -- grouped aggregation -----------------------------------------------------

    def _group_codes(self, by: Sequence[str]) -> Tuple[Iterable, Callable[[object], GroupKey]]:
        """Per-row composite key iterator plus a decoder back to values.

        All-categorical key combinations are packed into single integers
        (mixed-radix over the pool sizes): int keys hash far faster than
        tuples of strings/datetimes, which is where grouped aggregations
        spend their time.  This is the python builder's key source; the numpy
        builder packs whole columns instead (:mod:`repro.flows.kernels_np`).
        """
        if len(by) == 1:
            keys, pool = self._key_column(by[0])
            if pool is None:
                return keys, lambda key: key
            return keys, lambda key: pool[key]
        if all(name in self._codes for name in by):
            code_arrays = [self._codes[name] for name in by]
            pools = [self._pools[name].values for name in by]
            sizes = [len(pool) for pool in pools]
            if len(by) == 2:
                first, second = code_arrays
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
            for row in zip(*code_arrays):
                key = 0
                for code, size in zip(row, sizes):
                    key = key * size + code
                packed.append(key)
            return packed, decode_packed
        columns = [self._key_column(name) for name in by]
        key_pools = [pool for _keys, pool in columns]

        def decode(key: Tuple[int, ...]) -> Tuple[object, ...]:
            return tuple(
                part if pool is None else pool[part] for part, pool in zip(key, key_pools)
            )

        return zip(*(keys for keys, _pool in columns)), decode

    def group_index(self, by: Sequence[str]) -> "kernels.GroupIndex":
        """The cached grouping permutation for a key-column combination.

        Built once per table revision and reused by every aggregation that
        shares the grouping; any mutation (:meth:`extend`,
        :meth:`append_columns`, :meth:`extend_table`, :meth:`truncate`,
        :meth:`assign_numeric`) bumps :attr:`_version`, so a stale index can
        never be returned.  Derived tables (:meth:`select`, slices) start
        with an empty cache of their own.
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

        Runs on the active :mod:`repro.flows.kernels` backend over the cached
        :meth:`group_index`; all backends are bit-identical to the reference
        kernels (see ``tests/test_kernel_parity.py``).
        """
        from repro.flows import kernels

        return kernels.group_sums(self, by, values, mask)

    def group_sum(
        self, by: Sequence[str], value: str, mask: Optional[Sequence[int]] = None
    ) -> Dict[GroupKey, float]:
        """Sum one numeric column per group key."""
        return {key: sums[0] for key, sums in self.group_sums(by, (value,), mask=mask).items()}

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
