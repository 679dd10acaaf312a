"""Binary serialization for flow tables and discovery-pipeline results.

Two artifact families share the same no-pickle, tagged-scalar byte style:

**Flow tables.**  The format mirrors the table's in-memory layout, so
serialization is a straight dump of each column and deserialization rebuilds
the table without a per-row decode step:

* a fixed header (magic, codec version, byte order, row count),
* one block per dictionary-encoded column: the value pool as tagged scalars
  (str / int / float / bool / date / datetime / None) followed by the raw
  bytes of the ``array('i')`` code column,
* one block per numeric column: typecode plus the raw ``array`` bytes.

Raw column bytes round-trip bit-exactly (floats keep their bit pattern), so
``loads_table(dumps_table(t)).to_records() == t.to_records()`` holds for any
table.  The byte order of the writing host is recorded in the header and the
arrays are byte-swapped on load when it differs, so artifacts are portable.

**Discovery footprints.**  :func:`dump_discovery` /
:func:`dump_pipeline_result` persist a
:class:`~repro.core.discovery.DiscoveryResult` or a full
:class:`~repro.core.pipeline.PipelineResult` (daily results, combined set,
shared-IP validation, per-provider footprints, ground truth, and the pattern
set that produced it) in the same tagged-pool style: every scalar of a
discovery result goes through a deduplicating value pool (provider keys,
addresses, sources, and domains repeat heavily) and structures reference pool
indices.  A discovery result is written in one walk: the pool and the body's
uint32 references are collected together, then written in a few calls.
``load_pipeline_result(dump_pipeline_result(r)) == r`` holds
dataclass-for-dataclass.

**Zero-copy reads.**  One structural pass parses every flow table: it reads
the header, the value pools, and the block offset table of a serialized table
held in a byte buffer, and wraps every code/numeric column in a
:class:`~repro.flows.flowtable.LazyColumn` over the buffer instead of copying
it.  :func:`load_table_lazy` returns that table as is; :func:`load_table_mmap`
mmaps a payload file and does the same over the map, so a warm start touches
no column bytes until an analysis does; :func:`load_table` and
:func:`loads_table` decode every column afterwards.  The structural checks
(magic, versions, schema, pool integrity, block offsets and lengths against
the header row count and the buffer size) run in the pass, so truncation and
length-field corruption raise :class:`StoreFormatError` at load time; the
per-code range check is deferred into the lazy column and raises on first
touch.  It tests a decoded ``array('i')`` on its byte planes in C
(:func:`~repro.flows.kernels.codes_in_range`) and a numpy view by its minimum
and maximum.  Artifacts written by a foreign-byte-order host, or with a code
block of another integer typecode than ``'i'``, get a narrow decode step at
the end of the same pass (every column decoded, byteswapped or narrowed, and
range-checked); each such load is counted by reason under
``store.mmap_fallbacks`` while metrics are on.

No pickle is involved anywhere: a corrupted or truncated file raises
:class:`StoreFormatError` instead of executing anything.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from datetime import date, datetime
from itertools import islice
from typing import BinaryIO, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.flows import kernels
from repro.flows.flowtable import (
    CATEGORICAL_COLUMNS,
    NUMERIC_COLUMNS,
    ColumnStorage,
    FlowTable,
    LazyColumn,
)
from repro.obs import metrics as obs_metrics

#: Bump on any incompatible change to the byte layout below.
CODEC_VERSION = 1

#: Bump on any incompatible change to the discovery/pipeline byte layout.
DISCOVERY_CODEC_VERSION = 1

_MAGIC = b"RFTB"
_MAGIC_DISCOVERY = b"RDSC"
_MAGIC_PIPELINE = b"RPPL"
_LITTLE = 0
_BIG = 1
_LOCAL_ORDER = _LITTLE if sys.byteorder == "little" else _BIG

#: ``array`` typecodes a code block may carry (the writer always uses ``'i'``).
_CODE_TYPECODES = "bBhHiIlLqQ"

#: Counter prefix for loads that take the narrow decode step instead of
#: staying lazy; the reason (``byte_order``, ``typecode``) is the last name
#: component.
MMAP_FALLBACK_COUNTER = "store.mmap_fallbacks"

# Tagged scalar encoding for pool values.
_TAG_NONE = 0
_TAG_STR = 1
_TAG_INT = 2
_TAG_FLOAT = 3
_TAG_BOOL = 4
_TAG_DATETIME = 5
_TAG_DATE = 6


#: Precompiled layouts of the discovery codec's hot loops.
_U32 = struct.Struct("<I")
_U32X3 = struct.Struct("<III")
#: A pooled string's tag and byte length.
_STR_HEADER = struct.Struct("<BI")


class StoreFormatError(ValueError):
    """Raised when a serialized table is corrupt, truncated, or incompatible."""


def _write_str(write: Callable[[bytes], object], text: str) -> None:
    data = text.encode("utf-8")
    write(struct.pack("<I", len(data)))
    write(data)


def _write_value(write: Callable[[bytes], object], value: object) -> None:
    if value is None:
        write(struct.pack("<B", _TAG_NONE))
    elif isinstance(value, bool):  # before int: bool is an int subclass
        write(struct.pack("<BB", _TAG_BOOL, 1 if value else 0))
    elif isinstance(value, int):
        write(struct.pack("<Bq", _TAG_INT, value))
    elif isinstance(value, float):
        write(struct.pack("<Bd", _TAG_FLOAT, value))
    elif isinstance(value, datetime):  # before date: datetime is a date subclass
        write(struct.pack("<B", _TAG_DATETIME))
        _write_str(write, value.isoformat())
    elif isinstance(value, date):
        write(struct.pack("<B", _TAG_DATE))
        _write_str(write, value.isoformat())
    elif isinstance(value, str):
        write(struct.pack("<B", _TAG_STR))
        _write_str(write, value)
    else:
        raise StoreFormatError(f"unsupported pool value type {type(value).__name__!r}")


def _write_array(write: Callable[[bytes], object], column: array) -> None:
    payload = column.tobytes()
    write(struct.pack("<cBQ", column.typecode.encode("ascii"), column.itemsize, len(payload)))
    write(payload)


def dump_table(table: FlowTable, stream: BinaryIO) -> None:
    """Serialize a table to a binary stream."""
    write = stream.write
    write(_MAGIC)
    write(struct.pack("<BBQ", CODEC_VERSION, _LOCAL_ORDER, len(table)))
    write(struct.pack("<H", len(CATEGORICAL_COLUMNS)))
    for name in CATEGORICAL_COLUMNS:
        _write_str(write, name)
        pool = table.pool(name)
        write(struct.pack("<I", len(pool)))
        for value in pool:
            _write_value(write, value)
        _write_array(write, table.codes(name))
    write(struct.pack("<H", len(NUMERIC_COLUMNS)))
    for name, _typecode in NUMERIC_COLUMNS:
        _write_str(write, name)
        _write_array(write, table.numeric(name))


def dumps_table(table: FlowTable) -> bytes:
    """Serialize a table to bytes."""
    buffer = io.BytesIO()
    dump_table(table, buffer)
    return buffer.getvalue()


class _Reader:
    """Bounds-checked cursor over one serialized payload held in memory.

    ``view`` is a ``memoryview`` (the table parser: :meth:`take_view` slices
    alias the buffer, so column payloads stay on a mapped file until first
    touch) or ``bytes`` (the discovery codec: slices are small copies).
    Reading past the end raises :class:`StoreFormatError` before anything
    is allocated, so a corrupt length field cannot trigger a huge read.
    """

    __slots__ = ("_view", "_pos")

    def __init__(self, view: Union[bytes, memoryview]) -> None:
        self._view = view
        self._pos = 0

    def take_view(self, count: int) -> Union[bytes, memoryview]:
        end = self._pos + count
        if count < 0 or end > len(self._view):
            raise StoreFormatError(
                f"truncated table: wanted {count} bytes, "
                f"only {len(self._view) - self._pos} remain"
            )
        view = self._view[self._pos : end]
        self._pos = end
        return view

    def take(self, count: int) -> bytes:
        return bytes(self.take_view(count))

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        view, start = self._view, self._pos + 4
        if start > len(view):
            raise StoreFormatError("truncated table: string length runs past the end")
        end = start + _U32.unpack_from(view, self._pos)[0]
        if end > len(view):
            raise StoreFormatError(
                f"truncated table: wanted {end - start} bytes, only {len(view) - start} remain"
            )
        self._pos = end
        try:
            return str(view[start:end], "utf-8")
        except UnicodeDecodeError as error:
            raise StoreFormatError(f"corrupt string field: {error}") from None

    def read_value(self) -> object:
        (tag,) = self.unpack("<B")
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_BOOL:
            return bool(self.unpack("<B")[0])
        if tag == _TAG_INT:
            return self.unpack("<q")[0]
        if tag == _TAG_FLOAT:
            return self.unpack("<d")[0]
        if tag == _TAG_DATETIME:
            text = self.read_str()
            try:
                return datetime.fromisoformat(text)
            except ValueError as error:
                raise StoreFormatError(f"corrupt datetime field: {error}") from None
        if tag == _TAG_DATE:
            text = self.read_str()
            try:
                return date.fromisoformat(text)
            except ValueError as error:
                raise StoreFormatError(f"corrupt date field: {error}") from None
        if tag == _TAG_STR:
            return self.read_str()
        raise StoreFormatError(f"unknown pool value tag {tag}")

    def read_array_header(self) -> Tuple[str, int, int]:
        """Validate one array block header; return ``(typecode, itemsize, nbytes)``."""
        typecode_raw, itemsize, nbytes = self.unpack("<cBQ")
        try:
            typecode = typecode_raw.decode("ascii")
            probe = array(typecode)
        except (UnicodeDecodeError, ValueError):
            raise StoreFormatError(f"bad array typecode {typecode_raw!r}") from None
        if probe.itemsize != itemsize:
            raise StoreFormatError(
                f"array {typecode!r} itemsize mismatch: stored {itemsize}, "
                f"local {probe.itemsize}"
            )
        if nbytes % itemsize:
            raise StoreFormatError(
                f"array byte length {nbytes} is not a multiple of itemsize {itemsize}"
            )
        return typecode, itemsize, nbytes


def _code_bounds_validator(
    name: str, pool_size: int, on_bad_code: Optional[Callable[[], None]] = None
) -> Callable[[Sequence], None]:
    """The per-code range check of one code column.

    Runs against whichever representation is decoded first.  An
    ``array('i')`` is checked on its byte planes, in C
    (:func:`~repro.flows.kernels.codes_in_range`); a numpy view, or a column
    that helper declines, by its minimum and maximum.  ``on_bad_code`` runs
    just before the check raises.
    """

    def validate(column: Sequence) -> None:
        if not len(column):
            return
        in_range = kernels.codes_in_range(column, pool_size)
        if in_range is None:
            try:
                low, high = column.min(), column.max()  # numpy view
            except AttributeError:
                low, high = min(column), max(column)
            in_range = low >= 0 and high < pool_size
        if not in_range:
            if on_bad_code is not None:
                on_bad_code()
            raise StoreFormatError(f"column {name!r}: code out of pool range")

    return validate


def _decode(typecode: str, payload: memoryview, swap: bool) -> array:
    """Copy one column payload into an ``array``, byteswapped if ``swap``."""
    column = array(typecode)
    column.frombytes(payload)
    if swap:
        column.byteswap()
    return column


def _parse_table(
    view: memoryview, on_bad_code: Optional[Callable[[], None]] = None
) -> Tuple[FlowTable, int]:
    """Parse one serialized table from ``view``; return it and its byte length.

    The only flow-table parser.  It reads the header, value pools, and every
    block header, so all structural corruption (bad magic/version, schema
    mismatches, truncation, oversized or ragged length fields, duplicate pool
    values, non-integer code blocks) raises :class:`StoreFormatError` here.
    Each column payload is wrapped in a
    :class:`~repro.flows.flowtable.LazyColumn` view over ``view`` instead of
    being decoded, and the per-code range check is deferred into each code
    column; ``on_bad_code`` runs when that check fails, before it raises.

    An artifact written by a foreign-byte-order host, or with a code block of
    another integer typecode than ``'i'``, cannot stay a view.  For it the
    pass ends in a narrow decode step: every column is decoded, byteswapped
    or narrowed to ``'i'``, and range-checked now, and the load counts
    ``store.mmap_fallbacks.byte_order`` or ``.typecode``
    (:data:`MMAP_FALLBACK_COUNTER`) while metrics are on.
    """
    reader = _Reader(view)
    if reader.take(len(_MAGIC)) != _MAGIC:
        raise StoreFormatError("not a serialized FlowTable (bad magic)")
    version, byte_order, length = reader.unpack("<BBQ")
    if version != CODEC_VERSION:
        raise StoreFormatError(
            f"unsupported codec version {version} (expected {CODEC_VERSION})"
        )
    if byte_order not in (_LITTLE, _BIG):
        raise StoreFormatError(f"bad byte-order flag {byte_order}")

    (n_categorical,) = reader.unpack("<H")
    if n_categorical != len(CATEGORICAL_COLUMNS):
        raise StoreFormatError(
            f"categorical column count mismatch: stored {n_categorical}, "
            f"schema has {len(CATEGORICAL_COLUMNS)}"
        )
    table = FlowTable()
    pool_sizes: Dict[str, int] = {}
    codes: Dict[str, ColumnStorage] = {}
    for expected in CATEGORICAL_COLUMNS:
        name = reader.read_str()
        if name != expected:
            raise StoreFormatError(
                f"categorical column order mismatch: stored {name!r}, expected {expected!r}"
            )
        (pool_size,) = reader.unpack("<I")
        pool: List[object] = [reader.read_value() for _ in range(pool_size)]
        typecode, itemsize, nbytes = reader.read_array_header()
        if typecode not in _CODE_TYPECODES:
            raise StoreFormatError(
                f"column {name!r}: code typecode {typecode!r} is not an integer type"
            )
        payload = reader.take_view(nbytes)
        if nbytes // itemsize != length:
            raise StoreFormatError(
                f"column {name!r}: {nbytes // itemsize} codes for {length} rows"
            )
        # Re-interning the pool in order reproduces the original codes, so the
        # code column can be adopted verbatim.  Re-interning deduplicates, so
        # a corrupt pool with repeated values would otherwise shrink and leave
        # codes dangling past its end — reject it here, not at first access.
        for value in pool:
            table.encode_value(name, value)
        if len(table.pool(name)) != pool_size:
            raise StoreFormatError(f"column {name!r}: pool contains duplicate values")
        pool_sizes[name] = pool_size
        codes[name] = LazyColumn(
            typecode, payload, validate=_code_bounds_validator(name, pool_size, on_bad_code)
        )

    (n_numeric,) = reader.unpack("<H")
    if n_numeric != len(NUMERIC_COLUMNS):
        raise StoreFormatError(
            f"numeric column count mismatch: stored {n_numeric}, "
            f"schema has {len(NUMERIC_COLUMNS)}"
        )
    numeric: Dict[str, ColumnStorage] = {}
    for expected, typecode in NUMERIC_COLUMNS:
        name = reader.read_str()
        if name != expected:
            raise StoreFormatError(
                f"numeric column order mismatch: stored {name!r}, expected {expected!r}"
            )
        stored, itemsize, nbytes = reader.read_array_header()
        if stored != typecode:
            raise StoreFormatError(
                f"column {name!r}: stored typecode {stored!r}, "
                f"schema expects {typecode!r}"
            )
        payload = reader.take_view(nbytes)
        if nbytes // itemsize != length:
            raise StoreFormatError(
                f"column {name!r}: {nbytes // itemsize} values for {length} rows"
            )
        numeric[name] = LazyColumn(typecode, payload)

    swap = byte_order != _LOCAL_ORDER
    if swap or any(column.typecode != "i" for column in codes.values()):
        # The narrow decode step: these columns cannot stay views of the buffer.
        obs_metrics.inc(f"{MMAP_FALLBACK_COUNTER}.{'byte_order' if swap else 'typecode'}")
        for name, column in codes.items():
            decoded = _decode(column.typecode, column.buffer, swap)
            _code_bounds_validator(name, pool_sizes[name])(decoded)
            # In-range codes of another integer width fit the table's 'i' column.
            codes[name] = decoded if decoded.typecode == "i" else array("i", decoded)
        for name, column in numeric.items():
            numeric[name] = _decode(column.typecode, column.buffer, swap)
    table.adopt_columns(length, codes, numeric)
    return table, reader._pos


def load_table(stream: BinaryIO) -> FlowTable:
    """Deserialize a table written by :func:`dump_table`, every column decoded.

    Reads the rest of the stream and parses one table from it; a seekable
    stream is then positioned just past that table, so trailing bytes stay
    unread.
    """
    data = stream.read()
    table, end = _parse_table(memoryview(data))
    table._materialize_for_write()
    if end < len(data) and stream.seekable():
        stream.seek(end - len(data), io.SEEK_CUR)
    return table


def loads_table(data: bytes) -> FlowTable:
    """Deserialize a table from bytes, every column decoded."""
    table, _end = _parse_table(memoryview(data))
    table._materialize_for_write()
    return table


def load_table_lazy(buffer: Union[bytes, bytearray, memoryview]) -> FlowTable:
    """Deserialize a table from a byte buffer without copying column bytes.

    Structural corruption raises :class:`StoreFormatError` here, exactly as in
    :func:`loads_table`; the columns stay :class:`~repro.flows.flowtable.LazyColumn`
    views over ``buffer``, and an out-of-pool code raises on first touch of
    its column.
    """
    return _parse_table(memoryview(buffer))[0]


def load_table_mmap(
    path: Union[str, "os.PathLike"], on_bad_code: Optional[Callable[[], None]] = None
) -> FlowTable:
    """mmap a serialized table file and parse it like :func:`load_table_lazy`.

    ``on_bad_code`` runs when the deferred range check of a code column fails
    at first touch, just before that touch raises; the artifact store uses it
    to discard the artifact.  The file descriptor is closed immediately (the
    mapping survives it); the mapping itself stays alive exactly as long as
    any column view over it -- plain refcounting, no explicit close, so
    handing columns to numpy via ``frombuffer`` can never hit a
    ``BufferError``.  Empty files (``mmap`` refuses zero-length maps) raise
    :class:`StoreFormatError` like any other corrupt payload.
    """
    import mmap

    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:
            raise StoreFormatError(f"cannot map table file: {error}") from None
    return _parse_table(memoryview(mapped), on_bad_code)[0]


# ---------------------------------------------------------------------------
# Discovery footprints (DiscoveryResult / PipelineResult)
# ---------------------------------------------------------------------------


class _ValuePool:
    """An interning pool of tagged scalars, written once and referenced by index."""

    __slots__ = ("_index", "values")

    def __init__(self) -> None:
        self._index: Dict[Tuple[type, object], int] = {}
        self.values: List[object] = []

    def add(self, value: object) -> int:
        key = (value.__class__, value)
        index = self._index.get(key)
        if index is None:
            index = len(self.values)
            self._index[key] = index
            self.values.append(value)
        return index


def _check_refs(pool: List[object], refs: Sequence[int]) -> None:
    """Raise :class:`StoreFormatError` unless every reference names a pooled string."""
    for index in refs:
        if index >= len(pool):
            raise StoreFormatError(f"pool reference {index} out of range")
        if not isinstance(pool[index], str):
            raise StoreFormatError(f"pool reference {index} is not a string")


def _read_pool(reader: _Reader) -> Tuple[List[object], bool]:
    """Read one value pool; return it and whether every value is a string.

    Strings, nearly all of a discovery pool, are decoded inline.
    """
    (size,) = reader.unpack("<I")
    data = reader._view
    end = len(data)
    pos = reader._pos
    if size > end - pos:
        # Every value takes at least its tag byte.
        raise StoreFormatError(f"truncated table: {size} pool values, {end - pos} bytes left")
    pool: List[object] = []
    append = pool.append
    unpack_length = _U32.unpack_from
    all_strings = True
    try:
        for _ in range(size):
            if pos + 5 <= end and data[pos] == _TAG_STR:
                start = pos + 5
                pos = start + unpack_length(data, pos + 1)[0]
                if pos > end:
                    raise StoreFormatError("truncated table: string runs past the end")
                append(str(data[start:pos], "utf-8"))
            else:
                # Any other tag; a string can only land here truncated, and raises.
                reader._pos = pos
                append(reader.read_value())
                pos = reader._pos
                all_strings = False
    except UnicodeDecodeError as error:
        raise StoreFormatError(f"corrupt string field: {error}") from None
    reader._pos = pos
    return pool, all_strings


def _read_discovery(reader: _Reader):
    """Decode one block written by :func:`dump_discovery` at the reader's offset.

    After the pool, the records are decoded by one loop of ``unpack_from``
    calls over the buffer: a record's header in one call, all its source
    and domain references in another.  Truncation, out-of-range references
    and references to non-string values raise :class:`StoreFormatError`.
    """
    from repro.core.discovery import DiscoveredIP, DiscoveryResult

    if reader.take(len(_MAGIC_DISCOVERY)) != _MAGIC_DISCOVERY:
        raise StoreFormatError("not a serialized DiscoveryResult (bad magic)")
    (version,) = reader.unpack("<B")
    if version != DISCOVERY_CODEC_VERSION:
        raise StoreFormatError(
            f"unsupported discovery codec version {version} "
            f"(expected {DISCOVERY_CODEC_VERSION})"
        )
    pool, all_strings = _read_pool(reader)
    day = reader.read_value()
    if day is not None and (not isinstance(day, date) or isinstance(day, datetime)):
        raise StoreFormatError("discovery day is not a date")
    result = DiscoveryResult(day=day)
    (n_providers,) = reader.unpack("<I")
    n_pool = len(pool)
    lookup = pool.__getitem__
    data = reader._view
    end = len(data)
    pos = reader._pos
    unpack_header = _U32X3.unpack_from
    unpack_from = struct.unpack_from
    for _ in range(n_providers):
        reader._pos = pos
        provider_ref, n_ips = reader.unpack("<II")
        pos = reader._pos
        _check_refs(pool, (provider_ref,))
        provider_key = pool[provider_ref]
        bucket = result.per_provider.setdefault(provider_key, {})
        for _ in range(n_ips):
            stop = pos + 12
            if stop > end:
                raise StoreFormatError("truncated table: discovery record header")
            ip_ref, n_sources, n_domains = unpack_header(data, pos)
            pos = stop
            n_refs = n_sources + n_domains
            stop = pos + 4 * n_refs
            if stop > end:
                raise StoreFormatError("truncated table: discovery record references")
            refs = unpack_from(f"<{n_refs}I", data, pos)
            pos = stop
            if not all_strings or ip_ref >= n_pool or (refs and max(refs) >= n_pool):
                _check_refs(pool, (ip_ref, *refs))
            ip = pool[ip_ref]
            # The first n_sources references are sources, the rest domains.
            values = map(lookup, refs)
            record = DiscoveredIP(ip, provider_key, set(islice(values, n_sources)), set(values))
            existing = bucket.get(ip)
            if existing is None:
                bucket[ip] = record
            else:
                existing.merge(record)
    reader._pos = pos
    return result


def dump_discovery(result, stream: BinaryIO) -> None:
    """Serialize a :class:`~repro.core.discovery.DiscoveryResult` to a stream.

    One walk over the result in canonical sorted order (providers, then
    addresses, then each record's sorted sources and domains) interns every
    scalar in the value pool, first reference first, and collects the body's
    uint32 references.  Then it writes the pool (string values packed in one
    ``join``), the day, the provider count and the whole body in one
    ``struct.pack``.
    """
    pool = _ValuePool()
    add = pool.add
    body: List[int] = []
    per_provider = result.per_provider
    for provider_key in sorted(per_provider):
        bucket = per_provider[provider_key]
        body += (add(provider_key), len(bucket))
        for ip in sorted(bucket):
            record = bucket[ip]
            sources = sorted(record.sources)
            domains = sorted(record.domains)
            body += (add(ip), len(sources), len(domains))
            body += map(add, sources)
            body += map(add, domains)
    parts = [_MAGIC_DISCOVERY, struct.pack("<BI", DISCOVERY_CODEC_VERSION, len(pool.values))]
    for value in pool.values:
        if isinstance(value, str):
            data = value.encode("utf-8")
            parts += (_STR_HEADER.pack(_TAG_STR, len(data)), data)
        else:
            _write_value(parts.append, value)
    _write_value(parts.append, result.day)
    parts.append(struct.pack(f"<I{len(body)}I", len(per_provider), *body))
    stream.write(b"".join(parts))


def dumps_discovery(result) -> bytes:
    """Serialize a discovery result to bytes."""
    buffer = io.BytesIO()
    dump_discovery(result, buffer)
    return buffer.getvalue()


def loads_discovery(data: bytes):
    """Deserialize a discovery result from bytes."""
    return _read_discovery(_Reader(bytes(data)))


def _write_str_tuple(write: Callable[[bytes], object], values) -> None:
    write(struct.pack("<I", len(values)))
    for value in values:
        _write_str(write, value)


def _read_str_tuple(reader: _Reader) -> Tuple[str, ...]:
    (count,) = reader.unpack("<I")
    return tuple(reader.read_str() for _ in range(count))


def _write_location(write: Callable[[bytes], object], location) -> None:
    if location is None:
        write(struct.pack("<B", 0))
        return
    write(struct.pack("<B", 1))
    for text in (
        location.city,
        location.airport_code,
        location.country,
        location.continent,
        location.region_code,
    ):
        _write_str(write, text)


def _read_location(reader: _Reader, seen: Dict[Tuple[str, ...], object]):
    """Read one optional location; equal ones share the instance in ``seen``."""
    from repro.netmodel.geo import Location

    (present,) = reader.unpack("<B")
    if present == 0:
        return None
    if present != 1:
        raise StoreFormatError(f"bad location presence flag {present}")
    read_str = reader.read_str
    fields = (read_str(), read_str(), read_str(), read_str(), read_str())
    location = seen.get(fields)
    if location is None:
        location = seen[fields] = Location(*fields)
    return location


def dump_pipeline_result(result, stream: BinaryIO) -> None:
    """Serialize a :class:`~repro.core.pipeline.PipelineResult` to a stream.

    Every nested :class:`DiscoveryResult` (the combined set, each daily
    result, the validated dedicated set) is written as its own pooled block;
    footprints, ground-truth reports, the study period, and the pattern set
    are written as tagged scalars, so the loaded result compares equal to the
    original dataclass-for-dataclass.
    """
    write = stream.write
    write(_MAGIC_PIPELINE)
    write(struct.pack("<B", DISCOVERY_CODEC_VERSION))

    # Study period.
    _write_str(write, result.period.name)
    _write_value(write, result.period.start)
    _write_value(write, result.period.end)

    # Pattern set (regex text + engine hints; recompiled on load).
    patterns = result.pattern_set.patterns
    write(struct.pack("<I", len(patterns)))
    for provider_key in sorted(patterns):
        _write_str(write, provider_key)
        write(struct.pack("<I", len(patterns[provider_key])))
        for pattern in patterns[provider_key]:
            _write_str(write, pattern.regex)
            _write_str(write, pattern.description)
            _write_str(write, pattern.suffix_hint)
            write(struct.pack("<B", 1 if pattern.exact_hint else 0))

    # Daily results and the combined set.
    write(struct.pack("<I", len(result.daily_results)))
    for day in sorted(result.daily_results):
        _write_value(write, day)
        dump_discovery(result.daily_results[day], stream)
    dump_discovery(result.combined, stream)

    # Shared-vs-dedicated validation.
    write(struct.pack("<q", result.validation.threshold))
    dump_discovery(result.validation.dedicated, stream)
    write(struct.pack("<I", len(result.validation.shared)))
    for shared in result.validation.shared:
        _write_str(write, shared.ip)
        _write_str(write, shared.provider_key)
        write(struct.pack("<q", shared.non_iot_domain_count))

    # Per-provider footprint reports.
    write(struct.pack("<I", len(result.footprints)))
    for provider_key in sorted(result.footprints):
        report = result.footprints[provider_key]
        _write_str(write, report.provider_key)
        _write_str(write, report.provider_name)
        write(
            struct.pack(
                "<qqqqqqqqq",
                report.as_count,
                report.prefix_count,
                report.ipv4_count,
                report.ipv6_count,
                report.slash24_count,
                report.slash56_count,
                report.location_count,
                report.country_count,
                report.geolocation_disagreements,
            )
        )
        _write_str_tuple(write, report.continents)
        _write_str_tuple(write, report.countries)
        _write_str(write, report.strategy)
        _write_str_tuple(write, report.documented_protocols)
        write(struct.pack("<B", 1 if report.uses_anycast else 0))
        write(struct.pack("<I", len(report.locations_by_ip)))
        for ip in sorted(report.locations_by_ip):
            _write_str(write, ip)
            _write_location(write, report.locations_by_ip[ip])

    # Ground-truth reports.
    write(struct.pack("<I", len(result.ground_truth)))
    for provider_key in sorted(result.ground_truth):
        report = result.ground_truth[provider_key]
        _write_str(write, report.provider_key)
        _write_str_tuple(write, report.published_prefixes)
        # Published ranges include IPv6 prefixes, whose address counts exceed
        # 64 bits (a /56 alone spans 2^72) — encode as a decimal string.
        _write_str(write, str(report.published_address_count))
        write(
            struct.pack(
                "<qqq",
                report.discovered_count,
                report.discovered_inside,
                report.discovered_outside,
            )
        )


def dumps_pipeline_result(result) -> bytes:
    """Serialize a pipeline result to bytes."""
    buffer = io.BytesIO()
    dump_pipeline_result(result, buffer)
    return buffer.getvalue()


def load_pipeline_result(stream: BinaryIO):
    """Deserialize a pipeline result written by :func:`dump_pipeline_result`.

    Reads the rest of the stream once and decodes one result from that
    buffer; a seekable stream is then positioned just past it, so trailing
    bytes stay unread.
    """
    data = stream.read()
    reader = _Reader(data)
    result = _read_pipeline_result(reader)
    if reader._pos < len(data) and stream.seekable():
        stream.seek(reader._pos - len(data), io.SEEK_CUR)
    return result


def loads_pipeline_result(data: bytes):
    """Deserialize a pipeline result from bytes."""
    return _read_pipeline_result(_Reader(bytes(data)))


def _read_pipeline_result(reader: _Reader):
    """Decode one pipeline result at the reader's offset."""
    from repro.core.discovery import DiscoveryResult
    from repro.core.footprint import FootprintReport
    from repro.core.patterns import DomainPattern, PatternSet
    from repro.core.pipeline import PipelineResult
    from repro.core.validation import (
        GroundTruthReport,
        SharedIpClassification,
        SharedIpRecord,
    )
    from repro.simulation.clock import StudyPeriod

    if reader.take(len(_MAGIC_PIPELINE)) != _MAGIC_PIPELINE:
        raise StoreFormatError("not a serialized PipelineResult (bad magic)")
    (version,) = reader.unpack("<B")
    if version != DISCOVERY_CODEC_VERSION:
        raise StoreFormatError(
            f"unsupported discovery codec version {version} "
            f"(expected {DISCOVERY_CODEC_VERSION})"
        )
    try:
        period_name = reader.read_str()
        start = reader.read_value()
        end = reader.read_value()
        if not isinstance(start, date) or not isinstance(end, date):
            raise StoreFormatError("study period bounds are not dates")
        period = StudyPeriod(start=start, end=end, name=period_name)

        pattern_set = PatternSet()
        (n_providers,) = reader.unpack("<I")
        for _ in range(n_providers):
            provider_key = reader.read_str()
            (n_patterns,) = reader.unpack("<I")
            specs = []
            for _ in range(n_patterns):
                regex = reader.read_str()
                description = reader.read_str()
                suffix_hint = reader.read_str()
                (exact,) = reader.unpack("<B")
                specs.append(
                    DomainPattern(
                        provider_key,
                        regex,
                        description,
                        suffix_hint=suffix_hint,
                        exact_hint=bool(exact),
                    )
                )
            pattern_set.patterns[provider_key] = specs

        daily_results: Dict[date, DiscoveryResult] = {}
        (n_days,) = reader.unpack("<I")
        for _ in range(n_days):
            day = reader.read_value()
            if not isinstance(day, date) or isinstance(day, datetime):
                raise StoreFormatError("daily-result key is not a date")
            daily_results[day] = _read_discovery(reader)
        combined = _read_discovery(reader)

        (threshold,) = reader.unpack("<q")
        dedicated = _read_discovery(reader)
        shared = []
        (n_shared,) = reader.unpack("<I")
        for _ in range(n_shared):
            ip = reader.read_str()
            provider_key = reader.read_str()
            (count,) = reader.unpack("<q")
            shared.append(
                SharedIpRecord(ip=ip, provider_key=provider_key, non_iot_domain_count=count)
            )
        validation = SharedIpClassification(
            threshold=threshold, dedicated=dedicated, shared=shared
        )

        footprints: Dict[str, FootprintReport] = {}
        locations: Dict[Tuple[str, ...], object] = {}
        (n_footprints,) = reader.unpack("<I")
        for _ in range(n_footprints):
            provider_key = reader.read_str()
            provider_name = reader.read_str()
            (
                as_count,
                prefix_count,
                ipv4_count,
                ipv6_count,
                slash24_count,
                slash56_count,
                location_count,
                country_count,
                disagreements,
            ) = reader.unpack("<qqqqqqqqq")
            continents = _read_str_tuple(reader)
            countries = _read_str_tuple(reader)
            strategy = reader.read_str()
            protocols = _read_str_tuple(reader)
            (anycast,) = reader.unpack("<B")
            locations_by_ip = {}
            (n_locations,) = reader.unpack("<I")
            for _ in range(n_locations):
                ip = reader.read_str()
                locations_by_ip[ip] = _read_location(reader, locations)
            footprints[provider_key] = FootprintReport(
                provider_key=provider_key,
                provider_name=provider_name,
                as_count=as_count,
                prefix_count=prefix_count,
                ipv4_count=ipv4_count,
                ipv6_count=ipv6_count,
                slash24_count=slash24_count,
                slash56_count=slash56_count,
                location_count=location_count,
                country_count=country_count,
                continents=continents,
                countries=countries,
                strategy=strategy,
                documented_protocols=protocols,
                uses_anycast=bool(anycast),
                locations_by_ip=locations_by_ip,
                geolocation_disagreements=disagreements,
            )

        ground_truth: Dict[str, GroundTruthReport] = {}
        (n_ground_truth,) = reader.unpack("<I")
        for _ in range(n_ground_truth):
            provider_key = reader.read_str()
            prefixes = _read_str_tuple(reader)
            published_text = reader.read_str()
            if not published_text.isdigit():
                raise StoreFormatError(
                    f"corrupt published address count {published_text!r}"
                )
            published = int(published_text)
            (discovered, inside, outside) = reader.unpack("<qqq")
            ground_truth[provider_key] = GroundTruthReport(
                provider_key=provider_key,
                published_prefixes=prefixes,
                published_address_count=published,
                discovered_count=discovered,
                discovered_inside=inside,
                discovered_outside=outside,
            )
    except StoreFormatError:
        raise
    except ValueError as error:
        # Constructor validation (bad continent, inverted period, ...) means
        # the payload is corrupt, not that the caller misused the API.
        raise StoreFormatError(f"corrupt pipeline result: {error}") from None
    return PipelineResult(
        period=period,
        pattern_set=pattern_set,
        daily_results=daily_results,
        combined=combined,
        validation=validation,
        footprints=footprints,
        ground_truth=ground_truth,
    )

