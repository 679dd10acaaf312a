"""Round-trip, fuzz, and corruption tests for the columnar store codec."""

import io
import random
import struct
from array import array
from datetime import datetime, timedelta

import pytest

from repro.flows import kernels
from repro.flows.flowtable import (
    CATEGORICAL_COLUMNS,
    NUMERIC_COLUMNS,
    FlowTable,
    LazyColumn,
)
from repro.obs import metrics as obs_metrics
from repro.store.codec import (
    CODEC_VERSION,
    MMAP_FALLBACK_COUNTER,
    StoreFormatError,
    dump_table,
    dumps_table,
    load_table,
    load_table_lazy,
    load_table_mmap,
    loads_table,
)

from flowrows import from_records, make_flow


def random_records(rng, count):
    """A randomized corpus stressing value types, unicode, and extreme numbers."""
    providers = ("amazon", "google", "müller-iot", "端末-backend", "")
    transports = ("tcp", "udp")
    records = []
    base = datetime(2022, 3, 1)
    for _ in range(count):
        ip_version = 6 if rng.random() < 0.3 else 4
        server = (
            f"fd00::{rng.randrange(1, 500):x}"
            if ip_version == 6
            else f"10.{rng.randrange(4)}.{rng.randrange(8)}.{rng.randrange(1, 200)}"
        )
        bytes_down = rng.choice(
            (0.0, 1e-12, 1e15, 0.1 + rng.random() * 1e6, float(rng.randrange(10**9)))
        )
        records.append(
            make_flow(
                timestamp=base + timedelta(hours=rng.randrange(96)),
                subscriber_id=rng.randrange(10**6),
                subscriber_prefix=f"prefix-{rng.randrange(64)}",
                ip_version=ip_version,
                provider_key=rng.choice(providers),
                server_ip=server,
                server_continent=rng.choice(("EU", "NA", "AS", "SA")),
                server_region=rng.choice(("eu-west-1", "us-east-1", "ap-south-1")),
                transport=rng.choice(transports),
                port=rng.choice((443, 8883, 5683, 61616, 1)),
                bytes_down=bytes_down,
                bytes_up=rng.random() * 1e9,
            )
        )
    return records


class TestRoundTrip:
    def test_empty_table(self):
        table = FlowTable()
        restored = loads_table(dumps_table(table))
        assert len(restored) == 0
        assert restored.to_records() == []

    def test_stream_and_bytes_apis_agree(self):
        rng = random.Random(5)
        table = from_records(random_records(rng, 50))
        buffer = io.BytesIO()
        dump_table(table, buffer)
        assert buffer.getvalue() == dumps_table(table)
        assert load_table(io.BytesIO(buffer.getvalue())).to_records() == table.to_records()

    def test_filtered_table_with_shared_pools(self):
        """A filtered table's pool holds values its codes never reference."""
        rng = random.Random(7)
        table = from_records(random_records(rng, 300))
        filtered = table.select_mask(table.mask_code("server_ip", lambda ip: ":" not in ip))
        restored = loads_table(dumps_table(filtered))
        assert restored.to_records() == filtered.to_records()

    def test_float_bit_patterns_survive(self):
        rng = random.Random(9)
        table = from_records(random_records(rng, 100))
        restored = loads_table(dumps_table(table))
        assert list(restored.numeric("bytes_down")) == list(table.numeric("bytes_down"))
        assert list(restored.numeric("bytes_up")) == list(table.numeric("bytes_up"))

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_random_tables(self, seed):
        """Random tables -> serialize -> deserialize -> exact record equality."""
        rng = random.Random(1000 + seed)
        records = random_records(rng, rng.randrange(1, 400))
        table = from_records(records)
        restored = loads_table(dumps_table(table))
        assert restored.to_records() == records
        # The restored table is a first-class FlowTable: filters/groups still work.
        assert restored.group_sum(("provider_key",), "bytes_down") == table.group_sum(
            ("provider_key",), "bytes_down"
        )

    def test_fuzz_reserialization_is_stable(self):
        rng = random.Random(77)
        table = from_records(random_records(rng, 200))
        blob = dumps_table(table)
        assert dumps_table(loads_table(blob)) == blob


class TestCorruption:
    def test_bad_magic_rejected(self):
        with pytest.raises(StoreFormatError, match="magic"):
            loads_table(b"NOPE" + b"\x00" * 64)

    def test_truncated_stream_rejected(self):
        rng = random.Random(3)
        blob = dumps_table(from_records(random_records(rng, 60)))
        for cut in (5, len(blob) // 2, len(blob) - 3):
            with pytest.raises(StoreFormatError):
                loads_table(blob[:cut])

    def test_future_codec_version_rejected(self):
        blob = bytearray(dumps_table(FlowTable()))
        blob[4] = CODEC_VERSION + 1
        with pytest.raises(StoreFormatError, match="version"):
            loads_table(bytes(blob))

    def test_empty_input_rejected(self):
        with pytest.raises(StoreFormatError):
            loads_table(b"")

    def test_garbage_tail_is_ignored(self):
        """Loading consumes exactly one table; trailing bytes are left alone."""
        rng = random.Random(4)
        table = from_records(random_records(rng, 30))
        stream = io.BytesIO(dumps_table(table) + b"trailing")
        restored = load_table(stream)
        assert restored.to_records() == table.to_records()
        assert stream.read() == b"trailing"


def test_duplicate_pool_values_rejected():
    """Re-interning dedups the pool; a corrupt duplicate must fail loudly at load."""
    base = datetime(2022, 3, 1)
    records = [
        make_flow(
            timestamp=base,
            subscriber_id=1,
            subscriber_prefix="p",
            ip_version=4,
            provider_key="amazon",
            server_ip="10.0.0.1",
            server_continent="EU",
            server_region="eu-west-1",
            transport=transport,
            port=443,
            bytes_down=10.0,
            bytes_up=1.0,
        )
        for transport in ("tcp", "udp")
    ]
    blob = dumps_table(from_records(records))
    corrupted = blob.replace(b"udp", b"tcp")
    assert corrupted != blob
    with pytest.raises(StoreFormatError, match="duplicate"):
        loads_table(corrupted)


# ---------------------------------------------------------------------------
# Zero-copy (lazy / mmap) read path
# ---------------------------------------------------------------------------


def _mmap_fallbacks(run):
    """Run ``run()`` with metrics on; return its result and the mmap fallback counters."""
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    obs_metrics.enable()
    try:
        result = run()
        counters = {
            name: value
            for name, value in obs_metrics.registry().counters().items()
            if name.startswith(MMAP_FALLBACK_COUNTER)
        }
    finally:
        obs_metrics.disable()
        obs_metrics.set_registry(previous)
    return result, counters


def _touch_all(table):
    """Force every lazy column through full decode + deferred validation."""
    for name in CATEGORICAL_COLUMNS:
        column = table.codes(name)
        if isinstance(column, LazyColumn):
            column.materialize()
    for name, _typecode in NUMERIC_COLUMNS:
        column = table.numeric(name)
        if isinstance(column, LazyColumn):
            column.materialize()
    return table


def _foreign_order_blob(table, monkeypatch):
    """``table`` (array columns, swapped in place) as a foreign-byte-order host writes it."""
    from repro.store import codec as codec_module

    for name in CATEGORICAL_COLUMNS:
        table._codes[name].byteswap()
    for name, _typecode in NUMERIC_COLUMNS:
        table._numeric[name].byteswap()
    foreign_order = (
        codec_module._BIG
        if codec_module._LOCAL_ORDER == codec_module._LITTLE
        else codec_module._LITTLE
    )
    with monkeypatch.context() as patched:
        patched.setattr(codec_module, "_LOCAL_ORDER", foreign_order)
        return dumps_table(table)


def _with_code(table, name, code):
    """An array-backed copy of ``table`` with ``code`` in the first row of ``name``."""
    copy = loads_table(dumps_table(table))
    copy._codes[name][0] = code
    return copy


def _eager_outcome(blob):
    """('ok', redump bytes) or ('error', None) of an eager load."""
    try:
        return ("ok", dumps_table(loads_table(blob)))
    except StoreFormatError:
        return ("error", None)


def _lazy_outcome(blob):
    """Same as :func:`_eager_outcome` for a fully-touched lazy load."""
    try:
        return ("ok", dumps_table(_touch_all(load_table_lazy(blob))))
    except StoreFormatError:
        return ("error", None)


class TestLazyRoundTrip:
    def test_lazy_load_is_lossless_and_redumps_byte_identically(self):
        rng = random.Random(19)
        table = from_records(random_records(rng, 150))
        blob = dumps_table(table)
        lazy = load_table_lazy(blob)
        for name in CATEGORICAL_COLUMNS:
            assert isinstance(lazy.codes(name), LazyColumn)
        for name, _typecode in NUMERIC_COLUMNS:
            assert isinstance(lazy.numeric(name), LazyColumn)
        assert dumps_table(lazy) == blob, "re-dump before any touch"
        assert lazy.to_records() == table.to_records()
        assert dumps_table(lazy) == blob, "re-dump after materialization"

    def test_mmap_load_round_trips(self, tmp_path):
        rng = random.Random(20)
        table = from_records(random_records(rng, 90))
        blob = dumps_table(table)
        path = tmp_path / "table.rft"
        path.write_bytes(blob)
        mapped = load_table_mmap(path)
        assert dumps_table(mapped) == blob
        assert mapped.to_records() == table.to_records()

    def test_empty_table_lazy(self):
        blob = dumps_table(FlowTable())
        lazy = load_table_lazy(blob)
        assert len(lazy) == 0
        assert dumps_table(lazy) == blob

    def test_lazy_columns_alias_the_source_buffer(self):
        """No column bytes are copied at load time (the zero-copy contract)."""
        blob = dumps_table(from_records(random_records(random.Random(22), 40)))
        lazy = load_table_lazy(blob)
        for name in CATEGORICAL_COLUMNS:
            assert lazy.codes(name).buffer.obj is blob
        for name, _typecode in NUMERIC_COLUMNS:
            assert lazy.numeric(name).buffer.obj is blob

    def test_garbage_tail_is_ignored_like_eager(self):
        table = from_records(random_records(random.Random(23), 25))
        blob = dumps_table(table)
        lazy = load_table_lazy(blob + b"trailing-junk")
        assert lazy.to_records() == table.to_records()

    def test_foreign_byte_order_artifact_falls_back_to_eager(self, monkeypatch):
        """A faithful big-endian artifact loads correctly via the eager decoder.

        The hand-off is counted as ``store.mmap_fallbacks.byte_order``.
        """
        table = from_records(random_records(random.Random(24), 60))
        foreign = _foreign_order_blob(loads_table(dumps_table(table)), monkeypatch)
        assert foreign != dumps_table(table)
        restored, counted = _mmap_fallbacks(lambda: load_table_lazy(foreign))
        assert counted == {f"{MMAP_FALLBACK_COUNTER}.byte_order": 1.0}
        assert not isinstance(restored.codes("provider_key"), LazyColumn)
        assert restored.to_records() == table.to_records()
        assert dumps_table(restored) == dumps_table(table)

    @pytest.mark.parametrize("typecode", ("q", "I", "b"))
    def test_non_int_code_block_falls_back_to_eager(self, typecode):
        """An integer code block other than ``'i'`` is read eagerly, counted as ``.typecode``.

        ``'I'`` is one bit flip away from ``'i'``; the eager decoder used to
        raise ``TypeError`` from ``array.extend`` on any such block.
        """
        table = from_records(random_records(random.Random(25), 40))
        other = loads_table(dumps_table(table))
        other._codes["transport"] = array(typecode, other._codes["transport"])
        blob = dumps_table(other)
        for load in (loads_table, load_table_lazy):
            restored, counted = _mmap_fallbacks(lambda: load(blob))
            assert restored.codes("transport").typecode == "i"
            assert dumps_table(restored) == dumps_table(table)
        assert counted == {f"{MMAP_FALLBACK_COUNTER}.typecode": 1.0}
        assert not isinstance(restored.codes("provider_key"), LazyColumn)
        # The local-order, all-'i' artifact takes the lazy path and counts nothing.
        _lazy, counted = _mmap_fallbacks(lambda: load_table_lazy(dumps_table(table)))
        assert counted == {}

    def test_float_code_block_is_rejected_on_both_paths(self):
        table = from_records(random_records(random.Random(26), 10))
        other = loads_table(dumps_table(table))
        other._codes["transport"] = array("d", other._codes["transport"])
        blob = dumps_table(other)
        for load in (loads_table, load_table_lazy):
            with pytest.raises(StoreFormatError, match="'transport': code typecode 'd'"):
                load(blob)


class TestLazyCorruptionParity:
    """Eager and lazy loaders must fail identically on every corrupt artifact."""

    @pytest.fixture(scope="class")
    def blob(self):
        return dumps_table(from_records(random_records(random.Random(37), 8)))

    def test_truncation_at_every_offset(self, blob, tmp_path):
        for cut in range(len(blob)):
            assert _eager_outcome(blob[:cut]) == ("error", None), f"eager accepted cut {cut}"
            assert _lazy_outcome(blob[:cut]) == ("error", None), f"lazy accepted cut {cut}"
        # The mmap entry point agrees (spot-checked: per-cut temp files are slow).
        for cut in range(0, len(blob), max(1, len(blob) // 23)):
            path = tmp_path / "truncated.rft"
            path.write_bytes(blob[:cut])
            with pytest.raises(StoreFormatError):
                _touch_all(load_table_mmap(path))

    def test_empty_buffer_and_empty_file_rejected(self, tmp_path):
        with pytest.raises(StoreFormatError):
            load_table_lazy(b"")
        empty = tmp_path / "empty.rft"
        empty.write_bytes(b"")
        with pytest.raises(StoreFormatError):
            load_table_mmap(empty)

    def test_bit_flip_outcome_parity(self, blob):
        """Any single bit flip: both loaders raise, or both load byte-identically."""
        rng = random.Random(41)
        for _ in range(150):
            corrupted = bytearray(blob)
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= 1 << rng.randrange(8)
            corrupted = bytes(corrupted)
            eager = _eager_outcome(corrupted)
            lazy = _lazy_outcome(corrupted)
            assert eager == lazy, f"divergence at byte {position}"

    def test_flipped_length_field_rejected_on_both_paths(self, blob):
        """A corrupted header row count makes every column ragged at load time."""
        (length,) = struct.unpack_from("<Q", blob, 6)
        for bad_length in (length + 1, length - 1, length + 10**6):
            corrupted = bytearray(blob)
            struct.pack_into("<Q", corrupted, 6, bad_length)
            with pytest.raises(StoreFormatError, match="rows"):
                loads_table(bytes(corrupted))
            with pytest.raises(StoreFormatError, match="rows"):
                load_table_lazy(bytes(corrupted))

    def test_giant_nbytes_field_fails_fast_without_allocation(self, blob):
        """Satellite bugfix: a corrupt 64-bit nbytes must not drive a huge read."""
        marker = b"bytes_down"
        header_at = blob.index(marker) + len(marker)
        corrupted = bytearray(blob)
        # <cBQ after the column name: keep typecode/itemsize, explode nbytes.
        struct.pack_into("<Q", corrupted, header_at + 2, 2**60)
        corrupted = bytes(corrupted)
        try:
            with pytest.raises(StoreFormatError, match="truncated table"):
                loads_table(corrupted)
            with pytest.raises(StoreFormatError, match="truncated table"):
                load_table_lazy(corrupted)
        except MemoryError:
            pytest.fail("corrupt length field caused an allocation blow-up")

    def test_corrupt_typecode_byte_rejected_on_both_paths(self, blob):
        marker = b"bytes_down"
        header_at = blob.index(marker) + len(marker)
        corrupted = bytearray(blob)
        corrupted[header_at] = 0xFF  # not ASCII: decode itself must not escape
        with pytest.raises(StoreFormatError, match="typecode"):
            loads_table(bytes(corrupted))
        with pytest.raises(StoreFormatError, match="typecode"):
            load_table_lazy(bytes(corrupted))

    def test_code_out_of_pool_range_raises_on_first_touch(self, monkeypatch):
        """Every decode path rejects a code outside the pool; the lazy path on first touch.

        Planted: the smallest code past the pool, ``-1``, a code whose second
        byte names a block past the last one, and ``2**20``.  The ``timestamp``
        pool fits one block of 256 codes; the ``server_ip`` pool spans two, the
        second partial, so the byte planes' last-block test runs on it.
        """
        table = from_records(random_records(random.Random(38), 300))
        for name in ("timestamp", "server_ip"):
            pool_size = len(table.pool(name))
            for code in (pool_size, -1, 256 * -(-pool_size // 256), 2**20):
                blob = dumps_table(_with_code(table, name, code))
                with pytest.raises(StoreFormatError, match="pool range"):
                    loads_table(blob)
                lazy = load_table_lazy(blob)  # structural parse still passes
                with pytest.raises(StoreFormatError, match="pool range"):
                    lazy.codes(name).materialize()
                if kernels.numpy_available():
                    with pytest.raises(StoreFormatError, match="pool range"):
                        load_table_lazy(blob).codes(name).as_numpy()
                # The narrow decode step, after a byte swap and after a widening.
                wide = _with_code(table, name, code)
                wide._codes[name] = array("q", wide._codes[name])
                foreign = _foreign_order_blob(_with_code(table, name, code), monkeypatch)
                for other in (foreign, dumps_table(wide)):
                    with pytest.raises(StoreFormatError, match="pool range"):
                        load_table_lazy(other)

    def test_duplicate_pool_values_rejected_lazily_too(self):
        base = datetime(2022, 3, 1)
        records = [
            make_flow(
                timestamp=base,
                subscriber_id=1,
                subscriber_prefix="p",
                ip_version=4,
                provider_key="amazon",
                server_ip="10.0.0.1",
                server_continent="EU",
                server_region="eu-west-1",
                transport=transport,
                port=443,
                bytes_down=10.0,
                bytes_up=1.0,
            )
            for transport in ("tcp", "udp")
        ]
        blob = dumps_table(from_records(records))
        corrupted = blob.replace(b"udp", b"tcp")
        with pytest.raises(StoreFormatError, match="duplicate"):
            load_table_lazy(corrupted)


def random_discovery(rng, count):
    """A randomized discovery result stressing families, sources, and unicode."""
    from repro.core.discovery import ALL_SOURCES, DiscoveredIP, DiscoveryResult
    from datetime import date

    result = DiscoveryResult(day=date(2022, 3, 1) if rng.random() < 0.7 else None)
    providers = ("amazon", "google", "müller-iot", "端末-backend")
    for _ in range(count):
        ip = (
            f"fd00::{rng.randrange(1, 300):x}"
            if rng.random() < 0.3
            else f"10.{rng.randrange(4)}.{rng.randrange(8)}.{rng.randrange(1, 200)}"
        )
        result.add(
            DiscoveredIP(
                ip=ip,
                provider_key=rng.choice(providers),
                sources={s for s in ALL_SOURCES if rng.random() < 0.5} or {ALL_SOURCES[0]},
                domains={f"dev-{rng.randrange(50)}.iot.example" for _ in range(rng.randrange(1, 4))},
            )
        )
    return result


class TestDiscoveryCodec:
    def test_empty_result_round_trips(self):
        from repro.core.discovery import DiscoveryResult
        from repro.store.codec import dumps_discovery, loads_discovery

        result = DiscoveryResult()
        assert loads_discovery(dumps_discovery(result)) == result

    def test_fuzz_random_results(self):
        from repro.store.codec import dumps_discovery, loads_discovery

        for seed in (1, 7, 23):
            rng = random.Random(seed)
            result = random_discovery(rng, 150)
            restored = loads_discovery(dumps_discovery(result))
            assert restored == result
            assert restored.day == result.day

    def test_reserialization_is_stable(self):
        from repro.store.codec import dumps_discovery, loads_discovery

        blob = dumps_discovery(random_discovery(random.Random(5), 80))
        assert dumps_discovery(loads_discovery(blob)) == blob

    def test_truncation_and_bad_magic_rejected(self):
        from repro.store.codec import dumps_discovery, loads_discovery

        blob = dumps_discovery(random_discovery(random.Random(9), 40))
        with pytest.raises(StoreFormatError, match="magic"):
            loads_discovery(b"NOPE" + blob[4:])
        for cut in (2, len(blob) // 3, len(blob) - 2):
            with pytest.raises(StoreFormatError):
                loads_discovery(blob[:cut])

    def test_corrupt_date_field_raises_store_format_error(self):
        # A flipped byte inside an ISO date must surface as StoreFormatError
        # (the store's miss-and-rebuild contract), never a bare ValueError.
        from repro.store.codec import dumps_discovery, loads_discovery

        blob = dumps_discovery(random_discovery(random.Random(11), 10))
        corrupted = blob.replace(b"2022-03-01", b"2022X03-01", 1)
        assert corrupted != blob
        with pytest.raises(StoreFormatError, match="corrupt date"):
            loads_discovery(corrupted)

    def test_corrupt_timestamp_in_flow_table_is_store_format_error(self):
        # The flow-table pool stores datetimes too; ArtifactStore.get_table
        # only treats StoreFormatError as a miss, so corruption there must
        # not escape as ValueError either.
        blob = dumps_table(from_records(random_records(random.Random(12), 20)))
        corrupted = blob.replace(b"2022-03", b"2022X03", 1)
        assert corrupted != blob
        with pytest.raises(StoreFormatError, match="corrupt datetime"):
            loads_table(corrupted)


def reference_dump_discovery(result) -> bytes:
    """The two-pass discovery writer (test oracle).

    One pass interns every scalar in canonical sorted order; a second writes
    the pool, the day and the body, one ``struct.pack`` and ``write`` per
    reference.
    """
    from repro.store.codec import (
        _MAGIC_DISCOVERY,
        DISCOVERY_CODEC_VERSION,
        _ValuePool,
        _write_value,
    )

    buffer = io.BytesIO()
    write = buffer.write
    write(_MAGIC_DISCOVERY)
    write(struct.pack("<B", DISCOVERY_CODEC_VERSION))
    pool = _ValuePool()
    for provider_key in sorted(result.per_provider):
        pool.add(provider_key)
        bucket = result.per_provider[provider_key]
        for ip in sorted(bucket):
            pool.add(ip)
            record = bucket[ip]
            for source in sorted(record.sources):
                pool.add(source)
            for domain in sorted(record.domains):
                pool.add(domain)
    write(struct.pack("<I", len(pool.values)))
    for value in pool.values:
        _write_value(write, value)
    _write_value(write, result.day)
    write(struct.pack("<I", len(result.per_provider)))
    for provider_key in sorted(result.per_provider):
        bucket = result.per_provider[provider_key]
        write(struct.pack("<II", pool.add(provider_key), len(bucket)))
        for ip in sorted(bucket):
            record = bucket[ip]
            sources = sorted(record.sources)
            domains = sorted(record.domains)
            write(struct.pack("<III", pool.add(ip), len(sources), len(domains)))
            for source in sources:
                write(struct.pack("<I", pool.add(source)))
            for domain in domains:
                write(struct.pack("<I", pool.add(domain)))
    return buffer.getvalue()


class TestPipelineResultCodec:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.core.pipeline import DiscoveryPipeline
        from repro.simulation.config import ScenarioConfig
        from repro.simulation.world import build_world

        world = build_world(ScenarioConfig.small(seed=7))
        return DiscoveryPipeline(world).run()

    def test_discovery_dump_matches_the_two_pass_oracle(self, result):
        from datetime import date

        from repro.core.discovery import DiscoveredIP, DiscoveryResult
        from repro.store.codec import dumps_discovery

        undated = DiscoveryResult(per_provider=result.combined.per_provider, day=None)
        # Pool values other than strings go through the tagged writer.
        tagged = DiscoveryResult(day=date(2022, 3, 1))
        tagged.add(DiscoveredIP("10.0.0.1", "amazon", {"tls-certificates"}, {3, 7}))
        tagged.add(DiscoveredIP("10.0.0.2", "bosch", {2.5}, {date(2022, 3, 2)}))
        tagged.add(DiscoveredIP("10.0.0.3", "bosch", {True, False}, {"é.example", "a"}))
        cases = [
            *result.daily_results.values(),
            result.combined,
            result.validation.dedicated,
            DiscoveryResult(),
            undated,
            tagged,
        ]
        assert len(result.daily_results) == 7 and result.combined.total_count()
        for case in cases:
            assert dumps_discovery(case) == reference_dump_discovery(case)

    def test_full_pipeline_result_round_trips(self, result):
        from repro.store.codec import dumps_pipeline_result, loads_pipeline_result

        restored = loads_pipeline_result(dumps_pipeline_result(result))
        assert restored == result
        assert restored.period == result.period
        assert restored.table1_rows() == result.table1_rows()
        assert restored.pattern_set.fingerprint() == result.pattern_set.fingerprint()

    def test_reserialization_is_stable(self, result):
        from repro.store.codec import dumps_pipeline_result, loads_pipeline_result

        blob = dumps_pipeline_result(result)
        assert dumps_pipeline_result(loads_pipeline_result(blob)) == blob

    def test_truncation_rejected_everywhere(self, result):
        from repro.store.codec import dumps_pipeline_result, loads_pipeline_result

        blob = dumps_pipeline_result(result)
        step = max(1, len(blob) // 97)
        for cut in range(0, len(blob) - 1, step):
            with pytest.raises(StoreFormatError):
                loads_pipeline_result(blob[:cut])

    def test_bit_flips_never_execute_or_hang(self, result):
        """Corruption either round-trips to an unequal value or raises cleanly."""
        from repro.store.codec import dumps_pipeline_result, loads_pipeline_result

        blob = dumps_pipeline_result(result)
        rng = random.Random(13)
        for _ in range(40):
            corrupted = bytearray(blob)
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= 1 << rng.randrange(8)
            try:
                loads_pipeline_result(bytes(corrupted))
            except StoreFormatError:
                pass
            except MemoryError:
                pytest.fail("corrupt length field caused an allocation blow-up")


class TestOneBufferDiscoveryDecode:
    """The pipeline decode reads one buffer; every check of the stream decoder holds."""

    @pytest.fixture(scope="class")
    def tiny(self):
        """The small scenario's pipeline result cut to a few entries of every kind."""
        from dataclasses import replace

        from repro.core.discovery import DiscoveryResult
        from repro.core.patterns import PatternSet
        from repro.core.pipeline import DiscoveryPipeline
        from repro.core.validation import SharedIpClassification, SharedIpRecord
        from repro.simulation.config import ScenarioConfig
        from repro.simulation.world import build_world

        result = DiscoveryPipeline(build_world(ScenarioConfig.small(seed=7))).run()

        def few(discovery):
            cut = DiscoveryResult(day=discovery.day)
            for record in discovery.records()[:3]:
                cut.add(record)
            return cut

        provider = sorted(result.footprints)[0]
        patterns = PatternSet()
        patterns.patterns[provider] = result.pattern_set.patterns[provider][:1]
        footprint = result.footprints[provider]
        locations = dict(sorted(footprint.locations_by_ip.items())[:2])
        locations["10.9.9.8"] = None
        ground_key = sorted(result.ground_truth)[0]
        return replace(
            result,
            pattern_set=patterns,
            daily_results={
                day: few(result.daily_results[day]) for day in sorted(result.daily_results)[:2]
            },
            combined=few(result.combined),
            validation=SharedIpClassification(
                threshold=result.validation.threshold,
                dedicated=few(result.validation.dedicated),
                shared=[SharedIpRecord("10.9.9.9", provider, 30)],
            ),
            footprints={provider: replace(footprint, locations_by_ip=locations)},
            ground_truth={ground_key: result.ground_truth[ground_key]},
        )

    def test_truncation_at_every_offset_raises(self, tiny):
        from repro.store.codec import dumps_pipeline_result, load_pipeline_result

        blob = dumps_pipeline_result(tiny)
        assert load_pipeline_result(io.BytesIO(blob)) == tiny
        for cut in range(len(blob)):
            with pytest.raises(StoreFormatError):
                load_pipeline_result(io.BytesIO(blob[:cut]))

    @staticmethod
    def _block(pool, provider_ref, ip_ref, source_refs) -> bytes:
        """A one-record discovery block with chosen pool and references."""
        from repro.store.codec import DISCOVERY_CODEC_VERSION, _write_value

        parts = [b"RDSC", struct.pack("<BI", DISCOVERY_CODEC_VERSION, len(pool))]
        for value in pool:
            _write_value(parts.append, value)
        _write_value(parts.append, None)  # the result's day
        parts.append(struct.pack("<III", 1, provider_ref, 1))
        parts.append(struct.pack("<III", ip_ref, len(source_refs), 0))
        parts.append(struct.pack(f"<{len(source_refs)}I", *source_refs))
        return b"".join(parts)

    @pytest.mark.parametrize(
        "pool, provider_ref, ip_ref, source_refs, message",
        [
            (["amazon", "10.0.0.1", "tls"], 0, 1, (2,), None),
            (["amazon", "10.0.0.1", "tls"], 0, 1, (7,), "pool reference 7 out of range"),
            (["amazon", "10.0.0.1", "tls"], 0, 3, (2,), "pool reference 3 out of range"),
            (["amazon", "10.0.0.1", "tls"], 9, 1, (2,), "pool reference 9 out of range"),
            (["amazon", 5, "tls"], 0, 1, (2,), "pool reference 1 is not a string"),
            (["amazon", "10.0.0.1", 2.5], 0, 1, (2,), "pool reference 2 is not a string"),
            ([None, "10.0.0.1", "tls"], 0, 1, (2,), "pool reference 0 is not a string"),
        ],
    )
    def test_bad_pool_references_raise(self, tiny, pool, provider_ref, ip_ref, source_refs, message):
        from repro.store.codec import (
            dumps_discovery,
            dumps_pipeline_result,
            loads_discovery,
            loads_pipeline_result,
        )

        block = self._block(pool, provider_ref, ip_ref, source_refs)
        blob = dumps_pipeline_result(tiny)
        combined = dumps_discovery(tiny.combined)
        at = blob.index(combined)
        spliced = blob[:at] + block + blob[at + len(combined):]
        if message is None:
            assert loads_discovery(block).ips() == {"10.0.0.1"}
            assert loads_pipeline_result(spliced).combined.ips() == {"10.0.0.1"}
            return
        with pytest.raises(StoreFormatError, match=message):
            loads_discovery(block)
        with pytest.raises(StoreFormatError, match=message):
            loads_pipeline_result(spliced)
