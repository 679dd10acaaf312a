"""Digest- and analysis-parity of the zero-copy mmap store read path.

The contract under test: a table served lazily off the mapped artifact must
be indistinguishable from the same artifact with every column decoded, and a
warm context from the cold one that filled the store — same ``dump_table``
bytes (hence same store digests), same analysis output, same ``GroupIndex``
caching/invalidation behavior — on every kernel backend.  Corrupt payloads
must fold into the store's corrupt-fallback miss, and an out-of-pool code
found at first touch must leave the slot to be rebuilt by the next run.
"""

import random
import struct
import sys
from datetime import date

import pytest

from repro.core.traffic import DEFAULT_SCANNER_THRESHOLD
from repro.experiments.context import build_context
from repro.flows import kernels
from repro.flows.flowtable import (
    CATEGORICAL_COLUMNS,
    NUMERIC_COLUMNS,
    LazyColumn,
)
from repro.obs.metrics import MetricsRegistry, disable, enable, set_registry
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.store.artifacts import ArtifactStore, clean_stage, scenario_fingerprint
from repro.store.codec import StoreFormatError, dumps_table, load_table_lazy, loads_table

from flowrows import append_records, from_records
from test_store_codec import random_records

PERIOD = StudyPeriod(date(2022, 3, 1), date(2022, 3, 3), name="mmap-test")

STAGE = "raw-export"


def _tiny(seed: int = 41, **overrides) -> ScenarioConfig:
    return ScenarioConfig.small(seed=seed).with_overrides(
        n_subscriber_lines=40, n_scanner_lines=1, **overrides
    )


def _backends():
    backends = [kernels.BACKEND_PYTHON]
    if kernels.numpy_available():
        backends.append(kernels.BACKEND_NUMPY)
    return backends


@pytest.fixture(autouse=True)
def _reset_backend():
    yield
    kernels.set_backend(None)


@pytest.fixture
def blob():
    return dumps_table(from_records(random_records(random.Random(55), 250)))


class TestAggregationParity:
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_lazy_and_eager_tables_aggregate_identically(self, blob, backend):
        if backend == "numpy" and not kernels.numpy_available():
            pytest.skip("numpy not importable")
        kernels.set_backend(backend)
        eager = loads_table(blob)
        lazy = load_table_lazy(blob)
        for by in (("provider_key",), ("provider_key", "transport"), ("port",)):
            want = eager.group_sums(by, ("bytes_down", "bytes_up"))
            got = lazy.group_sums(by, ("bytes_down", "bytes_up"))
            assert got == want and list(got) == list(want)
            assert lazy.group_distinct(by, "server_ip") == eager.group_distinct(
                by, "server_ip"
            )
            assert lazy.group_distinct_count(by, "subscriber_id") == (
                eager.group_distinct_count(by, "subscriber_id")
            )
        excluded = set(list(eager.numeric("subscriber_id"))[::3])
        mask = kernels.not_in_mask(lazy.numeric("subscriber_id"), excluded)
        assert mask == kernels.not_in_mask(eager.numeric("subscriber_id"), excluded)
        assert lazy.group_sums(("provider_key",), ("bytes_down",), mask=mask) == (
            eager.group_sums(("provider_key",), ("bytes_down",), mask=mask)
        )
        assert lazy.distinct("server_ip") == eager.distinct("server_ip")
        assert lazy.distinct("port") == eager.distinct("port")
        assert lazy.total("bytes_down") == eager.total("bytes_down")
        # Aggregating never detaches the lazy columns from the map.
        assert isinstance(lazy.codes("provider_key"), LazyColumn)

    def test_group_index_caching_and_invalidation_match_eager(self, blob):
        eager = loads_table(blob)
        lazy = load_table_lazy(blob)
        index = lazy.group_index(("provider_key",))
        assert lazy.group_index(("provider_key",)) is index, "cache hit on lazy table"
        assert list(index.group_keys) == list(
            eager.group_index(("provider_key",)).group_keys
        )
        assert lazy._version == eager._version
        zeros = [0.0] * len(lazy)
        lazy.assign_numeric("bytes_down", zeros)
        eager.assign_numeric("bytes_down", zeros)
        assert lazy._version == eager._version, "mutation bumps versions identically"
        fresh = lazy.group_index(("provider_key",))
        assert fresh is not index and fresh.version == lazy._version


class TestCopyOnWrite:
    """Every mutating primitive detaches lazy columns and matches eager bytes."""

    def _pair(self, blob):
        return load_table_lazy(blob), loads_table(blob)

    def _assert_detached_and_equal(self, lazy, eager):
        for name in CATEGORICAL_COLUMNS:
            assert not isinstance(lazy.codes(name), LazyColumn)
        for name, _typecode in NUMERIC_COLUMNS:
            assert not isinstance(lazy.numeric(name), LazyColumn)
        assert dumps_table(lazy) == dumps_table(eager)

    def test_assign_numeric(self, blob):
        lazy, eager = self._pair(blob)
        values = [1.5] * len(eager)
        lazy.assign_numeric("bytes_up", values)
        eager.assign_numeric("bytes_up", values)
        self._assert_detached_and_equal(lazy, eager)

    def test_append_columns(self, blob):
        extra = random_records(random.Random(56), 20)
        lazy, eager = self._pair(blob)
        append_records(lazy, extra)
        append_records(eager, extra)
        self._assert_detached_and_equal(lazy, eager)

    def test_filters_leave_lazy_source_attached(self, blob):
        lazy, eager = self._pair(blob)
        excluded = set(list(eager.numeric("subscriber_id"))[::3])
        assert dumps_table(lazy.exclude_subscribers(excluded)) == dumps_table(
            eager.exclude_subscribers(excluded)
        )
        assert isinstance(lazy.codes("server_ip"), LazyColumn), (
            "read-only filters must not trigger copy-on-write"
        )
        assert isinstance(lazy.numeric("subscriber_id"), LazyColumn)


class TestWarmContextDigestParity:
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_warm_context_matches_cold(self, tmp_path, backend):
        """A cold build fills the store; the warm read gives the same bytes and analysis."""
        if backend == "numpy" and not kernels.numpy_available():
            pytest.skip("numpy not importable")
        kernels.set_backend(backend)
        from repro.core.traffic import activity_timeseries, volume_timeseries

        config = _tiny(seed=61)
        root = tmp_path / "store"
        cold = build_context(config, use_cache=False, store=ArtifactStore(root))
        cold_clean = cold.clean_table()

        warm = build_context(config, use_cache=False, store=ArtifactStore(root))
        warm_clean = warm.clean_table()
        assert isinstance(warm_clean.codes("provider_key"), LazyColumn)
        assert dumps_table(warm_clean) == dumps_table(cold_clean), "store digest parity"
        assert dumps_table(warm.raw_table()) == dumps_table(cold.raw_table())
        assert volume_timeseries(warm_clean, warm.anonymization) == (
            volume_timeseries(cold_clean, cold.anonymization)
        )
        assert activity_timeseries(warm_clean, warm.anonymization) == (
            activity_timeseries(cold_clean, cold.anonymization)
        )


class TestWarmPythonRangeCheck:
    @pytest.mark.skipif(sys.byteorder != "little", reason="the byte planes need a little-endian host")
    def test_every_decoded_code_column_is_checked_on_its_byte_planes(self, tmp_path, monkeypatch):
        """A warm python pass range-checks each code column it decodes in C.

        ``codes_in_range`` returns ``None`` only for a column it cannot read,
        which the codec then checks with a python ``min``/``max`` loop.
        """
        from repro.experiments.disruption_experiments import fig15_fig16_outage
        from repro.experiments.traffic_experiments import fig8_subscriber_activity

        kernels.set_backend(kernels.BACKEND_PYTHON)
        config = ScenarioConfig.small(7)
        root = tmp_path / "store"
        cold = build_context(config, use_cache=False, store=ArtifactStore(root))
        fig8_subscriber_activity(cold)
        fig15_fig16_outage(cold)

        checked, verdicts = [], []
        helper = kernels.codes_in_range

        def spy(codes, bound):
            verdict = helper(codes, bound)
            checked.append(codes)
            verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(kernels, "codes_in_range", spy)
        warm = build_context(config, use_cache=False, store=ArtifactStore(root))
        fig8_subscriber_activity(warm)
        fig15_fig16_outage(warm)
        decoded = [
            table.codes(name)._array
            for table in warm._table_cache.values()
            for name in CATEGORICAL_COLUMNS
            if isinstance(table.codes(name), LazyColumn) and table.codes(name)._array is not None
        ]
        assert decoded, "the warm pass decodes code columns off the store"
        for column in decoded:
            assert any(codes is column for codes in checked)
        assert None not in verdicts


class TestOutOfPoolCode:
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_first_touch_fails_and_the_next_run_rebuilds(self, tmp_path, backend):
        """The touch that finds the bad code discards the artifact before it raises.

        The python kernels touch the column through ``materialize()``, the
        numpy kernels through ``as_numpy()``; both run the store's hook.
        """
        if backend == "numpy" and not kernels.numpy_available():
            pytest.skip("numpy not importable")
        kernels.set_backend(backend)
        config = _tiny(seed=64)
        root = tmp_path / "store"
        cold = build_context(config, use_cache=False, store=ArtifactStore(root))
        want = dumps_table(cold.clean_table())

        store = ArtifactStore(root)
        stage = clean_stage(DEFAULT_SCANNER_THRESHOLD)
        digest = scenario_fingerprint(config, config.study_period, stage)
        path = store._payload_path(digest)
        blob = bytearray(path.read_bytes())
        (length,) = struct.unpack_from("<Q", blob, 6)
        # The first code block header belongs to the timestamp column.
        header = struct.pack("<cBQ", b"i", 4, length * 4)
        struct.pack_into("<i", blob, blob.index(header) + len(header), 2**24)
        path.write_bytes(bytes(blob))

        registry = MetricsRegistry()
        set_registry(registry)
        enable()
        try:
            clean = build_context(config, use_cache=False, store=store).clean_table()
            with pytest.raises(StoreFormatError, match="'timestamp': code out of pool range"):
                clean.group_sums(("timestamp",), ("bytes_down",))
        finally:
            disable()
            set_registry(MetricsRegistry())
        assert registry.counter("store.corrupt_fallbacks") == 1
        assert not path.exists(), "the payload is discarded at the failing touch"
        assert not store._meta_path(digest).exists(), "and so is its sidecar"

        rebuilt = build_context(config, use_cache=False, store=ArtifactStore(root))
        assert dumps_table(rebuilt.clean_table()) == want


class TestStoreMmapMode:
    @pytest.fixture
    def table(self):
        return from_records(random_records(random.Random(62), 120))

    def test_get_table_returns_lazy_tables_in_mmap_mode(self, tmp_path, table):
        store = ArtifactStore(tmp_path / "store")
        store.put_table(_tiny(), PERIOD, STAGE, table)
        loaded = store.get_table(_tiny(), PERIOD, STAGE)
        assert isinstance(loaded.codes("provider_key"), LazyColumn)
        assert loaded.to_records() == table.to_records()

    def _corrupt_counter(self, store, config):
        registry = MetricsRegistry()
        set_registry(registry)
        enable()
        try:
            result = store.get_table(config, PERIOD, STAGE)
        finally:
            disable()
            set_registry(MetricsRegistry())
        return result, registry.counter("store.corrupt_fallbacks")

    def test_zero_length_payload_is_a_corrupt_fallback(self, tmp_path, table):
        """mmap raises ValueError on empty maps; the store must absorb it."""
        config = _tiny()
        store = ArtifactStore(tmp_path / "store")
        path = store.put_table(config, PERIOD, STAGE, table)
        path.write_bytes(b"")
        result, fallbacks = self._corrupt_counter(store, config)
        assert result is None
        assert fallbacks == 1
        assert not path.exists(), "corrupt payload is discarded for a cold rebuild"

    def test_short_payload_is_a_corrupt_fallback(self, tmp_path, table):
        """A file shorter than its declared block offsets is a miss, not a crash."""
        config = _tiny()
        store = ArtifactStore(tmp_path / "store")
        path = store.put_table(config, PERIOD, STAGE, table)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        result, fallbacks = self._corrupt_counter(store, config)
        assert result is None
        assert fallbacks == 1
        assert not path.exists()

    def test_corrupt_fallback_triggers_cold_rebuild(self, tmp_path):
        """End to end: a zero-length mmap payload rebuilds through the pipeline."""
        config = _tiny(seed=63)
        root = tmp_path / "store"
        store = ArtifactStore(root)
        cold = build_context(config, use_cache=False, store=store)
        want = cold.raw_table().to_records()
        digest = scenario_fingerprint(config, config.study_period, STAGE)
        store._payload_path(digest).write_bytes(b"")
        rebuilt = build_context(config, use_cache=False, store=ArtifactStore(root))
        assert rebuilt.raw_table().to_records() == want
