"""Tests for the content-addressed artifact store and its warm-start wiring."""

import gc
import json
import random
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from datetime import date

import pytest

from repro.core.pipeline import DiscoveryPipeline
from repro.experiments.context import build_context
from repro.flows.flowtable import FlowTable
from repro.flows.workload import WorkloadGenerator
from repro.obs.metrics import MetricsRegistry, disable, enable, set_registry
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.simulation.world import build_world
from repro.store import artifacts
from repro.store.artifacts import (
    STAGE_RAW_EXPORT,
    ArtifactStore,
    clean_stage,
    config_digest,
    discovery_stage,
    scenario_fingerprint,
)
from repro.store.codec import dumps_pipeline_result

from flowrows import from_records
from test_store_codec import random_records

PERIOD = StudyPeriod(date(2022, 3, 1), date(2022, 3, 3), name="store-test")


def _tiny(seed: int = 21, **overrides) -> ScenarioConfig:
    return ScenarioConfig.small(seed=seed).with_overrides(
        n_subscriber_lines=40, n_scanner_lines=1, **overrides
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def table():
    return from_records(random_records(random.Random(1), 120))


class TestFingerprint:
    def test_distinguishes_every_config_field(self):
        base = _tiny()
        for overrides in ({"seed": 99}, {"sampling_ratio": 64}, {"volume_sigma": 0.5}):
            changed = base.with_overrides(**overrides)
            assert scenario_fingerprint(base, PERIOD, "s") != scenario_fingerprint(
                changed, PERIOD, "s"
            )

    def test_distinguishes_stage_and_period(self):
        base = _tiny()
        other_period = StudyPeriod(date(2022, 3, 1), date(2022, 3, 4))
        assert scenario_fingerprint(base, PERIOD, "a") != scenario_fingerprint(base, PERIOD, "b")
        assert scenario_fingerprint(base, PERIOD, "a") != scenario_fingerprint(
            base, other_period, "a"
        )

    def test_period_name_does_not_matter(self):
        """Flows depend only on the covered days, so renamed periods share artifacts."""
        renamed = StudyPeriod(PERIOD.start, PERIOD.end, name="something-else")
        assert scenario_fingerprint(_tiny(), PERIOD, "s") == scenario_fingerprint(
            _tiny(), renamed, "s"
        )

    def test_config_digest_is_stable(self):
        assert config_digest(_tiny()) == config_digest(_tiny())
        assert config_digest(_tiny()) != config_digest(_tiny(seed=22))


class TestStore:
    def test_miss_returns_none(self, store):
        assert store.get_table(_tiny(), PERIOD, "missing") is None

    def test_put_get_round_trip(self, store, table):
        store.put_table(_tiny(), PERIOD, "stage", table)
        loaded = store.get_table(_tiny(), PERIOD, "stage")
        assert loaded is not None
        assert loaded.to_records() == table.to_records()

    def test_entries_and_total_bytes(self, store, table):
        config = _tiny()
        store.put_table(config, PERIOD, "a", table)
        store.put_table(config, PERIOD, "b", table)
        entries = store.entries()
        assert {entry.stage for entry in entries} == {"a", "b"}
        assert all(entry.rows == len(table) for entry in entries)
        assert store.total_bytes() == sum(entry.payload_bytes for entry in entries)
        assert all(entry.config == repr(config) for entry in entries)

    def test_corrupt_payload_is_a_miss_and_removed(self, store, table):
        config = _tiny()
        path = store.put_table(config, PERIOD, "stage", table)
        path.write_bytes(b"corrupted beyond recognition")
        assert store.get_table(config, PERIOD, "stage") is None
        assert not path.exists()
        assert store.entries() == []

    def test_truncated_payload_is_a_miss(self, store, table):
        config = _tiny()
        path = store.put_table(config, PERIOD, "stage", table)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get_table(config, PERIOD, "stage") is None

    def test_prune_all(self, store, table):
        store.put_table(_tiny(), PERIOD, "a", table)
        store.put_table(_tiny(), PERIOD, "b", table)
        removed, freed = store.prune()
        assert removed == 2
        assert freed > 0
        assert store.entries() == []
        assert list(store.root.iterdir()) == []

    def test_prune_respects_age_cutoff(self, store, table):
        store.put_table(_tiny(), PERIOD, "fresh", table)
        removed, _freed = store.prune(older_than_seconds=3600.0)
        assert removed == 0
        assert len(store.entries()) == 1

    def test_sidecar_size_does_not_depend_on_the_clock(self, store, table, monkeypatch):
        """Two write times whose float reprs differ in length give equal sidecars."""
        sizes = []
        for stage, now in (("early", 1760772139.5), ("later", 1760772139.1234567)):
            monkeypatch.setattr(artifacts.time, "time", lambda now=now: now)
            store.put_table(_tiny(), PERIOD, stage, table)
            digest = scenario_fingerprint(_tiny(), PERIOD, stage)
            sizes.append(store._meta_path(digest).stat().st_size)
        assert sizes[0] == sizes[1]
        created = {entry.stage: entry.created for entry in store.entries()}
        assert created == {"early": 1760772139.5, "later": 1760772139.123457}

    def test_sidecar_with_a_numeric_created_still_lists(self, store, table):
        """A sidecar written before the fixed-width form keeps its place and age."""
        store.put_table(_tiny(), PERIOD, "old", table)
        store.put_table(_tiny(), PERIOD, "new", table)
        meta_path = store._meta_path(scenario_fingerprint(_tiny(), PERIOD, "old"))
        meta = json.loads(meta_path.read_text())
        meta["created"] = float(meta["created"]) - 3600.0
        meta_path.write_text(json.dumps(meta))
        entries = store.entries()
        assert [entry.stage for entry in entries] == ["old", "new"]
        assert entries[0].age_seconds >= 3600.0


class TestShardedLayout:
    def test_payloads_live_in_two_level_fanout(self, store, table):
        path = store.put_table(_tiny(), PERIOD, "stage", table)
        digest = scenario_fingerprint(_tiny(), PERIOD, "stage")
        assert path == store.root / digest[:2] / f"{digest[2:]}.rft"
        assert path.exists()
        sidecar = store._meta_path(digest)
        assert sidecar.parent == path.parent and sidecar.exists()

    @pytest.mark.parametrize("read_path", ("mmap", "eager"))
    def test_flat_layout_artifact_is_a_miss(self, store, table, read_path):
        """The pre-sharding flat layout is unknown to the cache: a miss, not a hit.

        Both read paths of the store are covered: a flow table is mapped
        (``get_table``), a pipeline result is read eagerly from its stream
        (``get_pipeline_result``).
        """
        config = _tiny()
        if read_path == "mmap":
            path = store.put_table(config, PERIOD, "stage", table)

            def get():
                return store.get_table(config, PERIOD, "stage")
        else:
            result = DiscoveryPipeline(build_world(config)).run(PERIOD)
            path = store.put_pipeline_result(config, PERIOD, "stage", result)

            def get():
                return store.get_pipeline_result(config, PERIOD, "stage")
        digest = path.parent.name + path.stem
        path.rename(store.root / f"{digest}.rft")
        store._meta_path(digest).rename(store.root / f"{digest}.json")
        path.parent.rmdir()
        registry = MetricsRegistry()
        set_registry(registry)
        enable()
        try:
            assert get() is None
        finally:
            disable()
            set_registry(MetricsRegistry())
        assert registry.counter("store.misses") == 1
        assert registry.counter("store.hits") == 0
        assert store.entries() == []
        store.prune()
        assert list(store.root.iterdir()) == []

    def test_prune_cleans_both_layouts_and_empty_shards(self, store, table):
        config = _tiny()
        path = store.put_table(config, PERIOD, "sharded", table)
        digest = path.parent.name + path.stem
        (store.root / f"{digest}.rft").write_bytes(path.read_bytes())
        removed, _freed = store.prune()
        assert removed >= 1
        assert list(store.root.iterdir()) == [], "prune must leave no shard dirs behind"

    @pytest.mark.parametrize("kind", ("table", "pipeline-result"))
    def test_concurrent_writers_of_one_digest_all_succeed(self, store, table, kind):
        """Racing writers must never corrupt the artifact (atomic os.replace).

        Both artifact kinds are raced: a flow table (``put_table``) and a
        pipeline result (``put_pipeline_result``).
        """
        config = _tiny()
        if kind == "table":
            put, get, value, canonical = store.put_table, store.get_table, table, FlowTable.to_records
        else:
            put, get = store.put_pipeline_result, store.get_pipeline_result
            value = DiscoveryPipeline(build_world(config)).run(PERIOD)
            canonical = dumps_pipeline_result
        n_writers = 8
        barrier = threading.Barrier(n_writers)

        def write():
            barrier.wait()
            return put(config, PERIOD, "raced", value)

        with ThreadPoolExecutor(max_workers=n_writers) as pool:
            paths = [future.result() for future in [pool.submit(write) for _ in range(n_writers)]]
        assert len({str(p) for p in paths}) == 1, "all writers converge on one payload path"
        loaded = get(config, PERIOD, "raced")
        assert loaded is not None
        assert canonical(loaded) == canonical(value)
        assert len(store.entries()) == 1
        # No temp files may survive the race.
        strays = [p.name for p in store.root.rglob("*") if ".tmp-" in p.name]
        assert strays == [], strays


class TestWarmStart:
    def test_context_tables_warm_start_and_skip_discovery(self, store):
        config = _tiny(seed=32)
        cold = build_context(config, use_cache=False, store=store)
        cold_clean = cold.clean_table()
        cold_raw = cold.raw_table()

        warm = build_context(config, use_cache=False, store=store)
        assert warm.clean_table().to_records() == cold_clean.to_records()
        assert warm.raw_table().to_records() == cold_raw.to_records()
        # Everything came from disk: the discovery pipeline never ran.
        assert warm._result is None

    def test_store_stages_are_populated(self, store):
        """A cold clean table persists the export, the clean table and discovery.

        The generated workload is not persisted: no run reads it back.
        """
        config = _tiny(seed=33)
        context = build_context(config, use_cache=False, store=store)
        context.clean_table()
        stages = {entry.stage for entry in store.entries()}
        assert stages == {
            STAGE_RAW_EXPORT,
            clean_stage(100),
            discovery_stage(context.pipeline.pattern_set),
        }

    def test_distinct_configs_do_not_alias(self, store):
        low = build_context(_tiny(seed=34), use_cache=False, store=store)
        high = build_context(
            _tiny(seed=34, sampling_ratio=32), use_cache=False, store=store
        )
        assert len(low.raw_table(PERIOD)) != len(high.raw_table(PERIOD)) or (
            low.raw_table(PERIOD).to_records() != high.raw_table(PERIOD).to_records()
        )


@pytest.mark.parametrize("with_store", (False, True))
def test_generated_table_is_garbage_after_export(tmp_path, monkeypatch, with_store):
    """Neither the context nor the world keeps the generated workload alive."""
    generated = []
    original = WorkloadGenerator.generate_period_table

    def spy(self, period, include_scanners=True):
        table = original(self, period, include_scanners=include_scanners)
        generated.append(weakref.ref(table))
        return table

    monkeypatch.setattr(WorkloadGenerator, "generate_period_table", spy)
    store = ArtifactStore(tmp_path / "store") if with_store else None
    context = build_context(_tiny(seed=35), use_cache=False, store=store)
    raw = context.raw_table(PERIOD)
    gc.collect()
    assert len(generated) == 1
    assert generated[0]() is None, "the generated table outlived its export"
    assert len(raw) > 0
