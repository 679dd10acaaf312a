"""Incremental discovery: host-classification cache and persisted footprints.

Covers the invalidation edges of the per-host certificate-classification
cache (changed certificate on the same address, changed pattern set,
overlapping-but-shifted study periods) and the artifact-store fallback when a
persisted discovery result is corrupt.
"""

from datetime import date, timedelta

import pytest

from repro.core.discovery import SOURCE_TLS, BackendDiscovery, HostClassificationCache
from repro.core.patterns import DomainPattern, PatternSet
from repro.core.pipeline import DiscoveryPipeline
from repro.experiments.context import build_context
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.scan.censys import CensysHostRecord, CensysSnapshot
from repro.scan.certificates import make_certificate
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.simulation.world import build_world
from repro.store.artifacts import ArtifactStore, discovery_stage
from repro.store.codec import StoreFormatError, loads_pipeline_result

VERDICT_CACHE_DROPS = "discovery.verdict_cache.drops"

DAY1 = date(2022, 3, 1)
DAY2 = date(2022, 3, 2)


def two_provider_patterns() -> PatternSet:
    pattern_set = PatternSet()
    pattern_set.patterns["alpha"] = [
        DomainPattern(
            "alpha", r"^[a-z0-9-]+\.alpha\.example\.?$", suffix_hint="alpha.example"
        )
    ]
    pattern_set.patterns["beta"] = [
        DomainPattern(
            "beta", r"^[a-z0-9-]+\.beta\.example\.?$", suffix_hint="beta.example"
        )
    ]
    return pattern_set


def snapshot_of(day, hosts):
    """Build a snapshot from ``[(ip, certificate), ...]``."""
    snapshot = CensysSnapshot(snapshot_date=day)
    for ip, certificate in hosts:
        snapshot.add(
            CensysHostRecord(
                ip=ip,
                snapshot_date=day,
                open_ports=(("tcp", 443),),
                certificates=(certificate,) if certificate is not None else (),
                location=None,
            )
        )
    return snapshot


def canonical(result):
    return sorted(
        (r.provider_key, r.ip, tuple(sorted(r.sources)), tuple(sorted(r.domains)))
        for r in result.records()
    )


class TestHostClassificationCache:
    def test_unchanged_certificate_replays_without_reclassification(self):
        certificate = make_certificate(["device.alpha.example"])
        discovery = BackendDiscovery(two_provider_patterns())
        first = discovery.discover_from_censys(snapshot_of(DAY1, [("10.0.0.1", certificate)]))
        second = discovery.discover_from_censys(snapshot_of(DAY2, [("10.0.0.1", certificate)]))
        assert canonical(first) == canonical(second)
        assert first.ips("alpha") == {"10.0.0.1"}
        assert discovery.host_cache.hits == 1
        assert discovery.host_cache.misses == 1

    def test_value_equal_certificate_copy_still_hits(self):
        # The identity check is value equality (with an object-identity fast
        # path): a distinct but value-equal certificate object must replay the
        # memoized verdicts, not re-classify.
        import dataclasses

        cert_a = make_certificate(["device.alpha.example"])
        cert_b = dataclasses.replace(cert_a)
        assert cert_b is not cert_a and cert_b == cert_a
        discovery = BackendDiscovery(two_provider_patterns())
        discovery.discover_from_censys(snapshot_of(DAY1, [("10.0.0.1", cert_a)]))
        result = discovery.discover_from_censys(snapshot_of(DAY2, [("10.0.0.1", cert_b)]))
        assert result.ips("alpha") == {"10.0.0.1"}
        assert discovery.host_cache.hits == 1

    def test_changed_certificate_on_same_ip_is_reclassified(self):
        cert_alpha = make_certificate(["device.alpha.example"])
        cert_beta = make_certificate(["device.beta.example"])
        discovery = BackendDiscovery(two_provider_patterns())
        first = discovery.discover_from_censys(snapshot_of(DAY1, [("10.0.0.1", cert_alpha)]))
        second = discovery.discover_from_censys(snapshot_of(DAY2, [("10.0.0.1", cert_beta)]))
        assert first.ips("alpha") == {"10.0.0.1"}
        assert first.ips("beta") == set()
        assert second.ips("beta") == {"10.0.0.1"}
        assert second.ips("alpha") == set()
        # Both days were classifications, not replays.
        assert discovery.host_cache.hits == 0
        assert discovery.host_cache.misses == 2

    def test_host_losing_its_certificate_is_reclassified_to_nothing(self):
        cert_alpha = make_certificate(["device.alpha.example"])
        discovery = BackendDiscovery(two_provider_patterns())
        discovery.discover_from_censys(snapshot_of(DAY1, [("10.0.0.1", cert_alpha)]))
        second = discovery.discover_from_censys(snapshot_of(DAY2, [("10.0.0.1", None)]))
        assert second.total_count() == 0

    def test_changed_pattern_set_invalidates_every_verdict(self):
        pattern_set = two_provider_patterns()
        certificate = make_certificate(["device.alpha.example"])
        discovery = BackendDiscovery(pattern_set)
        first = discovery.discover_from_censys(snapshot_of(DAY1, [("10.0.0.1", certificate)]))
        assert first.ips("alpha") == {"10.0.0.1"}
        assert len(discovery.host_cache) == 1
        # Retire the alpha patterns; PatternSet.engine() rebuilds, and the
        # engine-identity guard must drop the memoized alpha verdict.
        del pattern_set.patterns["alpha"]
        second = discovery.discover_from_censys(snapshot_of(DAY2, [("10.0.0.1", certificate)]))
        assert second.total_count() == 0
        assert discovery.host_cache.hits == 0

    def test_cache_guard_is_engine_identity(self):
        """An engine change drops every verdict; dropping a non-empty cache is counted."""
        registry = MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        obs_metrics.enable()
        try:
            cache = HostClassificationCache()
            token_a, token_b = object(), object()
            cache.validate(token_a)
            cache.put(("10.0.0.1", ()), (("alpha", ("device.alpha.example",)),))
            cache.validate(token_a)
            assert len(cache) == 1
            assert registry.counter(VERDICT_CACHE_DROPS) == 0
            cache.validate(token_b)
            assert len(cache) == 0
            assert registry.counter(VERDICT_CACHE_DROPS) == 1
            cache.validate(token_a)  # an engine change over an empty cache drops nothing
            assert registry.counter(VERDICT_CACHE_DROPS) == 1
        finally:
            obs_metrics.disable()
            obs_metrics.set_registry(previous)

    def test_cached_path_matches_uncached_path_on_world(self):
        config = ScenarioConfig.small(seed=7)
        world = build_world(config)
        incremental = BackendDiscovery()
        for day in config.study_period.days():
            snapshot = world.censys.snapshot(day)
            cold = BackendDiscovery().discover_from_censys(snapshot, use_cache=False)
            warm = incremental.discover_from_censys(snapshot)
            assert canonical(cold) == canonical(warm)
        assert incremental.host_cache.hits > 0


class TestShiftedPeriods:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world(ScenarioConfig.small(seed=7))

    def test_overlapping_shifted_periods_share_cache_without_contamination(self, world):
        # Certificate discovery over a shifted-but-overlapping window must be
        # unaffected by the verdicts carried over from the earlier window.
        # (Only the TLS stage is compared: active DNS intentionally rotates
        # round-robin answer windows with world-level query counters, so two
        # consecutive full runs never see identical active-DNS answers.)
        period = world.config.study_period
        first = StudyPeriod(period.start, period.start + timedelta(days=4), name="first")
        shifted = StudyPeriod(period.start + timedelta(days=2), period.end, name="shifted")
        carried = DiscoveryPipeline(world)
        for day in first.days():
            carried.discover_tls(day)
        carried_hits = carried.host_cache.hits
        for day in shifted.days():
            fresh_daily = DiscoveryPipeline(world).discover_tls(day)
            assert canonical(carried.discover_tls(day)) == canonical(fresh_daily)
        # The overlapping days replayed carried verdicts rather than starting over.
        assert carried.host_cache.hits > carried_hits

    def test_store_artifacts_key_on_period_dates(self, world, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        pipeline = DiscoveryPipeline(world)
        period = world.config.study_period
        first = StudyPeriod(period.start, period.start + timedelta(days=3), name="first")
        shifted = StudyPeriod(period.start + timedelta(days=1), period.start + timedelta(days=4))
        stage = discovery_stage(pipeline.pattern_set)
        config = world.config
        store.put_pipeline_result(config, first, stage, pipeline.run(first))
        assert store.get_pipeline_result(config, shifted, stage) is None
        loaded = store.get_pipeline_result(config, first, stage)
        assert loaded is not None
        assert sorted(loaded.daily_results) == first.days()


class TestCorruptArtifactFallback:
    def test_corrupt_discovery_artifact_falls_back_to_cold_run(self, tmp_path):
        config = ScenarioConfig.small(seed=7)
        store = ArtifactStore(tmp_path / "store")
        context = build_context(config, use_cache=False, store=store)
        reference = context.result

        stage = discovery_stage(context.pipeline.pattern_set)
        digest = None
        for entry in store.entries():
            if entry.stage == stage:
                digest = entry.digest
        assert digest is not None
        payload = store._payload_path(digest)
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))

        # The corrupt payload must raise StoreFormatError (never execute), and
        # the store must treat it as a miss, remove it, and rebuild cold.
        with pytest.raises(StoreFormatError):
            loads_pipeline_result(bytes(blob))
        assert store.get_pipeline_result(config, config.study_period, stage) is None
        assert not payload.exists()

        rebuilt = build_context(config, use_cache=False, store=store)
        assert rebuilt.result == reference
        assert store.get_pipeline_result(config, config.study_period, stage) == reference

    def test_truncated_discovery_artifact_is_a_miss(self, tmp_path):
        config = ScenarioConfig.small(seed=7)
        store = ArtifactStore(tmp_path / "store")
        world = build_world(config)
        pipeline = DiscoveryPipeline(world)
        stage = discovery_stage(pipeline.pattern_set)
        result = pipeline.run()
        path = store.put_pipeline_result(config, config.study_period, stage, result)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        assert store.get_pipeline_result(config, config.study_period, stage) is None

    def test_pattern_fingerprint_addresses_distinct_slots(self, tmp_path):
        config = ScenarioConfig.small(seed=7)
        store = ArtifactStore(tmp_path / "store")
        world = build_world(config)
        pipeline = DiscoveryPipeline(world)
        result = pipeline.run()
        store.put_pipeline_result(
            config, config.study_period, discovery_stage(pipeline.pattern_set), result
        )
        other_stage = discovery_stage(two_provider_patterns())
        assert other_stage != discovery_stage(pipeline.pattern_set)
        assert store.get_pipeline_result(config, config.study_period, other_stage) is None
