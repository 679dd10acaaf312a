"""Regression tests for the shared experiment-context cache.

The ``build_context`` cache used to key on a hand-picked subset of the
scenario fields; scenarios differing only in the outage period or the
workload parameters silently aliased each other.  The key is now the full
frozen :class:`ScenarioConfig`.
"""

from datetime import date

from repro.experiments.context import build_context
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig


def _tiny(seed: int = 11, **overrides) -> ScenarioConfig:
    """A deliberately minimal scenario so each context builds in well under a second."""
    return ScenarioConfig.small(seed=seed).with_overrides(
        n_subscriber_lines=40, n_scanner_lines=1, **overrides
    )


def test_build_context_cache_distinguishes_outage_period():
    base = _tiny()
    shifted = base.with_overrides(
        outage_period=StudyPeriod(date(2021, 11, 1), date(2021, 11, 8), name="outage-alt")
    )
    context_base = build_context(base)
    context_shifted = build_context(shifted)
    assert context_base is not context_shifted
    assert context_shifted.config.outage_period.start == date(2021, 11, 1)
    # Equal configurations still share one cached context.
    assert build_context(_tiny()) is context_base


def test_build_context_cache_distinguishes_workload_parameters():
    base = _tiny(seed=12)
    context_base = build_context(base)
    context_servers = build_context(base.with_overrides(servers_per_device=4))
    context_sigma = build_context(base.with_overrides(volume_sigma=0.3))
    assert context_servers is not context_base
    assert context_sigma is not context_base
    assert context_servers is not context_sigma


def test_context_flow_caches_distinguish_same_name_periods():
    """Two periods sharing a name but not dates must not alias in the caches."""
    context = build_context(_tiny(seed=14))
    first = StudyPeriod(date(2022, 2, 28), date(2022, 3, 2))
    second = StudyPeriod(date(2022, 3, 10), date(2022, 3, 12))
    table_first = context.raw_table(first)
    table_second = context.raw_table(second)
    assert table_first is not table_second
    days_second = {timestamp.date() for timestamp in table_second.distinct("timestamp")}
    assert days_second == {date(2022, 3, 10), date(2022, 3, 11)}


def test_workload_parameters_reach_generator():
    config = _tiny(seed=13, servers_per_device=5, volume_sigma=0.4)
    context = build_context(config)
    generator = context.world.workload_generator()
    assert generator.servers_per_device == 5
    assert generator.volume_sigma == 0.4


def test_context_cache_is_a_bounded_lru():
    from repro.experiments import context as context_module

    limit = context_module.CONTEXT_CACHE_MAX_ENTRIES
    configs = [_tiny(seed=800 + index) for index in range(limit + 1)]
    contexts = [build_context(config) for config in configs]
    assert len(context_module._CONTEXT_CACHE) == limit
    # The oldest entry was evicted; a rebuild yields a fresh context.
    assert build_context(configs[0]) is not contexts[0]
    # The newest entries are still shared.
    assert build_context(configs[-1]) is contexts[-1]


def test_context_cache_lru_refreshes_on_hit():
    from repro.experiments import context as context_module

    limit = context_module.CONTEXT_CACHE_MAX_ENTRIES
    first = _tiny(seed=830)
    kept = build_context(first)
    fillers = [_tiny(seed=840 + index) for index in range(limit - 1)]
    filler_contexts = [build_context(config) for config in fillers]
    # The cache is now full with [first, *fillers]; touching the oldest entry
    # makes it most-recent, so the next insert evicts fillers[0] instead.
    assert build_context(first) is kept
    build_context(_tiny(seed=860))
    assert build_context(first) is kept
    assert build_context(fillers[0]) is not filler_contexts[0]


def test_use_cache_false_bypasses_the_lru():
    config = _tiny(seed=870)
    first = build_context(config, use_cache=False)
    second = build_context(config, use_cache=False)
    assert first is not second
    # Bypassing builds are not inserted either.
    assert build_context(config) is not first


def test_discovery_pipeline_is_lazy():
    context = build_context(_tiny(seed=880), use_cache=False)
    assert context._result is None
    assert context._pipeline is None
    # Generating flows does not require a discovery run...
    context.raw_table()
    assert context._result is None
    # ...but the scanner exclusion does, and it runs exactly once on demand.
    context.clean_table()
    assert context._result is not None
    assert context.result is context.result


def test_context_cache_keys_on_the_store_identity(tmp_path):
    """A storeless cache hit must not shadow a store-backed request."""
    from repro.store.artifacts import ArtifactStore

    config = _tiny(seed=890)
    storeless = build_context(config)
    store = ArtifactStore(tmp_path / "store")
    backed = build_context(config, store=store)
    assert backed is not storeless
    assert backed.store is store
    assert storeless.store is None
    # Each flavour still caches against its own key.
    assert build_context(config) is storeless
    assert build_context(config, store=ArtifactStore(tmp_path / "store")) is backed
