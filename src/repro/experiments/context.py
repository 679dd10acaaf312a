"""Shared experiment context.

Building the world, running the discovery pipeline, and generating a week of
flows are the expensive steps shared by every experiment; the context performs
them once and caches the results.  Two cache layers exist:

* an in-process LRU keyed on the full frozen :class:`ScenarioConfig`
  (:func:`build_context`'s module-level cache, bounded so a sweep over dozens
  of configurations cannot hold every world in memory), and
* an optional on-disk :class:`~repro.store.artifacts.ArtifactStore`: when one
  is passed to :func:`build_context`, the exported and scanner-cleaned flow
  tables — and the discovery pipeline's full
  :class:`~repro.core.pipeline.PipelineResult` — warm-start from disk across
  processes.

The context is the one owner of flow tables, in memory and on disk.  Both
stages go through one load-or-build path keyed by (period, stage).  The
generated workload behind an export is never kept: it is garbage as soon as
it has been sampled, and no analysis reads it.

The discovery pipeline is built *lazily*: a context whose flow tables all come
from the artifact store never pays for a discovery run it does not use.  This
is safe because the pipeline consumes no random streams — it is a pure
function of the already-built world — so running it before or after flow
generation yields bit-identical results.  When discovery *is* used (the
``discovery``/``table1`` experiments, scanner exclusion on a cold store), its
result is persisted under the ``discovery:<pattern fingerprint>`` stage and
later contexts skip classification entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.pipeline import DiscoveryPipeline, PipelineResult
from repro.core.traffic import DEFAULT_SCANNER_THRESHOLD, ScannerExclusion
from repro.flows.anonymize import AnonymizationMap
from repro.flows.flowtable import FlowTable
from repro.flows.netflow import NetFlowCollector
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.simulation.world import World, build_world
from repro.store.artifacts import STAGE_RAW_EXPORT, ArtifactStore, clean_stage, discovery_stage


class ExperimentContext:
    """Everything the individual experiments need, computed once."""

    def __init__(
        self, config: ScenarioConfig, world: World, store: Optional[ArtifactStore] = None
    ) -> None:
        self.config = config
        self.world = world
        self.anonymization = AnonymizationMap.build()
        self.store = store
        self._pipeline: Optional[DiscoveryPipeline] = None
        self._result: Optional[PipelineResult] = None
        self._scanner_cache: Dict[Tuple[StudyPeriod, int], Set[int]] = {}
        self._table_cache: Dict[Tuple[StudyPeriod, str], FlowTable] = {}

    # -- discovery (lazy) ----------------------------------------------------------

    @property
    def pipeline(self) -> DiscoveryPipeline:
        """The discovery pipeline, built on first use."""
        if self._pipeline is None:
            self._pipeline = DiscoveryPipeline(self.world)
        return self._pipeline

    @property
    def result(self) -> PipelineResult:
        """The discovery run, executed (or loaded from the store) on first use.

        Contexts that only read warm flow tables from the artifact store never
        trigger it.  With a store attached, the full
        :class:`~repro.core.pipeline.PipelineResult` warm-starts from disk —
        keyed on the frozen config, the study period, and the pattern-set
        fingerprint — so ``discovery``/``table1`` consumers skip classification
        entirely; a cold run persists its result for the next process.
        """
        if self._result is None:
            self._result = self._load_or_run_pipeline()
        return self._result

    def _load_or_run_pipeline(self) -> PipelineResult:
        stage = None
        period = self.config.study_period
        with span("context.discovery"):
            if self.store is not None:
                stage = discovery_stage(self.pipeline.pattern_set)
                cached = self.store.get_pipeline_result(self.config, period, stage)
                if cached is not None:
                    obs_metrics.inc("context.discovery_warm_starts")
                    return cached
            result = self.pipeline.run(period)
            if self.store is not None:
                self.store.put_pipeline_result(self.config, period, stage, result)
        return result

    # -- flow tables -----------------------------------------------------------------

    def scanner_lines(
        self,
        period: Optional[StudyPeriod] = None,
        threshold: int = DEFAULT_SCANNER_THRESHOLD,
    ) -> Set[int]:
        """The subscriber lines identified as scanners for a period/threshold.

        The scanner fan-out analysis runs on the cached raw export table.
        """
        period = period or self.config.study_period
        cache_key = (period, threshold)
        if cache_key not in self._scanner_cache:
            exclusion = ScannerExclusion(self.raw_table(period), self.result.dedicated.ips())
            self._scanner_cache[cache_key] = exclusion.scanner_lines(threshold)
        return self._scanner_cache[cache_key]

    def raw_table(self, period: Optional[StudyPeriod] = None) -> FlowTable:
        """Sampled NetFlow export for a period, scanners included.

        Flows are generated straight into ``FlowTable`` columns and sampled
        column-wise; the generated table is dropped once sampled.  With an
        artifact store attached the export warm-starts from disk, skipping
        generation and sampling entirely.
        """
        period = period or self.config.study_period
        return self._stage_table(
            period, STAGE_RAW_EXPORT, "context.raw_table", lambda: self._export(period)
        )

    def _export(self, period: StudyPeriod) -> FlowTable:
        generated = self.world.workload_generator().generate_period_table(period)
        with span("netflow.export"):
            collector = NetFlowCollector(self.config.sampling_ratio)
            return collector.export_table(generated, self.world.rng.spawn("netflow"))

    def clean_table(
        self,
        period: Optional[StudyPeriod] = None,
        threshold: int = DEFAULT_SCANNER_THRESHOLD,
    ) -> FlowTable:
        """Flows with scanner subscriber lines removed (the Section 5 baseline).

        Built once per period/threshold from the raw table by a bulk
        subscriber filter.  With an artifact store attached it warm-starts
        from disk, which also skips the discovery run the scanner exclusion
        needs.
        """
        period = period or self.config.study_period
        return self._stage_table(
            period,
            clean_stage(threshold),
            "context.clean_table",
            lambda: self.raw_table(period).exclude_subscribers(
                self.scanner_lines(period, threshold)
            ),
        )

    def _stage_table(
        self, period: StudyPeriod, stage: str, span_name: str, build: Callable[[], FlowTable]
    ) -> FlowTable:
        """The table of one (period, stage): held, else loaded, else built and stored."""
        key = (period, stage)
        table = self._table_cache.get(key)
        if table is None:
            with span(span_name):
                if self.store is not None:
                    table = self.store.get_table(self.config, period, stage)
                if table is None:
                    table = build()
                    if self.store is not None:
                        self.store.put_table(self.config, period, stage, table)
            self._table_cache[key] = table
        return table

    def outage_table(self) -> FlowTable:
        """Clean flows for the outage study period (December 2021)."""
        return self.clean_table(self.config.outage_period)

    # -- convenience ----------------------------------------------------------------

    @property
    def sampling_ratio(self) -> int:
        """The NetFlow sampling ratio of the scenario."""
        return self.config.sampling_ratio


#: Upper bound of the in-process context cache.  Contexts hold a full world
#: plus every exported and cleaned flow table, so the LRU stays deliberately
#: small; bulk multi-scenario work (``repro.sweeps``) bypasses it and relies on
#: the disk store instead.
CONTEXT_CACHE_MAX_ENTRIES = 4

_CONTEXT_CACHE: "OrderedDict[Tuple, ExperimentContext]" = OrderedDict()


def _cache_key(config: ScenarioConfig, store: Optional[ArtifactStore]) -> Tuple:
    """The LRU key: the frozen config plus the attached store's identity.

    The store participates so a storeless hit can never shadow a store-backed
    request (or vice versa) — the same aliasing class the config-subset keys
    of PR 2 suffered from.
    """
    return (config, None if store is None else str(store.root.resolve()))


def build_context(
    config: Optional[ScenarioConfig] = None,
    use_cache: bool = True,
    store: Optional[ArtifactStore] = None,
) -> ExperimentContext:
    """Build (or fetch from cache) the experiment context for a configuration.

    The cache key is the full (frozen, hashable) :class:`ScenarioConfig`, so
    scenarios differing in *any* field — outage period, workload parameters,
    scanner settings — get distinct contexts instead of silently aliasing.
    The cache is a small LRU (:data:`CONTEXT_CACHE_MAX_ENTRIES`); callers that
    iterate many scenarios should pass ``use_cache=False`` and, for warm
    starts across runs, an :class:`~repro.store.artifacts.ArtifactStore`.
    """
    config = config or ScenarioConfig()
    cache_key = _cache_key(config, store)
    if use_cache:
        cached = _CONTEXT_CACHE.get(cache_key)
        if cached is not None:
            _CONTEXT_CACHE.move_to_end(cache_key)
            obs_metrics.inc("context.lru_hits")
            return cached
    obs_metrics.inc("context.cold_builds")
    with span("context.build"):
        world = build_world(config)
    context = ExperimentContext(config=config, world=world, store=store)
    if use_cache:
        _CONTEXT_CACHE[cache_key] = context
        while len(_CONTEXT_CACHE) > CONTEXT_CACHE_MAX_ENTRIES:
            _CONTEXT_CACHE.popitem(last=False)
    return context
