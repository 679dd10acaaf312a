"""Persistent artifact layer: columnar serialization + content-addressed cache.

The store turns the in-memory world-build memoization into something durable:

* :mod:`repro.store.codec` — a binary serialization format for
  :class:`~repro.flows.flowtable.FlowTable` (tagged value pools + raw typed
  ``array`` column bytes) and for discovery footprints
  (:class:`~repro.core.discovery.DiscoveryResult` /
  :class:`~repro.core.pipeline.PipelineResult`, same tagged-pool style), with
  no numpy and no pickle anywhere.  One parser reads every table:
  :func:`load_table_mmap` / :func:`load_table_lazy` keep column bytes on the
  mapped artifact until first touch, and :func:`load_table` /
  :func:`loads_table` decode every column after the same pass.
* :mod:`repro.store.artifacts` — :class:`ArtifactStore`, a content-addressed
  on-disk cache keyed by the SHA-256 of the frozen scenario configuration, the
  study period, the pipeline stage, and a format-version tag (discovery
  artifacts additionally key on the pattern-set fingerprint).
  ``ExperimentContext`` consults it so repeated runs (CLI invocations,
  benchmark sessions, sweep workers) warm-start from disk instead of
  regenerating a week of flows or re-running the discovery pipeline.
"""

from repro.store.codec import (
    CODEC_VERSION,
    DISCOVERY_CODEC_VERSION,
    StoreFormatError,
    dump_discovery,
    dump_pipeline_result,
    dump_table,
    dumps_discovery,
    dumps_pipeline_result,
    dumps_table,
    load_pipeline_result,
    load_table,
    load_table_lazy,
    load_table_mmap,
    loads_discovery,
    loads_pipeline_result,
    loads_table,
)
from repro.store.artifacts import (
    ArtifactEntry,
    ArtifactStore,
    config_digest,
    default_store_root,
    discovery_stage,
)

__all__ = [
    "CODEC_VERSION",
    "DISCOVERY_CODEC_VERSION",
    "StoreFormatError",
    "dump_discovery",
    "dump_pipeline_result",
    "dump_table",
    "dumps_discovery",
    "dumps_pipeline_result",
    "dumps_table",
    "load_pipeline_result",
    "load_table",
    "load_table_lazy",
    "load_table_mmap",
    "loads_discovery",
    "loads_pipeline_result",
    "loads_table",
    "ArtifactEntry",
    "ArtifactStore",
    "config_digest",
    "default_store_root",
    "discovery_stage",
]
