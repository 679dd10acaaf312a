"""Content-addressed on-disk cache of serialized flow tables.

An :class:`ArtifactStore` maps a *scenario fingerprint* — the SHA-256 of the
frozen :class:`~repro.simulation.config.ScenarioConfig` repr, the study-period
dates, the pipeline stage, and a format-version tag — to a serialized
:class:`~repro.flows.flowtable.FlowTable` on disk.  Because the fingerprint
covers every scenario knob, two configurations differing in any field hash to
different artifacts, and a codec or fingerprint version bump orphans (never
mis-reads) old files.

Two stages are cached along the flow path:

* ``raw-export`` — the packet-sampled NetFlow export (``ExperimentContext.raw_table``),
* ``clean:<threshold>`` — the scanner-excluded baseline (``ExperimentContext.clean_table``),

plus one along the discovery path:

* ``discovery:<pattern fingerprint>`` — the full
  :class:`~repro.core.pipeline.PipelineResult` of a study period
  (``ExperimentContext.result``).  The stage tag embeds the SHA-256
  fingerprint of the pattern set that classified the names, so a changed
  pattern collection can never be served stale footprints.

Writes are atomic (temp file + ``os.replace``) so concurrent sweep workers can
share one store directory; a structurally corrupt or truncated artifact is
treated as a cache miss and removed.  Payloads carry no checksum, so a flip
inside a stored value loads silently.  Table reads take the zero-copy mmap path
(:func:`~repro.store.codec.load_table_mmap`): the payload is mapped, columns
stay on the map as :class:`~repro.flows.flowtable.LazyColumn` views until
first touch, and every way a bad file can fail the mapping or the parse folds
into the same corrupt-fallback miss.  An out-of-pool code is the one defect
found only at first touch: that touch raises, and the artifact is discarded so
the next run rebuilds it.  Every payload file has a JSON sidecar with
human-readable metadata, which powers ``iot-backend-repro cache ls``.

Artifacts live in a **digest-sharded layout**: payload and sidecar of digest
``abcdef…`` are stored under ``ab/cdef….rft`` / ``ab/cdef….json``, fanning a
campaign's files out over up to 256 subdirectories so thousand-scenario
sweeps do not serialize on one hot directory.  The store is a cache, so a
file in any other place (such as the flat ``abcdef….rft`` layout of earlier
versions) is simply a miss; a full :meth:`ArtifactStore.prune` removes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, List, Optional, Tuple, Union

from repro.flows.flowtable import FlowTable
from repro.obs import metrics as obs_metrics
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.store.codec import (
    CODEC_VERSION,
    DISCOVERY_CODEC_VERSION,
    StoreFormatError,
    dump_pipeline_result,
    dump_table,
    load_pipeline_result,
    load_table_mmap,
)

#: Bump when the fingerprint recipe itself changes.
FINGERPRINT_VERSION = 1

_PAYLOAD_SUFFIX = ".rft"
_META_SUFFIX = ".json"

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "IOT_REPRO_STORE"

#: Stage tag of the packet-sampled NetFlow export.
STAGE_RAW_EXPORT = "raw-export"


def clean_stage(threshold: int) -> str:
    """Stage tag of a scanner-excluded table at one exclusion threshold."""
    return f"clean:{threshold}"


def discovery_stage(pattern_set) -> str:
    """Stage tag of a persisted discovery run under one pattern collection.

    The tag embeds a prefix of :meth:`~repro.core.patterns.PatternSet.fingerprint`
    (itself a SHA-256, so 16 hex digits keep collisions out of reach), making
    the pattern set part of the artifact's content address: a pipeline running
    different patterns addresses — and misses — a different slot.
    """
    return f"discovery:{pattern_set.fingerprint()[:16]}"


def default_store_root() -> Path:
    """The default store directory (``$IOT_REPRO_STORE`` or ``~/.cache/iot-backend-repro``)."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "iot-backend-repro"


def config_digest(config: ScenarioConfig) -> str:
    """A stable SHA-256 digest of a frozen scenario configuration."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


def scenario_fingerprint(config: ScenarioConfig, period: StudyPeriod, stage: str) -> str:
    """The content address of one (config, period, stage) artifact.

    Only the period *dates* participate: flows are a pure function of the
    covered days, so two periods differing only in their display name share
    one artifact.
    """
    payload = "|".join(
        (
            f"fingerprint={FINGERPRINT_VERSION}",
            f"codec={CODEC_VERSION}",
            f"stage={stage}",
            f"period={period.start.isoformat()}..{period.end.isoformat()}",
            f"config={config!r}",
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArtifactEntry:
    """Metadata of one stored artifact (from its JSON sidecar)."""

    digest: str
    stage: str
    period: str
    rows: int
    payload_bytes: int
    created: float
    config: str

    @property
    def age_seconds(self) -> float:
        return max(0.0, time.time() - self.created)


class ArtifactStore:
    """A content-addressed directory of serialized flow tables."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing --------------------------------------------------------------

    def _payload_path(self, digest: str) -> Path:
        """The sharded (``ab/cdef…``) payload path of one digest."""
        return self.root / digest[:2] / f"{digest[2:]}{_PAYLOAD_SUFFIX}"

    def _meta_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}{_META_SUFFIX}"

    def _tmp_suffix(self) -> str:
        """Unique temp-file suffix per writer (process *and* thread)."""
        return f".tmp-{os.getpid()}-{threading.get_ident()}"

    # -- read / write ------------------------------------------------------------

    def get_table(
        self, config: ScenarioConfig, period: StudyPeriod, stage: str
    ) -> Optional[FlowTable]:
        """Load the artifact of (config, period, stage), or None on a miss.

        A corrupt payload (partial write of a crashed process, codec version
        skew) counts as a miss and is deleted so the slot can be rebuilt.
        The payload is mapped and decoded lazily
        (:func:`~repro.store.codec.load_table_mmap`); everything that can be
        thrown on a bad file -- including the ``ValueError`` an empty file
        provokes in ``mmap`` and any ``BufferError`` from the mapping layer --
        is folded into the same corrupt-fallback path, so callers only ever
        see a table or ``None``.  The one defect the load cannot see, a code
        outside its pool, raises :class:`StoreFormatError` at first touch of
        its column; that touch first discards the artifact and counts a
        ``store.corrupt_fallbacks``, so the next run rebuilds the slot.
        """
        digest = scenario_fingerprint(config, period, stage)
        path = self._payload_path(digest)
        try:
            payload_bytes = path.stat().st_size
            table = load_table_mmap(path, on_bad_code=lambda: self._discard_corrupt(digest))
            obs_metrics.inc("store.hits")
            obs_metrics.inc("store.bytes_read", float(payload_bytes))
            return table
        except FileNotFoundError:
            obs_metrics.inc("store.misses")
            return None
        except (StoreFormatError, ValueError, OSError, BufferError):
            self._discard(digest)
            obs_metrics.inc("store.misses")
            obs_metrics.inc("store.corrupt_fallbacks")
            return None

    def put_table(
        self, config: ScenarioConfig, period: StudyPeriod, stage: str, table: FlowTable
    ) -> Path:
        """Persist a table under its scenario fingerprint (atomic)."""
        digest = scenario_fingerprint(config, period, stage)
        return self._put(
            digest, config, period, stage, len(table), lambda stream: dump_table(table, stream)
        )

    @staticmethod
    def _pipeline_fingerprint_stage(stage: str) -> str:
        """The fingerprint-facing stage tag of a pipeline-result artifact.

        Folds the discovery codec version into the address so a codec bump
        orphans (never mis-reads) old discovery artifacts without disturbing
        the flow-table slots.
        """
        return f"{stage}|discovery-codec={DISCOVERY_CODEC_VERSION}"

    def get_pipeline_result(
        self, config: ScenarioConfig, period: StudyPeriod, stage: str
    ):
        """Load the pipeline result of (config, period, stage), or None on a miss.

        Exactly like :meth:`get_table`, a corrupt or truncated payload counts
        as a miss and is deleted, so callers transparently fall back to a cold
        discovery run and rebuild the slot.
        """
        digest = scenario_fingerprint(config, period, self._pipeline_fingerprint_stage(stage))
        try:
            with self._payload_path(digest).open("rb") as stream:
                payload_bytes = os.fstat(stream.fileno()).st_size
                result = load_pipeline_result(stream)
            obs_metrics.inc("store.hits")
            obs_metrics.inc("store.bytes_read", float(payload_bytes))
            return result
        except FileNotFoundError:
            obs_metrics.inc("store.misses")
            return None
        except (StoreFormatError, OSError):
            self._discard(digest)
            obs_metrics.inc("store.misses")
            obs_metrics.inc("store.corrupt_fallbacks")
            return None

    def put_pipeline_result(
        self, config: ScenarioConfig, period: StudyPeriod, stage: str, result
    ) -> Path:
        """Persist a pipeline result under its scenario fingerprint (atomic)."""
        digest = scenario_fingerprint(config, period, self._pipeline_fingerprint_stage(stage))
        return self._put(
            digest,
            config,
            period,
            stage,
            result.combined.total_count(),
            lambda stream: dump_pipeline_result(result, stream),
        )

    def _put(
        self,
        digest: str,
        config: ScenarioConfig,
        period: StudyPeriod,
        stage: str,
        rows: int,
        dump: Callable[[BinaryIO], object],
    ) -> Path:
        """Write one artifact: ``dump``'s payload, then its JSON sidecar."""
        path = self._payload_path(digest)
        self._write_atomically(path, dump)
        payload_bytes = path.stat().st_size
        meta = {
            "digest": digest,
            "stage": stage,
            "period": f"{period.start.isoformat()}..{period.end.isoformat()}",
            "rows": rows,
            "payload_bytes": payload_bytes,
            # Fixed width (six decimals), so equal payloads give stores of
            # equal size; float() reads it as it reads the older bare number.
            "created": f"{time.time():.6f}",
            "config": repr(config),
            "fingerprint_version": FINGERPRINT_VERSION,
            "codec_version": CODEC_VERSION,
        }
        text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
        self._write_atomically(
            self._meta_path(digest), lambda stream: stream.write(text.encode("utf-8"))
        )
        obs_metrics.inc("store.writes")
        obs_metrics.inc("store.bytes_written", float(payload_bytes))
        return path

    def _write_atomically(self, path: Path, dump: Callable[[BinaryIO], object]) -> None:
        """Write a file through a per-writer temp name and ``os.replace``.

        Racing writers of one path each finish a whole file and the last
        rename wins, so a reader never sees a partial one.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}{self._tmp_suffix()}")
        try:
            with tmp.open("wb") as stream:
                dump(stream)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    def _discard(self, digest: str) -> int:
        """Remove one artifact (payload + sidecar); return bytes freed."""
        freed = 0
        for path in (self._payload_path(digest), self._meta_path(digest)):
            try:
                freed += path.stat().st_size
                path.unlink()
            except OSError:
                pass
        return freed

    def _discard_corrupt(self, digest: str) -> None:
        """Discard a served table's artifact once a touch finds a bad code.

        Counted once per artifact: a later failing touch of the same table
        finds nothing left to discard.
        """
        if self._discard(digest):
            obs_metrics.inc("store.corrupt_fallbacks")

    # -- inspection / maintenance ------------------------------------------------

    def entries(self) -> List[ArtifactEntry]:
        """All stored artifacts, oldest first."""
        entries: List[ArtifactEntry] = []
        for meta_path in self.root.glob(f"*/*{_META_SUFFIX}"):
            try:
                meta = json.loads(meta_path.read_text())
                entry = ArtifactEntry(
                    digest=str(meta["digest"]),
                    stage=str(meta["stage"]),
                    period=str(meta["period"]),
                    rows=int(meta["rows"]),
                    payload_bytes=int(meta["payload_bytes"]),
                    created=float(meta["created"]),
                    config=str(meta["config"]),
                )
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                continue
            if self._payload_path(entry.digest).exists():
                entries.append(entry)
        entries.sort(key=lambda entry: (entry.created, entry.digest))
        return entries

    def total_bytes(self) -> int:
        """Total payload bytes currently stored."""
        return sum(entry.payload_bytes for entry in self.entries())

    def prune(self, older_than_seconds: Optional[float] = None) -> Tuple[int, int]:
        """Delete artifacts (all of them, or only those older than a cutoff).

        Returns ``(artifacts_removed, bytes_freed)``.  Stray files that lost
        their sidecar (or vice versa) are cleaned up as well when pruning
        everything.
        """
        removed = 0
        freed = 0
        for entry in self.entries():
            if older_than_seconds is not None and entry.age_seconds < older_than_seconds:
                continue
            freed += self._discard(entry.digest)
            removed += 1
        if older_than_seconds is None:
            for pattern in (f"*{_PAYLOAD_SUFFIX}", f"*/*{_PAYLOAD_SUFFIX}"):
                for path in self.root.glob(pattern):
                    try:
                        freed += path.stat().st_size
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            for pattern in (f"*{_META_SUFFIX}", f"*/*{_META_SUFFIX}"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # only empty shard directories go away
                    except OSError:
                        pass
        return removed, freed
