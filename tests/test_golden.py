"""Golden digests: end-to-end behaviour of two scenarios, pinned.

One fresh, storeless context for ``ScenarioConfig.small(7)`` (and one for
``ScenarioConfig.default(7)``) runs every CLI
command in :data:`repro.experiments.registry.COMMANDS` order (the vantage ablation resolves
against its own fresh DNS rotation state, so its output does not depend on
the commands before it), then the store bytes of each flow table — generated
with scanners, raw export, scanner clean — are hashed for the study and the
outage period.  The ``scan`` section hashes a canonical text form of each of the
seven study-week Censys snapshots (hosts, ports, certificates, locations,
banners) and the serialized discovery-pipeline result.  Any change to a
rendered figure, a table, a flow row, a scan record or a discovery verdict
fails here, naming every entry that moved.

The warm-store pass pins the store read path too: one pass fills an artifact
store, and a second fresh context on that store, reading the exported and
clean tables and the discovery result back (the generated tables are not
stored, so it generates them again), must reproduce every digest (on the
small scenario under pytest; on either when run as a program).

After an intended behaviour change, regenerate the committed digests with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/small_seed7.json
    PYTHONPATH=src python tests/test_golden.py default > tests/golden/default_seed7.json

and review the diff.  Run as a program, the script also runs the warm-store
pass and exits non-zero, naming every entry that differs from the digests it
printed.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.context import build_context
from repro.experiments.registry import COMMANDS, run_command
from repro.obs import metrics as obs_metrics
from repro.scan.censys import CensysSnapshot
from repro.simulation.config import ScenarioConfig
from repro.store.artifacts import ArtifactStore
from repro.store.codec import dumps_pipeline_result, dumps_table

GOLDEN_PATH = Path(__file__).parent / "golden" / "small_seed7.json"
DEFAULT_GOLDEN_PATH = GOLDEN_PATH.with_name("default_seed7.json")

SEED = 7

#: The script's scale argument -> the scenario and its committed digests.
SCALES = {
    "small": (ScenarioConfig.small(SEED), GOLDEN_PATH),
    "default": (ScenarioConfig.default(SEED), DEFAULT_GOLDEN_PATH),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot_text(snapshot: CensysSnapshot) -> str:
    """Canonical text form of a scan snapshot, hosts in numeric IP order.

    ``Certificate.serial`` is left out: it comes from a process-wide counter,
    so it depends on how many certificates the process made before.
    """
    lines = [f"snapshot {snapshot.snapshot_date.isoformat()}"]
    for record in sorted(snapshot.records.values(), key=lambda r: ipaddress.ip_address(r.ip)):
        region = record.location.region_code if record.location is not None else "-"
        ports = ",".join(f"{transport}/{port}" for transport, port in record.open_ports)
        lines.append(f"host {record.ip} ports={ports} region={region}")
        for cert in record.certificates:
            lines.append(
                f"  cert cn={cert.subject_common_name} san={','.join(cert.san_dns_names)}"
                f" issuer={cert.issuer} valid={cert.not_before.isoformat()}..{cert.not_after.isoformat()}"
                f" self_signed={cert.self_signed}"
            )
        for banner in record.banners:
            lines.append(f"  banner {banner.protocol} {banner.summary!r} success={banner.success}")
    return "\n".join(lines) + "\n"


def compute_digests(
    store: Optional[ArtifactStore] = None, config: ScenarioConfig = SCALES["small"][0]
) -> Dict[str, Dict[str, str]]:
    """Digest every command's output and every flow table of a fresh context.

    The context is storeless unless ``store`` is given.
    """
    context = build_context(config, use_cache=False, store=store)
    commands = {name: _sha256(run_command(name, context).encode("utf-8")) for name in COMMANDS}
    tables: Dict[str, str] = {}
    for label, period in (("study", config.study_period), ("outage", config.outage_period)):
        tables[f"{label}/generated"] = _sha256(
            dumps_table(context.world.workload_generator().generate_period_table(period))
        )
        tables[f"{label}/raw-export"] = _sha256(dumps_table(context.raw_table(period)))
        tables[f"{label}/clean"] = _sha256(dumps_table(context.clean_table(period)))
    scan = {
        f"snapshot/{day.isoformat()}": _sha256(
            snapshot_text(context.world.censys.snapshot(day)).encode("utf-8")
        )
        for day in config.study_period.days()
    }
    scan["discovery/pipeline"] = _sha256(dumps_pipeline_result(context.result))
    return {"commands": commands, "tables": tables, "scan": scan}


def warm_store_digests(
    root: Path, config: ScenarioConfig = SCALES["small"][0]
) -> Tuple[Dict[str, Dict[str, str]], Dict[str, float]]:
    """Fill a store at ``root`` with one pass, then digest a second, warm pass.

    Returns the warm pass's digests and the metric counters it recorded.
    """
    compute_digests(ArtifactStore(root), config)
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    obs_metrics.enable()
    try:
        digests = compute_digests(ArtifactStore(root), config)
        counters = obs_metrics.registry().counters()
    finally:
        obs_metrics.disable()
        obs_metrics.set_registry(previous)
    return digests, counters


def differing_entries(
    expected: Dict[str, Dict[str, str]], actual: Dict[str, Dict[str, str]]
) -> List[str]:
    """One line per digest that differs between two digest sets."""
    return [
        f"{section}/{name}: expected {expected[section].get(name)}, got {actual[section].get(name)}"
        for section in ("commands", "tables", "scan")
        for name in sorted(set(expected[section]) | set(actual[section]))
        if expected[section].get(name) != actual[section].get(name)
    ]


def test_outputs_and_tables_match_the_committed_digests():
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    differing = differing_entries(expected, compute_digests())
    assert not differing, "golden digests differ:\n" + "\n".join(differing)


def test_default_scale_outputs_and_tables_match_the_committed_digests():
    config, path = SCALES["default"]
    expected = json.loads(path.read_text(encoding="utf-8"))
    differing = differing_entries(expected, compute_digests(config=config))
    assert not differing, "default-scale golden digests differ:\n" + "\n".join(differing)


def test_warm_store_context_matches_the_committed_digests(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual, counters = warm_store_digests(tmp_path / "store")
    differing = differing_entries(expected, actual)
    assert not differing, "warm-store digests differ:\n" + "\n".join(differing)
    # The exported and clean tables and the discovery result come from the
    # store, with no fallback of any kind on the way; the generated tables
    # are not stored, so they are generated again.
    assert counters.get("store.hits") == 5
    assert "store.misses" not in counters
    fallbacks = sorted(
        name
        for name in counters
        if name.startswith(("store.mmap_fallbacks.", "kernels.fallbacks."))
        or name == "store.corrupt_fallbacks"
    )
    assert not fallbacks, f"the warm pass fell back: {fallbacks}"


if __name__ == "__main__":
    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    if scale not in SCALES or len(sys.argv) > 2:
        sys.exit(f"usage: {sys.argv[0]} [{'|'.join(SCALES)}]")
    config = SCALES[scale][0]
    cold = compute_digests(config=config)
    json.dump(cold, sys.stdout, indent=2)
    sys.stdout.write("\n")
    with tempfile.TemporaryDirectory() as root:
        warm, _counters = warm_store_digests(Path(root), config)
    differing = differing_entries(cold, warm)
    if differing:
        sys.exit("warm-store digests differ:\n" + "\n".join(differing))
