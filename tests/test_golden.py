"""Golden digests: end-to-end behaviour of one small scenario, pinned.

One fresh, storeless context for ``ScenarioConfig.small(7)`` runs every CLI
command in :data:`repro.cli._COMMANDS` order (the vantage ablation resolves
against its own fresh DNS rotation state, so its output does not depend on
the commands before it), then the store bytes of each flow table — generated
with scanners, raw export, scanner clean — are hashed for the study and the
outage period.  The ``scan`` section hashes a canonical text form of each of the
seven study-week Censys snapshots (hosts, ports, certificates, locations,
banners) and the serialized discovery-pipeline result.  Any change to a
rendered figure, a table, a flow row, a scan record or a discovery verdict
fails here, naming every entry that moved.

After an intended behaviour change, regenerate the committed digests with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/small_seed7.json

and review the diff.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import sys
from pathlib import Path
from typing import Dict

from repro.cli import _COMMANDS
from repro.experiments.context import build_context
from repro.scan.censys import CensysSnapshot
from repro.simulation.config import ScenarioConfig
from repro.store.codec import dumps_pipeline_result, dumps_table

GOLDEN_PATH = Path(__file__).parent / "golden" / "small_seed7.json"

SEED = 7


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


def compute_digests() -> Dict[str, Dict[str, str]]:
    """Digest every command's output and every flow table of a fresh context."""
    config = ScenarioConfig.small(SEED)
    context = build_context(config, use_cache=False)
    commands = {
        name: _sha256(command(context).encode("utf-8")) for name, command in _COMMANDS.items()
    }
    tables: Dict[str, str] = {}
    for label, period in (("study", config.study_period), ("outage", config.outage_period)):
        tables[f"{label}/generated"] = _sha256(
            dumps_table(context.world.flows_table(period, include_scanners=True))
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


def test_outputs_and_tables_match_the_committed_digests():
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = compute_digests()
    differing = [
        f"{section}/{name}: expected {expected[section].get(name)}, got {actual[section].get(name)}"
        for section in ("commands", "tables", "scan")
        for name in sorted(set(expected[section]) | set(actual[section]))
        if expected[section].get(name) != actual[section].get(name)
    ]
    assert not differing, "golden digests differ:\n" + "\n".join(differing)


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=2)
    sys.stdout.write("\n")
