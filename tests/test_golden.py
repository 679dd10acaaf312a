"""Golden digests: end-to-end behaviour of one small scenario, pinned.

One fresh, storeless context for ``ScenarioConfig.small(7)`` runs every CLI
command in :data:`repro.cli._COMMANDS` order (the order matters: the vantage
ablation reads DNS query counters that earlier commands advance), then the
store bytes of each flow table — generated with scanners, raw export, scanner
clean — are hashed for the study and the outage period.  Any change to a
rendered figure, a table or a flow row fails here, naming every entry that
moved.

After an intended behaviour change, regenerate the committed digests with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/small_seed7.json

and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.cli import _COMMANDS
from repro.experiments.context import build_context
from repro.simulation.config import ScenarioConfig
from repro.store.codec import dumps_table

GOLDEN_PATH = Path(__file__).parent / "golden" / "small_seed7.json"

SEED = 7


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    return {"commands": commands, "tables": tables}


def test_outputs_and_tables_match_the_committed_digests():
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = compute_digests()
    differing = [
        f"{section}/{name}: expected {expected[section].get(name)}, got {actual[section].get(name)}"
        for section in ("commands", "tables")
        for name in sorted(set(expected[section]) | set(actual[section]))
        if expected[section].get(name) != actual[section].get(name)
    ]
    assert not differing, "golden digests differ:\n" + "\n".join(differing)


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=2)
    sys.stdout.write("\n")
