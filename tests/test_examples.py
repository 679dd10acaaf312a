"""Smoke tests for the example scripts.

Each example is imported from ``examples/`` and executed end to end on a tiny
:class:`ScenarioConfig.small` variant, so the documented workflows cannot rot
as the library evolves.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.simulation.config import ScenarioConfig

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

#: Small enough to keep each example under a few seconds, large enough that
#: every example still has traffic/footprint to report on.
TINY = ScenarioConfig.small(seed=7).with_overrides(n_subscriber_lines=250, n_scanner_lines=2)

#: Large enough that the replayed outage shows a US-East drop the harsher
#: drill must exceed (at TINY both read 0%).
DRILL = ScenarioConfig.small(seed=23).with_overrides(n_subscriber_lines=600)


def load_example(name):
    """Import one example script as a throwaway module."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_examples_directory_is_covered():
    """Every example script has a smoke test below."""
    scripts = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == {"quickstart", "provider_audit", "isp_traffic_study", "outage_drill"}


def test_quickstart_runs(capsys):
    load_example("quickstart").main(config=TINY)
    out = capsys.readouterr().out
    assert "Table 1 (reproduced)" in out
    assert "backend servers" in out


def test_provider_audit_runs(capsys):
    load_example("provider_audit").main(key="google", config=TINY)
    out = capsys.readouterr().out
    assert "Domain patterns" in out
    assert "Contribution of each data source" in out


def test_provider_audit_rejects_unknown_provider():
    with pytest.raises(SystemExit, match="unknown provider"):
        load_example("provider_audit").main(key="not-a-provider", config=TINY)


def test_isp_traffic_study_runs(capsys):
    load_example("isp_traffic_study").main(config=TINY)
    out = capsys.readouterr().out
    assert "Scanner exclusion (Figure 5)" in out
    assert "Per-subscriber daily volume" in out


def test_outage_drill_runs(capsys):
    load_example("outage_drill").main(config=TINY)
    out = capsys.readouterr().out
    assert "Observed impact on the affected provider" in out
    assert "What-if drill" in out


def _us_east_traffic_drops(out):
    """The US-East downstream drops the outage drill prints, in print order."""
    return [
        float(line.rsplit(":", 1)[1].strip().rstrip("%"))
        for line in out.splitlines()
        if line.strip().startswith("downstream traffic drop, US-East regions")
    ]


def test_outage_drill_regenerates_flows_under_the_harsher_schedule(capsys):
    load_example("outage_drill").main(config=DRILL)
    replay, drill = _us_east_traffic_drops(capsys.readouterr().out)
    assert drill >= replay + 10.0
