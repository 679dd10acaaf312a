"""perfbench's traced iteration still binds to the program.

``perfbench/layers.py`` wraps program methods by name (``FlowTable.to_records``,
the five matcher lookups, the store's get and put methods,
``CensysService.snapshot``) and ``perfbench/iteration.py`` builds a
``SweepRunner(gen_workers=1)``.  Renaming or deleting any of them breaks
``perfbench/run.py --trace 1`` without failing any other test, so this test
starts one tiny traced iteration of each kind through ``run.py``'s own
``_Runner.spawn`` and checks that every op ran.  perfbench lists its 19
experiment ops itself (``iteration.OPS``); they must be the registry's, in
its order, and each must hash like the registry's render.  It only reads
``perfbench/``.
"""

import hashlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.context import build_context
from repro.experiments.registry import EXPERIMENTS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """``perfbench/<name>.py``, imported without writing bytecode under ``perfbench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_module(monkeypatch):
    return _load(monkeypatch, "run")


@pytest.fixture
def iteration_module(monkeypatch):
    return _load(monkeypatch, "iteration")


def test_perfbench_ops_are_the_registry_ops(iteration_module):
    assert tuple(iteration_module.OPS) == tuple(experiment.op for experiment in EXPERIMENTS)


@pytest.mark.parametrize(
    "workload, kind, op_count", [("repro-cold", "repro", 19), ("sweep-small", "sweep", 4)]
)
def test_traced_tiny_iteration_runs_every_op(
    run_module, iteration_module, tmp_path, workload, kind, op_count
):
    runner = run_module._Runner(
        run_module.WORKLOADS[workload], 3, True, tmp_path, time.monotonic() + 300
    )
    ledger = tmp_path / "ledger.jsonl" if kind == "sweep" else None
    result = runner.spawn(kind, tmp_path / "store", trace=True, ledger=ledger).result
    assert len(result["ops"]) == op_count
    assert [op["error"] for op in result["ops"]] == [None] * op_count
    assert result["layers"]
    if kind == "repro":
        context = build_context(iteration_module.repro_config(3, tiny=True), use_cache=False)
        expected = [
            (e.op, hashlib.sha256(e.run(context).encode("utf-8")).hexdigest()) for e in EXPERIMENTS
        ]
        assert [(op["name"], op["sha256"]) for op in result["ops"]] == expected
