"""One measured iteration of a benchmark workload, in a process of its own.

Usage (normally started by ``run.py``)::

    python3 perfbench/iteration.py SPEC.json

``SPEC.json`` names the kind (``repro`` or ``sweep``), the seed, the store,
ledger and trace paths and where to write the result.  Each iteration is a
fresh interpreter, so every one pays imports and world build exactly as a
researcher's first command does, and its peak resident set is its own.

The timed region is, for ``repro``, a fresh ``build_context(config,
use_cache=False, store=...)`` followed by all 19 experiment calls and their
``render()``; for ``sweep``, ``SweepRunner.run(grid)``.  Rendered outputs
(and sweep ledger identities) are hashed after the region ends.  With a trace
path the iteration also records spans and counters and reports per-layer
metrics (see ``layers.py``).  A :class:`speed.SpeedProbe`, armed before the
program is imported, samples the CPU speed throughout; the result carries
its samples so the parent can rescale set-up and region times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import speed

#: Armed (when run as a script) before the program's modules are imported,
#: so that the iteration's set-up is probed too.
PROBE = speed.SpeedProbe()
if __name__ == "__main__":
    PROBE.start()

import layers  # noqa: E402
from repro.experiments import build_context  # noqa: E402
from repro.experiments import characterization as ch  # noqa: E402
from repro.experiments import disruption_experiments as dis  # noqa: E402
from repro.experiments import traffic_experiments as tr  # noqa: E402
from repro.flows import kernels  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402
from repro.simulation.config import ScenarioConfig  # noqa: E402
from repro.store.artifacts import ArtifactStore  # noqa: E402
from repro.sweeps import ScenarioGrid, SweepRunner  # noqa: E402

#: Small worlds per sweep campaign, one scenario each with its own world
#: seed.  The size of the world a seed generates varies by about 10%; a
#: campaign over several worlds varies less from one benchmark seed to the next.
SWEEP_WORLDS = 4
SWEEP_METRICS = ("traffic", "discovery", "outage")

#: Subscriber lines of the tiny scenario the self-test runs.
TINY_SUBSCRIBER_LINES = 40


def _fig15_16(context) -> str:
    result = dis.fig15_fig16_outage(context)
    return result.render("15") + "\n\n" + result.render("16")


#: op name -> the experiment call plus its render(), as the CLI commands make them.
OPS = {
    "table1": lambda c: ch.table1_characterization(c).render(),
    "table2": lambda c: ch.table2_regexes().render(),
    "fig2": lambda c: ch.pipeline_summary(c).render(),
    "fig3": lambda c: ch.fig3_source_contribution(c).render(),
    "fig4": lambda c: ch.fig4_stability(c).render(),
    "sec34": lambda c: ch.sec34_validation(c).render(),
    "fig5": lambda c: tr.fig5_scanner_threshold(c).render(),
    "fig6": lambda c: tr.fig6_visibility(c).render(),
    "fig7": lambda c: tr.fig7_tls_only_loss(c).render(),
    "fig8": lambda c: tr.fig8_subscriber_activity(c).render(),
    "fig9": lambda c: tr.fig9_traffic_volume(c).render(),
    "fig10": lambda c: tr.fig10_direction_ratio(c).render(),
    "fig11": lambda c: tr.fig11_port_mix(c).render(),
    "fig12": lambda c: tr.fig12_per_subscriber_volumes(c).render(),
    "fig13_14": lambda c: tr.fig13_fig14_region_crossing(c).render(),
    "fig15_16": _fig15_16,
    "sec62": lambda c: dis.sec62_potential_disruptions(c).render(),
    "ablation_portscan": lambda c: dis.ablation_portscan_baseline(c).render(),
    "ablation_vantage": lambda c: dis.ablation_vantage_points(c).render(),
}
assert tuple(OPS) == layers.EXPERIMENT_OPS


def repro_config(seed: int, tiny: bool) -> ScenarioConfig:
    """The config of the repro-* workloads (tiny: the self-test's scenario)."""
    if tiny:
        return ScenarioConfig.small(seed).with_overrides(n_subscriber_lines=TINY_SUBSCRIBER_LINES)
    return ScenarioConfig.default(seed)


def sweep_grid(seed: int, tiny: bool) -> ScenarioGrid:
    """The grid of the sweep-small workload: one axis of world seeds.

    Benchmark seed ``n`` gives world seeds ``SWEEP_WORLDS * n`` onwards, so
    two benchmark seeds never share a world.
    """
    base = ScenarioConfig.small(seed)
    if tiny:
        base = base.with_overrides(n_subscriber_lines=TINY_SUBSCRIBER_LINES)
    world_seeds = tuple(SWEEP_WORLDS * seed + k for k in range(SWEEP_WORLDS))
    return ScenarioGrid(base, {"seed": world_seeds})


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _timed(region):
    """Run ``region()`` inside the root span: ``(monotonic start, monotonic end, value)``."""
    start = time.monotonic()
    with obs_trace.span(layers.ROOT_SPAN):
        value = region()
    return start, time.monotonic(), value


def _spanned(span_name: str, fn):
    def call(context):
        with obs_trace.span(span_name):
            return fn(context)

    return call


def _run_repro(spec, traced: bool):
    config = repro_config(spec["seed"], spec["tiny"])
    store = ArtifactStore(spec["store"])
    calls = list(OPS.items())
    if traced:
        calls = [(name, _spanned(f"exp.{name}", fn)) for name, fn in calls]

    def region():
        context = build_context(config, use_cache=False, store=store)
        outputs = []
        for name, fn in calls:
            try:
                outputs.append((name, fn(context), None))
            except Exception as exc:  # a failing op is counted, the others still run
                outputs.append((name, None, f"{type(exc).__name__}: {exc}"))
        return outputs

    region_start, region_end, outputs = _timed(region)
    ops = [
        {"name": name, "error": error, "sha256": None if error else _sha256(text)}
        for name, text, error in outputs
    ]
    return region_start, region_end, ops, []


def _run_sweep(spec, traced: bool):
    grid = sweep_grid(spec["seed"], spec["tiny"])
    runner = SweepRunner(
        metrics=SWEEP_METRICS,
        workers=1,
        store=spec["store"],
        ledger_path=spec["ledger"],
        gen_workers=1,
    )
    region_start, region_end, result = _timed(lambda: runner.run(grid))
    ops = [
        {
            "name": outcome.scenario_id,
            "error": None if outcome.status == "ok" else f"{outcome.status}: {outcome.error}",
            "sha256": _sha256(json.dumps(outcome.identity(), sort_keys=True)),
        }
        for outcome in result.outcomes
    ]
    return region_start, region_end, ops, [outcome.elapsed_seconds for outcome in result.outcomes]


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    trace_path = spec.get("trace")
    traced = trace_path is not None
    if traced:
        obs_trace.enable(trace_path)
        obs_metrics.set_registry(obs_metrics.MetricsRegistry())
        obs_metrics.enable()
        layers.install_wrappers()
    run = _run_sweep if spec["kind"] == "sweep" else _run_repro
    region_start, region_end, ops, scenario_seconds = run(spec, traced)
    wall = region_end - region_start
    backend = kernels.active_backend()
    result = {
        # CLOCK_MONOTONIC is system-wide, so the parent can set these and the
        # probe samples against its own spawn and exit times.
        "region_start": region_start,
        "region_end": region_end,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "backend": backend,
        "ops": ops,
    }
    if traced:
        obs_trace.disable()
        result["layers"] = layers.attribute(
            obs_trace.read_trace(trace_path),
            obs_metrics.registry().snapshot(),
            wall,
            backend,
            scenario_seconds,
        )
    PROBE.stop()
    result["probes"] = PROBE.samples
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
