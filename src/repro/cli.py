"""Command-line interface.

``iot-backend-repro`` runs the experiments of :mod:`repro.experiments.registry`,
one subcommand with its help line per registered command, so results can be
regenerated without writing Python::

    iot-backend-repro table1            # provider characterization (Table 1)
    iot-backend-repro patterns          # regexes and queries (Table 2 / Appendix A)
    iot-backend-repro discovery         # end-to-end discovery summary (Figure 2)
    iot-backend-repro sources           # per-source contribution (Figure 3)
    iot-backend-repro stability         # IP-set stability (Figure 4)
    iot-backend-repro validation        # methodology validation (Section 3.4/3.5)
    iot-backend-repro traffic           # traffic analyses (Figures 5-14)
    iot-backend-repro outage            # AWS outage impact (Figures 15-16)
    iot-backend-repro disruptions       # BGP / blocklist exposure (Section 6.2)
    iot-backend-repro ablations         # portscan-only / vantage-point ablations

and the scenario-scale subsystem::

    iot-backend-repro sweep --axis sampling_ratio=1,10 --axis scale=0.01,0.02 \\
        --metrics traffic,outage --workers 4 --ledger sweep.jsonl
                                        # parallel multi-scenario campaign
    iot-backend-repro sweep --axis scale=0.01,0.02 --resume sweep.jsonl \\
        --retries 2 --timeout 600       # resume an interrupted campaign
    iot-backend-repro cache ls          # list the on-disk artifact store
    iot-backend-repro cache prune       # delete cached artifacts
    iot-backend-repro stats --trace t.jsonl --metrics m.json
                                        # per-stage telemetry summary

Sweeps are fault tolerant: every scenario attempt is appended to the ledger
the moment it finishes (so a killed run loses nothing that completed),
``--retries N`` re-runs failed or timed-out scenarios with exponential
backoff (``--backoff``), ``--timeout SECONDS`` bounds each scenario's wall
clock, ``--max-failures N`` opens a circuit breaker after N consecutive
scenario failures, and ``--resume LEDGER`` skips every scenario the ledger
already records as ``ok`` and re-runs the rest — per-scenario metrics are
bit-identical to an uninterrupted run, only timing fields differ.

Common options select the scenario scale and seed; ``--store DIR`` attaches the
persistent artifact cache so repeated invocations warm-start from disk.  The
store covers both flow tables (``raw-export`` and ``clean:*`` stages) and
persisted discovery footprints (``discovery:<pattern fingerprint>``), so warm
``discovery``/``table1``/``sources`` runs skip the multi-source
classification pipeline entirely; ``cache ls`` lists every stage.

Flow generation runs serially inside one process; ``sweep --workers N``
parallelizes across scenarios instead, one process per scenario.

Observability (see :mod:`repro.obs`) is off by default and strictly
read-only — results, store addresses, and ledger identity fields are
bit-identical with it on or off.  ``--trace PATH`` appends one JSON line per
completed pipeline span (generation hours, discovery sources, context stages,
experiments, sweep scenarios — including those of worker processes) to PATH;
``--metrics-out PATH`` collects counters/histograms during the run (sweep
workers ship their registries back to the driver) and writes the merged
snapshot as JSON on exit.  ``iot-backend-repro stats`` renders either file
as a per-stage table with wall-clock coverage.  ``-v``/``-q`` raise/lower
the structured-log verbosity on stderr (sweep failure, retry, respawn, and
circuit-breaker events carry scenario ids).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.experiments import build_context
from repro.experiments.registry import COMMANDS, run_command
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.simulation.config import ScenarioConfig


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _make_config(args: argparse.Namespace) -> ScenarioConfig:
    config = ScenarioConfig.small(seed=args.seed) if args.small else ScenarioConfig(seed=args.seed)
    # `is not None` (not truthiness): explicit values must always be applied, and
    # non-positive ones are rejected by the parser types above.
    if args.subscriber_lines is not None:
        config = config.with_overrides(n_subscriber_lines=args.subscriber_lines)
    if args.scale is not None:
        config = config.with_overrides(scale=args.scale)
    return config


def _make_store(args: argparse.Namespace):
    if getattr(args, "store", None) is None:
        return None
    from repro.store.artifacts import ArtifactStore

    return ArtifactStore(args.store)


def _scenario_options() -> argparse.ArgumentParser:
    """Shared scenario options (a parents= parser for every subcommand)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=7, help="scenario seed (default 7)")
    common.add_argument("--small", action="store_true", help="use the small test scenario")
    common.add_argument(
        "--scale", type=_positive_float, default=None, help="provider deployment scale factor"
    )
    common.add_argument(
        "--subscriber-lines",
        type=_positive_int,
        default=None,
        help="number of ISP subscriber lines",
    )
    common.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store directory for persistent warm starts "
        "(default: no persistent cache)",
    )
    common.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append one JSON line per completed pipeline span to PATH "
        "(read-only telemetry; summarize with the stats subcommand)",
    )
    common.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="collect counters/histograms during the run and write the "
        "merged snapshot to PATH as JSON",
    )
    common.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise structured-log verbosity on stderr (repeatable)",
    )
    common.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="lower structured-log verbosity (errors only)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="iot-backend-repro",
        description="Reproduction of 'Deep Dive into the IoT Backend Ecosystem' (IMC 2022).",
    )
    common = _scenario_options()
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in sorted(COMMANDS):
        subparsers.add_parser(name, parents=[common], help=COMMANDS[name])

    sweep = subparsers.add_parser(
        "sweep", parents=[common], help="run a grid of scenarios across workers"
    )
    sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="FIELD=V1,V2,...",
        help="a swept ScenarioConfig field and its values (repeatable)",
    )
    sweep.add_argument(
        "--metrics",
        default="traffic",
        help="comma-separated metric sets to evaluate per scenario "
        "(traffic, discovery, outage; default: traffic)",
    )
    sweep.add_argument(
        "--workers", type=_positive_int, default=1, help="parallel worker processes (default 1)"
    )
    sweep.add_argument(
        "--ledger", default=None, metavar="PATH", help="write the JSONL results ledger here"
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="LEDGER",
        help="resume an interrupted campaign: skip scenarios this ledger records "
        "as ok, re-run the rest, append to it (or to --ledger when given)",
    )
    sweep.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="re-run a failed or timed-out scenario up to N times (default 0)",
    )
    sweep.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-scenario wall-clock limit, enforced inside the worker "
        "(default: unlimited)",
    )
    sweep.add_argument(
        "--backoff",
        type=_nonnegative_float,
        default=0.5,
        metavar="SECONDS",
        help="base delay before a retry, doubled per attempt (default 0.5)",
    )
    sweep.add_argument(
        "--max-failures",
        type=_positive_int,
        default=None,
        metavar="N",
        help="circuit breaker: stop submitting scenarios after N consecutive "
        "failures (in-flight work still drains; default: never)",
    )
    sweep.add_argument(
        "--pivot",
        default=None,
        metavar="METRIC",
        help="metric to pivot over the first one/two axes (default: first metric)",
    )

    stats = subparsers.add_parser(
        "stats", help="summarize a span trace and/or a metrics snapshot"
    )
    stats.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="JSONL span trace written by --trace (per-stage timing table)",
    )
    stats.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="JSON metrics snapshot written by --metrics-out",
    )

    cache = subparsers.add_parser("cache", help="inspect or prune the artifact store")
    cache.add_argument("action", choices=("ls", "prune"), help="what to do with the store")
    cache.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store directory (default: $IOT_REPRO_STORE or ~/.cache/iot-backend-repro)",
    )
    cache.add_argument(
        "--older-than-days",
        type=_positive_float,
        default=None,
        help="prune only artifacts older than this many days",
    )
    return parser


def _run_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Tuple[str, int]:
    from repro.sweeps import LedgerError, ScenarioGrid, SweepRunner

    base = _make_config(args)
    try:
        grid = ScenarioGrid.from_strings(base, args.axis)
        grid.specs()  # expand eagerly so invalid axis *values* fail as parser errors too
        runner = SweepRunner(
            metrics=tuple(name.strip() for name in args.metrics.split(",") if name.strip()),
            workers=args.workers,
            store=args.store,
            ledger_path=args.ledger,
            retries=args.retries,
            timeout=args.timeout,
            backoff=args.backoff,
            max_consecutive_failures=args.max_failures,
        )
    except ValueError as error:
        parser.error(str(error))
    try:
        result = runner.run(grid, resume=args.resume)
    except (FileNotFoundError, LedgerError) as error:
        parser.error(f"--resume: {error}")
    sections = [result.render_results(), result.render_latency_summary()]
    pivot_metric = args.pivot or (result.metric_names()[0] if result.metric_names() else None)
    if pivot_metric is not None:
        axes = grid.axis_names
        col_axis = axes[1] if len(axes) > 1 else None
        sections.append(result.render_pivot(pivot_metric, axes[0], col_axis))
    if args.resume:
        sections.append(
            f"resumed from {args.resume}: {result.reused_count} scenario(s) reused, "
            f"{len(result) - result.reused_count} re-run"
        )
    ledger_target = args.ledger or args.resume
    if ledger_target:
        sections.append(f"ledger written to {ledger_target}")
    failures = result.failures()
    if failures:
        sections.append(
            f"{len(failures)} of {len(result)} scenarios FAILED:\n"
            + "\n".join(f"  {outcome.scenario_id}: {outcome.error}" for outcome in failures)
        )
    return "\n\n".join(sections), 1 if failures else 0


def _render_trace_summary(path: str) -> str:
    from repro.core.report import render_table

    events = obs_trace.read_trace(path)
    summary = obs_trace.summarize_trace(events)
    if not summary.stages:
        return f"trace {path}: no span events"
    table = render_table(
        ["stage", "count", "total_s", "mean_s", "p50_s", "p95_s", "max_s"],
        summary.rows(),
        title=f"Trace {path} ({summary.events} spans)",
    )
    coverage = (
        f"wall clock {summary.wall_seconds:.2f}s across {summary.processes} process(es), "
        f"accounted by root spans: {summary.accounted_seconds:.2f}s "
        f"({summary.coverage * 100.0:.1f}% coverage)"
    )
    return table + "\n\n" + coverage


def _render_metrics_snapshot(path: str) -> str:
    from repro.core.report import render_table

    snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
    registry = obs_metrics.MetricsRegistry.from_snapshot(snapshot)
    sections: List[str] = []
    counters = registry.counters()
    if counters:
        rows = [[name, round(value, 6)] for name, value in sorted(counters.items())]
        sections.append(
            render_table(["counter", "value"], rows, title=f"Counters ({path})")
        )
    histogram_rows: List[List[object]] = []
    for name in registry.histogram_names():
        histogram = registry.histogram(name)
        histogram_rows.append(
            [
                name,
                histogram.count,
                round(histogram.sum, 4),
                round(histogram.quantile(0.5) or 0.0, 6),
                round(histogram.quantile(0.95) or 0.0, 6),
                round(histogram.max or 0.0, 6),
            ]
        )
    if histogram_rows:
        sections.append(
            render_table(
                ["histogram", "count", "sum", "p50<=", "p95<=", "max"],
                histogram_rows,
                title="Histograms",
            )
        )
    if not sections:
        return f"metrics snapshot {path} is empty"
    return "\n\n".join(sections)


def _run_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    if args.trace is None and args.metrics is None:
        parser.error("stats requires --trace PATH and/or --metrics PATH")
    sections: List[str] = []
    try:
        if args.trace is not None:
            sections.append(_render_trace_summary(args.trace))
        if args.metrics is not None:
            sections.append(_render_metrics_snapshot(args.metrics))
    except FileNotFoundError as error:
        parser.error(str(error))
    except json.JSONDecodeError as error:
        parser.error(f"--metrics: {args.metrics}: {error}")
    return "\n\n".join(sections)


def _run_cache(args: argparse.Namespace) -> str:
    from repro.core.report import render_table
    from repro.store.artifacts import ArtifactStore

    store = ArtifactStore(args.store)
    if args.action == "prune":
        cutoff = args.older_than_days * 86400.0 if args.older_than_days is not None else None
        removed, freed = store.prune(older_than_seconds=cutoff)
        return f"pruned {removed} artifact(s), freed {freed / 1e6:.1f} MB from {store.root}"
    entries = store.entries()
    if not entries:
        return f"artifact store {store.root} is empty"
    rows = [
        [
            entry.digest[:12],
            entry.stage,
            entry.period,
            entry.rows,
            f"{entry.payload_bytes / 1e6:.1f} MB",
            f"{entry.age_seconds / 3600.0:.1f}h",
        ]
        for entry in entries
    ]
    total_bytes = sum(entry.payload_bytes for entry in entries)
    table = render_table(
        ["digest", "stage", "period", "rows", "size", "age"],
        rows,
        title=f"Artifact store {store.root} ({total_bytes / 1e6:.1f} MB)",
    )
    return table


def _activate_obs(args: argparse.Namespace) -> Tuple[Optional[str], Optional[str]]:
    """Turn on tracing/metrics/logging as the parsed flags request.

    Returns ``(trace_path, metrics_out_path)`` for :func:`_deactivate_obs`.
    Sweep workers reach the same trace sink: forked ones inherit the open
    descriptor, and spawned ones open the path their task carries.
    """
    obs_log.configure(args.verbose - args.quiet)
    trace_target: Optional[str] = args.trace
    metrics_out: Optional[str] = args.metrics_out
    if trace_target is not None:
        obs_trace.enable(trace_target)
    if metrics_out is not None:
        obs_metrics.set_registry(obs_metrics.MetricsRegistry())
        obs_metrics.enable()
    return trace_target, metrics_out


def _deactivate_obs(trace_target: Optional[str], metrics_out: Optional[str]) -> None:
    """Undo :func:`_activate_obs` so repeated ``main()`` calls stay isolated."""
    if metrics_out is not None:
        obs_metrics.disable()
    if trace_target is not None:
        obs_trace.disable()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats":
        print(_run_stats(args, parser))
        return 0
    if args.command == "cache":
        print(_run_cache(args))
        return 0
    trace_target, metrics_out = _activate_obs(args)
    try:
        if args.command == "sweep":
            output, exit_code = _run_sweep(args, parser)
        else:
            config = _make_config(args)
            context = build_context(config, store=_make_store(args))
            output = run_command(args.command, context)
            exit_code = 0
        if metrics_out is not None:
            snapshot = obs_metrics.registry().snapshot()
            Path(metrics_out).write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        print(output)
        return exit_code
    finally:
        _deactivate_obs(trace_target, metrics_out)


if __name__ == "__main__":
    sys.exit(main())
