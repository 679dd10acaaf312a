"""Fault-tolerant multiprocess sweep execution with an incremental JSONL ledger.

``SweepRunner`` walks a :class:`~repro.sweeps.grid.ScenarioGrid` and evaluates
the selected metrics on every grid point.  Scenarios are completely
independent — each worker builds its own world from the frozen config, and
every random draw comes from named seeded streams — so executing them in a
process pool produces bit-identical per-scenario results to a serial run;
only wall-clock changes.  Workers bypass the in-process context LRU
(``use_cache=False``) and rely on the shared on-disk
:class:`~repro.store.artifacts.ArtifactStore` instead, which both deduplicates
work across repeated sweeps and keeps worker memory flat.

The execution core is built to survive thousand-scenario campaigns:

* **Incremental ledger.**  Every scenario attempt is appended to the JSONL
  ledger (flushed and fsynced) *the moment it settles*, so a killed driver
  loses at most the in-flight scenarios, never completed rows.  Ledger rows
  carry schema version 2: status (``ok|failed|timeout|retried``), attempt
  number, worker id, and start/end timestamps on top of the schema-1 fields.
  :meth:`SweepResult.read_ledger` tolerates a torn final line (a crash
  mid-append) and raises :class:`LedgerError` on unknown schema versions.
* **Crash-isolated scheduling.**  Scenarios are submitted individually (at
  most one per worker slot) and drained as they complete.  A worker death
  (OOM-kill, segfault) breaks the ``ProcessPoolExecutor``; the runner
  respawns it, charges a failed attempt to the scenarios that were in flight,
  and keeps going — a crash never discards completed outcomes.
* **Retry / timeout / circuit breaker.**  Failed or timed-out scenarios are
  retried up to ``retries`` times with exponential backoff; a wall-clock
  ``timeout`` is enforced *inside* the worker via ``SIGALRM`` so a hung
  scenario cannot wedge the campaign; and after ``max_consecutive_failures``
  distinct scenarios fail in a row (the signature of a config bug, not a
  flaky host) the breaker opens: queued scenarios are recorded as skipped
  while in-flight work drains normally.
* **Resume.**  ``run(grid, resume=ledger)`` skips every scenario whose
  ``(scenario_id, config_digest)`` already has an ``ok`` row and re-runs the
  rest, appending to the same ledger.  Because scenario results are a pure
  function of the frozen config, the merged ledger's per-scenario metrics are
  bit-identical to an uninterrupted run — only the nondeterministic bookkeeping
  fields (:data:`NONDETERMINISTIC_LEDGER_FIELDS`: ``elapsed_seconds``,
  timestamps, worker id, attempt, status) differ, and
  :meth:`ScenarioOutcome.identity` excludes exactly those.

Parallelism is scenario-level only: each scenario generates its flows
serially inside its own worker process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import logging

from repro.core.report import render_table
from repro.flows.kernels import fold_sum
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger, log_event
from repro.simulation.config import ScenarioConfig
from repro.sweeps.grid import ScenarioGrid, ScenarioSpec
from repro.sweeps.metrics import resolve_metrics

logger = get_logger("sweeps")

#: Ledger schema version, recorded in every row.
LEDGER_SCHEMA = 2

#: Schema versions this reader understands (v1 rows lack the fault-tolerance
#: fields and parse with defaults).
SUPPORTED_LEDGER_SCHEMAS = (1, 2)

#: Scenario attempt statuses recorded in ledger rows.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_RETRIED = "retried"

#: Ledger fields that legitimately differ between a clean run and a resumed
#: one (timing, placement, attempt bookkeeping).  Everything *not* listed here
#: is covered by the determinism contract and must be bit-identical; the
#: fault-injection harness compares runs via :meth:`ScenarioOutcome.identity`,
#: which excludes exactly these fields.
NONDETERMINISTIC_LEDGER_FIELDS = (
    "elapsed_seconds",
    "started_at",
    "ended_at",
    "worker_id",
    "attempt",
    "status",
)

#: Test-only fault-injection hook, called as ``hook(scenario_id, attempt)`` at
#: the top of every scenario attempt, inside the worker process (pool workers
#: inherit it through fork).  A hook may raise (recorded as a failure), sleep
#: (to exercise timeouts), or ``os._exit`` (to simulate an OOM-killed worker).
FAULT_HOOK: Optional[Callable[[str, int], None]] = None


class LedgerError(ValueError):
    """A sweep ledger could not be parsed (corrupt row or unknown schema)."""


class _ScenarioTimeout(Exception):
    """Raised inside a worker when a scenario exceeds its wall-clock budget."""


@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Abort the enclosed block with :class:`_ScenarioTimeout` after ``seconds``.

    Uses ``SIGALRM``, so it only arms on the main thread of a process with
    alarm support (true for pool workers under the fork context and for the
    serial driver); elsewhere the limit is a no-op.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise _ScenarioTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class _Task:
    """One scenario attempt shipped to a pool worker (must stay picklable)."""

    scenario_id: str
    axes: Tuple[Tuple[str, object], ...]
    config: ScenarioConfig
    metrics: Tuple[str, ...]
    store_root: Optional[str]
    timeout: Optional[float]
    attempt: int
    #: Trace file the worker should append spans to (None = tracing off).
    #: Forked workers inherit the driver's descriptor anyway; this field makes
    #: the sink explicit so spawned workers reach the same file.
    trace_path: Optional[str] = None
    #: Whether the worker should collect a metrics snapshot for this attempt.
    collect_obs: bool = False


@dataclass
class ScenarioOutcome:
    """The result of one scenario attempt: metrics on success, an error on failure."""

    scenario_id: str
    axes: Dict[str, object]
    config_digest: str
    metrics: Dict[str, object]
    elapsed_seconds: float
    error: Optional[str] = None
    status: str = ""
    attempt: int = 1
    worker_id: str = ""
    started_at: float = 0.0
    ended_at: float = 0.0
    #: Observability snapshot of the worker's metrics registry for this
    #: attempt (see :mod:`repro.obs.metrics`).  Deliberately NOT part of the
    #: ledger row or of :meth:`identity` — observability data is advisory and
    #: must never disturb ledger byte-stability or the determinism contract.
    obs: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if not self.status:
            self.status = STATUS_OK if self.error is None else STATUS_FAILED

    @property
    def ok(self) -> bool:
        return self.error is None

    def identity(self) -> Dict[str, object]:
        """The deterministic projection of this outcome.

        Everything a resumed or retried run must reproduce bit-identically;
        the fields named in :data:`NONDETERMINISTIC_LEDGER_FIELDS` (timing,
        worker placement, attempt bookkeeping) are deliberately excluded.
        """
        return {
            "scenario_id": self.scenario_id,
            "axes": dict(self.axes),
            "config_digest": self.config_digest,
            "metrics": dict(self.metrics),
            "error": self.error,
        }


def _ledger_row(outcome: ScenarioOutcome) -> Dict[str, object]:
    """The schema-2 JSONL representation of one scenario attempt."""
    return {
        "schema": LEDGER_SCHEMA,
        "scenario_id": outcome.scenario_id,
        "axes": outcome.axes,
        "config_digest": outcome.config_digest,
        "metrics": outcome.metrics,
        "elapsed_seconds": outcome.elapsed_seconds,
        "error": outcome.error,
        "status": outcome.status,
        "attempt": outcome.attempt,
        "worker_id": outcome.worker_id,
        "started_at": outcome.started_at,
        "ended_at": outcome.ended_at,
    }


def _outcome_from_row(row: Dict[str, object]) -> ScenarioOutcome:
    """Rebuild an outcome from a parsed ledger row (schema 1 or 2)."""
    error = row.get("error")
    default_status = STATUS_OK if error is None else STATUS_FAILED
    return ScenarioOutcome(
        scenario_id=row["scenario_id"],
        axes=dict(row["axes"]),
        config_digest=row["config_digest"],
        metrics=dict(row["metrics"]),
        elapsed_seconds=float(row["elapsed_seconds"]),
        error=error,
        status=str(row.get("status") or default_status),
        attempt=int(row.get("attempt", 1)),
        worker_id=str(row.get("worker_id", "")),
        started_at=float(row.get("started_at", 0.0)),
        ended_at=float(row.get("ended_at", 0.0)),
    )


def _execute_scenario(task: _Task) -> ScenarioOutcome:
    """Run one scenario attempt (module-level so multiprocessing can pickle it)."""
    from repro.experiments.context import build_context
    from repro.store.artifacts import ArtifactStore, config_digest

    if task.trace_path is not None and not obs_trace.enabled():
        # Spawned workers (no inherited descriptor) open the sink explicitly;
        # forked workers and the serial driver already have it.
        obs_trace.enable(task.trace_path)
    previous_registry: Optional[obs_metrics.MetricsRegistry] = None
    if task.collect_obs:
        # A fresh registry per attempt means the shipped snapshot holds
        # exactly this scenario's metrics, merged additively by the driver.
        previous_registry = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
        obs_metrics.enable()
    store = ArtifactStore(task.store_root) if task.store_root is not None else None
    started_at = time.time()
    start = time.perf_counter()
    metrics: Dict[str, object] = {}
    error: Optional[str] = None
    status = STATUS_OK
    try:
        with _wall_clock_limit(task.timeout):
            with obs_trace.span(
                "sweep.scenario", scenario=task.scenario_id, attempt=task.attempt
            ):
                if FAULT_HOOK is not None:
                    FAULT_HOOK(task.scenario_id, task.attempt)
                metric_fns = resolve_metrics(task.metrics)
                context = build_context(task.config, use_cache=False, store=store)
                for fn in metric_fns.values():
                    metrics.update(fn(context))
    except _ScenarioTimeout:
        metrics = {}
        status = STATUS_TIMEOUT
        error = f"Timeout: scenario exceeded {task.timeout:g}s wall clock"
    except Exception as exc:  # ledger rows must exist even for failed scenarios
        metrics = {}
        status = STATUS_FAILED
        error = f"{type(exc).__name__}: {exc}"
    obs_snapshot: Optional[Dict[str, object]] = None
    if task.collect_obs:
        obs_snapshot = obs_metrics.registry().snapshot()
        if previous_registry is not None:
            obs_metrics.set_registry(previous_registry)
    return ScenarioOutcome(
        scenario_id=task.scenario_id,
        axes=dict(task.axes),
        config_digest=config_digest(task.config),
        metrics=metrics,
        elapsed_seconds=time.perf_counter() - start,
        error=error,
        status=status,
        attempt=task.attempt,
        worker_id=str(os.getpid()),
        started_at=started_at,
        ended_at=time.time(),
        obs=obs_snapshot,
    )


class _LedgerWriter:
    """Append-only JSONL ledger sink, durable per row.

    Each row is written, flushed, and fsynced individually, so a SIGKILL of
    the driver loses at most the row being written — and because a torn final
    line is both trimmed on append-reopen and skipped by
    :meth:`SweepResult.read_ledger`, even that partial row is harmless.
    """

    def __init__(self, path: Union[str, Path], append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if append and self.path.exists():
            self._trim_torn_tail()
        self._stream = self.path.open("a" if append else "w", encoding="utf-8")

    def _trim_torn_tail(self) -> None:
        """Drop a trailing partial line left by a crash mid-append."""
        with self.path.open("rb+") as stream:
            data = stream.read()
            if data and not data.endswith(b"\n"):
                stream.truncate(data.rfind(b"\n") + 1)

    def append(self, outcome: ScenarioOutcome) -> None:
        self._stream.write(json.dumps(_ledger_row(outcome), sort_keys=True) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def close(self) -> None:
        self._stream.close()


class SweepResult:
    """Ordered scenario outcomes plus aggregation and ledger I/O."""

    def __init__(self, outcomes: Sequence[ScenarioOutcome], axis_names: Sequence[str]) -> None:
        self.outcomes = list(outcomes)
        self.axis_names = tuple(axis_names)
        #: Executor respawns this run survived (0 for a crash-free run).
        self.pool_respawns = 0
        #: Scenarios reused from a resume ledger instead of re-run.
        self.reused_count = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def failures(self) -> List[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for outcome in self.outcomes:
            for key in outcome.metrics:
                if key not in names:
                    names.append(key)
        return names

    def latency_summary(self) -> Optional[Dict[str, float]]:
        """Scenario-latency percentiles over the successful outcomes.

        Exact nearest-rank p50/p95 plus mean/max of ``elapsed_seconds``;
        ``None`` when no scenario succeeded.  Purely derived reporting — the
        outcomes themselves are untouched.
        """
        durations = sorted(o.elapsed_seconds for o in self.outcomes if o.ok)
        if not durations:
            return None
        return {
            "count": float(len(durations)),
            "mean": sum(durations) / len(durations),
            "p50": obs_trace.nearest_rank(durations, 0.5),
            "p95": obs_trace.nearest_rank(durations, 0.95),
            "max": durations[-1],
        }

    def render_latency_summary(self) -> str:
        """One-line scenario-latency digest for the sweep run summary."""
        summary = self.latency_summary()
        if summary is None:
            return "Scenario latency: no successful scenarios"
        return (
            "Scenario latency: "
            f"n={int(summary['count'])} "
            f"mean={summary['mean']:.2f}s "
            f"p50={summary['p50']:.2f}s "
            f"p95={summary['p95']:.2f}s "
            f"max={summary['max']:.2f}s"
        )

    # -- ledger ------------------------------------------------------------------

    def ledger_rows(self) -> List[Dict[str, object]]:
        return [_ledger_row(outcome) for outcome in self.outcomes]

    def write_ledger(self, path: Union[str, Path]) -> Path:
        """Write one JSON object per scenario (JSONL), replacing the file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for row in self.ledger_rows():
                stream.write(json.dumps(row, sort_keys=True) + "\n")
        return path

    @classmethod
    def read_ledger(cls, path: Union[str, Path]) -> "SweepResult":
        """Rebuild a result from a JSONL ledger (crash-tolerant).

        A torn or garbage *final* line — the signature of a process killed
        mid-append — is skipped.  Corruption anywhere else, or a row carrying
        a schema version this reader does not understand, raises
        :class:`LedgerError` instead of silently mis-parsing.
        """
        path = Path(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
        outcomes: List[ScenarioOutcome] = []
        axis_names: List[str] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("ledger line is not a JSON object")
            except (json.JSONDecodeError, ValueError) as err:
                if index == last:
                    break  # torn tail from a crash mid-append
                raise LedgerError(f"{path}:{index + 1}: corrupt ledger line ({err})") from None
            schema = row.get("schema")
            if schema not in SUPPORTED_LEDGER_SCHEMAS:
                raise LedgerError(
                    f"{path}:{index + 1}: unknown ledger schema {schema!r} "
                    f"(this reader supports {', '.join(map(str, SUPPORTED_LEDGER_SCHEMAS))})"
                )
            try:
                outcome = _outcome_from_row(row)
            except (KeyError, TypeError, ValueError) as err:
                if index == last:
                    break
                raise LedgerError(f"{path}:{index + 1}: malformed ledger row ({err})") from None
            outcomes.append(outcome)
            for name in outcome.axes:
                if name not in axis_names:
                    axis_names.append(name)
        return cls(outcomes, axis_names)

    def final_by_scenario(self) -> Dict[Tuple[str, str], ScenarioOutcome]:
        """The latest row per ``(scenario_id, config_digest)``.

        Ledger rows are appended chronologically (including retries and
        resumed re-runs), so the last row of a scenario is its current state.
        """
        latest: Dict[Tuple[str, str], ScenarioOutcome] = {}
        for outcome in self.outcomes:
            latest[(outcome.scenario_id, outcome.config_digest)] = outcome
        return latest

    # -- aggregation -------------------------------------------------------------

    def pivot(
        self,
        metric: str,
        row_axis: str,
        col_axis: Optional[str] = None,
    ) -> List[List[object]]:
        """Cross-scenario summary: ``metric`` per ``row_axis`` (× ``col_axis``).

        Returns header + rows ready for :func:`~repro.core.report.render_table`.
        Cells average over every scenario sharing the (row, col) combination,
        so extra axes collapse to their mean.
        """
        for axis in (row_axis, col_axis):
            if axis is not None and axis not in self.axis_names:
                raise ValueError(f"unknown axis {axis!r}; sweep axes: {', '.join(self.axis_names)}")
        row_values: List[object] = []
        col_values: List[object] = []
        cells: Dict[Tuple[object, object], List[float]] = {}
        for outcome in self.outcomes:
            if not outcome.ok or metric not in outcome.metrics:
                continue
            row_key = outcome.axes[row_axis]
            col_key = outcome.axes[col_axis] if col_axis is not None else metric
            if row_key not in row_values:
                row_values.append(row_key)
            if col_key not in col_values:
                col_values.append(col_key)
            cells.setdefault((row_key, col_key), []).append(float(outcome.metrics[metric]))
        header = [row_axis] + [
            f"{col_axis}={value}" if col_axis is not None else str(value)
            for value in col_values
        ]
        rows: List[List[object]] = [header]
        for row_key in row_values:
            row: List[object] = [row_key]
            for col_key in col_values:
                samples = cells.get((row_key, col_key))
                row.append(round(fold_sum(samples) / len(samples), 6) if samples else "-")
            rows.append(row)
        return rows

    def render_pivot(self, metric: str, row_axis: str, col_axis: Optional[str] = None) -> str:
        """Render a pivot as a text table."""
        table = self.pivot(metric, row_axis, col_axis)
        title = f"{metric} vs. {row_axis}" + (f" x {col_axis}" if col_axis else "")
        return render_table(table[0], table[1:], title=title)

    def render_results(self) -> str:
        """Render the per-scenario results table."""
        metric_names = self.metric_names()
        headers = ["scenario", *metric_names, "seconds", "status"]
        rows: List[List[object]] = []
        for outcome in self.outcomes:
            row: List[object] = [outcome.scenario_id]
            for name in metric_names:
                value = outcome.metrics.get(name, "-")
                row.append(round(value, 6) if isinstance(value, float) else value)
            row.append(round(outcome.elapsed_seconds, 2))
            row.append("ok" if outcome.ok else outcome.error)
            rows.append(row)
        return render_table(headers, rows, title=f"Sweep results ({len(self.outcomes)} scenarios)")


class _Campaign:
    """Mutable bookkeeping of one :meth:`SweepRunner.run` invocation."""

    def __init__(
        self,
        writer: Optional[_LedgerWriter],
        results: Dict[int, ScenarioOutcome],
        breaker_threshold: Optional[int],
    ) -> None:
        self.writer = writer
        self.results = results
        self.breaker_threshold = breaker_threshold
        self.consecutive_failures = 0
        self.breaker_open = False
        self.pool_respawns = 0

    def _append(self, outcome: ScenarioOutcome) -> None:
        if self.writer is not None:
            self.writer.append(outcome)

    @staticmethod
    def _merge_obs(outcome: ScenarioOutcome) -> None:
        """Fold a worker's shipped metrics snapshot into the driver registry."""
        if outcome.obs is not None and obs_metrics.enabled():
            obs_metrics.registry().merge(outcome.obs)

    def record_final(self, index: int, outcome: ScenarioOutcome) -> None:
        """Record a scenario's final outcome; feed the circuit breaker."""
        self.results[index] = outcome
        self._append(outcome)
        self._merge_obs(outcome)
        if outcome.ok:
            self.consecutive_failures = 0
            obs_metrics.inc("sweep.scenarios_ok")
            obs_metrics.observe("sweep.scenario_seconds", outcome.elapsed_seconds)
            log_event(
                logger,
                logging.INFO,
                "sweep.scenario_ok",
                scenario_id=outcome.scenario_id,
                attempt=outcome.attempt,
                seconds=round(outcome.elapsed_seconds, 3),
            )
        else:
            self.consecutive_failures += 1
            obs_metrics.inc("sweep.scenarios_failed")
            if outcome.status == STATUS_TIMEOUT:
                obs_metrics.inc("sweep.timeouts")
            log_event(
                logger,
                logging.WARNING,
                "sweep.scenario_failed",
                scenario_id=outcome.scenario_id,
                status=outcome.status,
                attempt=outcome.attempt,
                error=outcome.error,
            )
            if (
                self.breaker_threshold is not None
                and self.consecutive_failures >= self.breaker_threshold
            ):
                if not self.breaker_open:
                    obs_metrics.inc("sweep.breaker_trips")
                    log_event(
                        logger,
                        logging.ERROR,
                        "sweep.breaker_open",
                        consecutive_failures=self.consecutive_failures,
                        last_scenario_id=outcome.scenario_id,
                    )
                self.breaker_open = True

    def record_retry(self, outcome: ScenarioOutcome) -> None:
        """Record a non-final failed attempt (the scenario will be retried)."""
        if outcome.status == STATUS_TIMEOUT:
            obs_metrics.inc("sweep.timeouts")
        outcome.status = STATUS_RETRIED
        self._append(outcome)
        self._merge_obs(outcome)
        obs_metrics.inc("sweep.retries")
        log_event(
            logger,
            logging.WARNING,
            "sweep.retry",
            scenario_id=outcome.scenario_id,
            attempt=outcome.attempt,
            error=outcome.error,
        )

    def record_skipped(self, index: int, outcome: ScenarioOutcome) -> None:
        """Record a scenario the open circuit breaker refused to submit."""
        self.results[index] = outcome
        self._append(outcome)
        obs_metrics.inc("sweep.skipped")
        log_event(
            logger,
            logging.WARNING,
            "sweep.skipped",
            scenario_id=outcome.scenario_id,
            reason="breaker_open",
        )


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context of the scenario pool: fork when the
    platform offers it (cheap, and workers inherit the imported modules),
    spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class SweepRunner:
    """Execute a scenario grid across crash-isolated multiprocess workers."""

    def __init__(
        self,
        metrics: Sequence[str] = ("traffic",),
        workers: int = 1,
        store: Union[str, Path, None] = None,
        ledger_path: Union[str, Path, None] = None,
        gen_workers: int = 1,
        retries: int = 0,
        timeout: Optional[float] = None,
        backoff: float = 0.5,
        max_consecutive_failures: Optional[int] = None,
    ) -> None:
        resolve_metrics(metrics)  # fail fast on unknown names
        self.metrics = tuple(metrics)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # Generation is serial; the parameter stays only for perfbench, which passes 1.
        if gen_workers != 1:
            raise ValueError(f"gen_workers must be 1 (generation is serial), got {gen_workers}")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if max_consecutive_failures is not None and max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be >= 1")
        self.workers = workers
        self.store_root = str(store) if store is not None else None
        self.ledger_path = Path(ledger_path) if ledger_path is not None else None
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        self.max_consecutive_failures = max_consecutive_failures

    # -- task construction -------------------------------------------------------

    def _task(self, spec: ScenarioSpec, attempt: int) -> _Task:
        return _Task(
            scenario_id=spec.scenario_id,
            axes=spec.axes,
            config=spec.config,
            metrics=self.metrics,
            store_root=self.store_root,
            timeout=self.timeout,
            attempt=attempt,
            trace_path=obs_trace.trace_path(),
            collect_obs=obs_metrics.enabled(),
        )

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff before re-running a failed attempt."""
        return self.backoff * (2 ** (attempt - 1))

    def _synthetic_outcome(
        self, spec: ScenarioSpec, attempt: int, error: str, status: str = STATUS_FAILED
    ) -> ScenarioOutcome:
        """An outcome the driver fabricates when no worker result exists."""
        from repro.store.artifacts import config_digest

        now = time.time()
        return ScenarioOutcome(
            scenario_id=spec.scenario_id,
            axes=spec.axes_dict,
            config_digest=config_digest(spec.config),
            metrics={},
            elapsed_seconds=0.0,
            error=error,
            status=status,
            attempt=attempt,
            worker_id="driver",
            started_at=now,
            ended_at=now,
        )

    def _skipped_outcome(self, spec: ScenarioSpec, campaign: _Campaign) -> ScenarioOutcome:
        return self._synthetic_outcome(
            spec,
            attempt=0,
            error=(
                "skipped: circuit breaker open after "
                f"{campaign.consecutive_failures} consecutive scenario failures"
            ),
        )

    # -- execution ---------------------------------------------------------------

    def run(self, grid: ScenarioGrid, resume: Union[str, Path, None] = None) -> SweepResult:
        """Run every grid point; outcomes keep grid order regardless of workers.

        With ``resume``, scenarios whose ``(scenario_id, config_digest)``
        already has an ``ok`` row in the given ledger are reused as-is and the
        newly-run rows are appended to it (or to ``ledger_path`` when that
        names a different file, which then receives the reused rows too, so
        the target ledger is always self-contained).
        """
        from repro.store.artifacts import config_digest

        specs = grid.specs()
        results: Dict[int, ScenarioOutcome] = {}
        reused_count = 0
        resume_path = Path(resume) if resume is not None else None
        if resume_path is not None:
            finals = SweepResult.read_ledger(resume_path).final_by_scenario()
            for index, spec in enumerate(specs):
                prior = finals.get((spec.scenario_id, config_digest(spec.config)))
                if prior is not None and prior.status == STATUS_OK:
                    results[index] = prior
                    reused_count += 1

        target = self.ledger_path
        if target is None and resume_path is not None:
            target = resume_path
        writer: Optional[_LedgerWriter] = None
        if target is not None:
            same_file = resume_path is not None and target.resolve() == resume_path.resolve()
            writer = _LedgerWriter(target, append=same_file)
            if not same_file:
                # A fresh target ledger must still contain the reused rows so
                # it stands alone as the merged campaign record.
                for index in sorted(results):
                    writer.append(results[index])

        pending = [(index, spec) for index, spec in enumerate(specs) if index not in results]
        campaign = _Campaign(writer, results, self.max_consecutive_failures)
        workers = min(self.workers, max(1, len(pending) or 1))
        try:
            if pending:
                if workers <= 1:
                    self._run_serial(pending, campaign)
                else:
                    self._run_parallel(pending, campaign, workers)
        finally:
            if writer is not None:
                writer.close()

        result = SweepResult([results[index] for index in range(len(specs))], grid.axis_names)
        result.pool_respawns = campaign.pool_respawns
        result.reused_count = reused_count
        return result

    def _run_serial(
        self, pending: Sequence[Tuple[int, ScenarioSpec]], campaign: _Campaign
    ) -> None:
        """In-process execution (workers=1) with the same fault policy."""
        for index, spec in pending:
            if campaign.breaker_open:
                campaign.record_skipped(index, self._skipped_outcome(spec, campaign))
                continue
            attempt = 1
            while True:
                outcome = _execute_scenario(self._task(spec, attempt))
                if outcome.ok or attempt > self.retries:
                    campaign.record_final(index, outcome)
                    break
                campaign.record_retry(outcome)
                delay = self._backoff_delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1

    def _new_executor(self, workers: int) -> ProcessPoolExecutor:
        # A process pool, not threads: each scenario runs crash-isolated, so a
        # worker death breaks only the executor, which _run_parallel respawns.
        return ProcessPoolExecutor(max_workers=workers, mp_context=pool_context())

    def _run_parallel(
        self,
        pending: Sequence[Tuple[int, ScenarioSpec]],
        campaign: _Campaign,
        workers: int,
    ) -> None:
        """Submit-and-drain scheduling that survives worker death.

        At most one scenario is submitted per worker slot, so the in-flight
        set approximates the actually-running set: when a worker dies and
        breaks the pool, only genuinely in-flight scenarios are charged a
        failed attempt (and retried, if attempts remain) — completed outcomes
        are already recorded and queued scenarios resubmit untouched on the
        respawned executor.
        """
        # (index, spec, attempt, ready_time) — ready_time gates backoff waits.
        waiting: List[Tuple[int, ScenarioSpec, int, float]] = [
            (index, spec, 1, 0.0) for index, spec in pending
        ]
        inflight: Dict[object, Tuple[int, ScenarioSpec, int]] = {}
        executor = self._new_executor(workers)
        try:
            while waiting or inflight:
                now = time.monotonic()
                if campaign.breaker_open and waiting:
                    for index, spec, _attempt, _ready in waiting:
                        campaign.record_skipped(index, self._skipped_outcome(spec, campaign))
                    waiting = []
                still_waiting: List[Tuple[int, ScenarioSpec, int, float]] = []
                pool_broken = False
                for item in sorted(waiting, key=lambda it: (it[3], it[0])):
                    index, spec, attempt, ready = item
                    if not pool_broken and len(inflight) < workers and ready <= now:
                        try:
                            future = executor.submit(_execute_scenario, self._task(spec, attempt))
                        except BrokenProcessPool:
                            # A worker died since the last drain.  This scenario
                            # never started, so it waits for the respawned pool
                            # without being charged an attempt.
                            pool_broken = True
                            still_waiting.append(item)
                            continue
                        inflight[future] = (index, spec, attempt)
                    else:
                        still_waiting.append(item)
                waiting = still_waiting
                if not inflight and not pool_broken:
                    if waiting:  # everything is backing off; sleep to the earliest retry
                        time.sleep(max(0.0, min(item[3] for item in waiting) - now))
                    continue
                done = set()
                if inflight:
                    done, _running = wait(set(inflight), timeout=0.1, return_when=FIRST_COMPLETED)
                for future in done:
                    index, spec, attempt = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        outcome = self._synthetic_outcome(
                            spec, attempt, "BrokenProcessPool: worker process died mid-scenario"
                        )
                    except Exception as exc:  # e.g. an unpicklable result
                        outcome = self._synthetic_outcome(
                            spec, attempt, f"{type(exc).__name__}: {exc}"
                        )
                    self._settle(campaign, waiting, index, spec, attempt, outcome)
                if pool_broken:
                    # The pool is unusable: every still-inflight future dies
                    # with it.  Harvest any that actually finished, charge the
                    # rest a failed attempt, and respawn the executor.
                    for future, (index, spec, attempt) in list(inflight.items()):
                        try:
                            outcome = future.result(timeout=0)
                        except Exception:
                            outcome = self._synthetic_outcome(
                                spec,
                                attempt,
                                "BrokenProcessPool: worker process died mid-scenario",
                            )
                        self._settle(campaign, waiting, index, spec, attempt, outcome)
                    inflight.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._new_executor(workers)
                    campaign.pool_respawns += 1
                    obs_metrics.inc("sweep.respawns")
                    log_event(
                        logger,
                        logging.WARNING,
                        "sweep.respawn",
                        respawns=campaign.pool_respawns,
                    )
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _settle(
        self,
        campaign: _Campaign,
        waiting: List[Tuple[int, ScenarioSpec, int, float]],
        index: int,
        spec: ScenarioSpec,
        attempt: int,
        outcome: ScenarioOutcome,
    ) -> None:
        """Route one finished attempt: final success/failure, or schedule a retry."""
        if outcome.ok or attempt > self.retries:
            campaign.record_final(index, outcome)
        else:
            campaign.record_retry(outcome)
            waiting.append(
                (index, spec, attempt + 1, time.monotonic() + self._backoff_delay(attempt))
            )
