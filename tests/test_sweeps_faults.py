"""Fault-injection harness for the sweep execution core.

Every test here hurts the campaign on purpose — SIGKILLed workers, a
SIGKILLed driver, torn ledger tails, corrupted store artifacts, hung and
crashing scenarios — and then proves the fault-tolerance contract:

* completed ledger rows are never lost (incremental append + fsync),
* a resumed campaign's per-scenario metrics are bit-identical to an
  uninterrupted run (only the fields in ``NONDETERMINISTIC_LEDGER_FIELDS`` —
  ``elapsed_seconds`` and friends — may differ, and
  ``ScenarioOutcome.identity()`` excludes exactly those),
* a broken process pool loses at most the in-flight scenarios, and
* retries, timeouts, and the circuit breaker behave as documented.

Faults are injected through ``repro.sweeps.runner.FAULT_HOOK``, called at the
top of every scenario attempt inside the worker; pool workers inherit the
hook (and any env-var knobs it reads) through the fork start method.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.simulation.config import ScenarioConfig
from repro.store.artifacts import ArtifactStore
from repro.sweeps import (
    NONDETERMINISTIC_LEDGER_FIELDS,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    STATUS_TIMEOUT,
    LedgerError,
    ScenarioGrid,
    SweepResult,
    SweepRunner,
)
from repro.sweeps import runner as runner_module

REPO_ROOT = Path(__file__).resolve().parents[1]
AXIS_VALUES = (1, 2, 4, 8)


def _base(**overrides) -> ScenarioConfig:
    return ScenarioConfig.small(seed=43).with_overrides(
        n_subscriber_lines=40, n_scanner_lines=1, **overrides
    )


def _grid(values=AXIS_VALUES) -> ScenarioGrid:
    return ScenarioGrid(_base(), {"sampling_ratio": values})


def identities(result: SweepResult) -> dict:
    """scenario_id -> deterministic projection (timing fields excluded)."""
    return {outcome.scenario_id: outcome.identity() for outcome in result.outcomes}


@pytest.fixture(scope="module")
def clean():
    """The uninterrupted serial reference run every fault scenario must match."""
    return SweepRunner(metrics=("traffic",), workers=1).run(_grid())


@pytest.fixture
def fault_hook(monkeypatch):
    """Install a fault hook for the duration of one test (auto-removed)."""

    def install(hook):
        monkeypatch.setattr(runner_module, "FAULT_HOOK", hook)

    return install


@pytest.fixture
def metrics():
    """A fresh, enabled metrics registry for one test (restored afterwards)."""
    previous = obs_metrics.set_registry(MetricsRegistry())
    obs_metrics.enable()
    try:
        yield obs_metrics.registry()
    finally:
        obs_metrics.disable()
        obs_metrics.set_registry(previous)


# -- injectable faults (module-level so fork-inherited workers resolve them) ----


def _sigkill_once(scenario_id: str, attempt: int) -> None:
    """SIGKILL the worker mid-scenario, exactly once across the campaign.

    The flag file provides the once-semantics atomically: every process that
    sees the scenario races to ``os.remove`` it, and only the winner dies.
    """
    flag = os.environ.get("FAULT_KILL_FLAG", "")
    if flag and "sampling_ratio=4" in scenario_id:
        try:
            os.remove(flag)
        except FileNotFoundError:
            return
        os.kill(os.getpid(), signal.SIGKILL)


def _sigkill_always(scenario_id: str, attempt: int) -> None:
    if "sampling_ratio=4" in scenario_id:
        os.kill(os.getpid(), signal.SIGKILL)


def _fail_first_attempt(scenario_id: str, attempt: int) -> None:
    if attempt == 1:
        raise RuntimeError("injected transient fault")


def _fail_always(scenario_id: str, attempt: int) -> None:
    raise RuntimeError("injected permanent fault")


def _fail_one_scenario(scenario_id: str, attempt: int) -> None:
    if "sampling_ratio=1" in scenario_id:
        raise RuntimeError("injected isolated fault")


def _raise_timeout_error(scenario_id: str, attempt: int) -> None:
    """A failure whose message names a timeout, though no attempt timed out."""
    raise TimeoutError("upstream lookup timed out")


def _hang(scenario_id: str, attempt: int) -> None:
    if "sampling_ratio=4" in scenario_id:
        time.sleep(10)  # far beyond any timeout used below; SIGALRM interrupts


def _record_ledger_growth(scenario_id: str, attempt: int) -> None:
    """Log how many ledger rows exist the moment each scenario starts."""
    ledger = Path(os.environ["FAULT_LEDGER_FILE"])
    rows = len(ledger.read_text().splitlines()) if ledger.exists() else 0
    with Path(os.environ["FAULT_PROGRESS_FILE"]).open("a") as stream:
        stream.write(f"{rows}\n")


# -- ledger robustness ----------------------------------------------------------


class TestLedgerRobustness:
    def test_torn_final_line_is_skipped(self, clean, tmp_path):
        path = clean.write_ledger(tmp_path / "ledger.jsonl")
        with path.open("a") as stream:
            stream.write('{"schema": 2, "scenario_id": "torn-mid-app')  # no newline
        restored = SweepResult.read_ledger(path)
        assert len(restored) == len(clean)
        assert identities(restored) == identities(clean)

    def test_garbage_final_line_is_skipped(self, clean, tmp_path):
        path = clean.write_ledger(tmp_path / "ledger.jsonl")
        with path.open("a") as stream:
            stream.write("\x00 not json at all \xff\n")
        assert len(SweepResult.read_ledger(path)) == len(clean)

    def test_corrupt_middle_line_raises(self, clean, tmp_path):
        path = clean.write_ledger(tmp_path / "ledger.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = "garbage {{{"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match=r":2: corrupt ledger line"):
            SweepResult.read_ledger(path)

    def test_unknown_schema_raises_even_on_final_line(self, clean, tmp_path):
        path = clean.write_ledger(tmp_path / "ledger.jsonl")
        row = json.loads(path.read_text().splitlines()[0])
        row["schema"] = 99
        with path.open("a") as stream:
            stream.write(json.dumps(row) + "\n")
        with pytest.raises(LedgerError, match="unknown ledger schema 99"):
            SweepResult.read_ledger(path)

    def test_schema1_rows_parse_with_defaults(self, tmp_path):
        row = {
            "schema": 1,
            "scenario_id": "sampling_ratio=1",
            "axes": {"sampling_ratio": 1},
            "config_digest": "d" * 64,
            "metrics": {"clean_flows": 10},
            "elapsed_seconds": 0.5,
            "error": None,
        }
        path = tmp_path / "v1.jsonl"
        path.write_text(json.dumps(row) + "\n")
        restored = SweepResult.read_ledger(path)
        assert len(restored) == 1
        outcome = restored.outcomes[0]
        assert outcome.status == STATUS_OK and outcome.attempt == 1
        # A failed v1 row derives its status from the error field.
        row["error"] = "RuntimeError: boom"
        path.write_text(json.dumps(row) + "\n")
        assert SweepResult.read_ledger(path).outcomes[0].status == STATUS_FAILED

    def test_resume_over_torn_tail_appends_cleanly(self, clean, tmp_path):
        """A crash mid-append leaves a partial row; resume trims and continues."""
        path = tmp_path / "ledger.jsonl"
        complete = [json.dumps(row, sort_keys=True) for row in clean.ledger_rows()[:2]]
        path.write_text("\n".join(complete) + "\n" + '{"schema": 2, "scen')
        result = SweepRunner(metrics=("traffic",), workers=1).run(_grid(), resume=path)
        assert result.reused_count == 2
        assert [outcome.ok for outcome in result.outcomes] == [True] * 4
        assert identities(result) == identities(clean)
        merged = SweepResult.read_ledger(path)
        per_scenario = [o.scenario_id for o in merged.outcomes]
        assert sorted(per_scenario) == sorted(o.scenario_id for o in clean.outcomes)
        assert len(per_scenario) == len(set(per_scenario)), "reused scenarios were re-run"


class TestIncrementalLedger:
    def test_rows_are_on_disk_before_the_next_scenario_starts(
        self, fault_hook, monkeypatch, tmp_path
    ):
        ledger = tmp_path / "ledger.jsonl"
        progress = tmp_path / "progress.txt"
        monkeypatch.setenv("FAULT_LEDGER_FILE", str(ledger))
        monkeypatch.setenv("FAULT_PROGRESS_FILE", str(progress))
        fault_hook(_record_ledger_growth)
        SweepRunner(metrics=("traffic",), workers=1, ledger_path=ledger).run(_grid())
        counts = [int(line) for line in progress.read_text().split()]
        assert counts == [0, 1, 2, 3], "ledger rows must land as scenarios complete"


# -- retry / timeout / circuit breaker ------------------------------------------


class TestRetry:
    def test_transient_failures_retried_to_success(self, clean, fault_hook, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        fault_hook(_fail_first_attempt)
        result = SweepRunner(
            metrics=("traffic",), workers=1, ledger_path=ledger, retries=1, backoff=0.0
        ).run(_grid())
        assert result.failures() == []
        assert identities(result) == identities(clean)
        assert all(outcome.attempt == 2 for outcome in result.outcomes)
        rows = SweepResult.read_ledger(ledger).outcomes
        assert len(rows) == 8  # one retried row + one ok row per scenario
        retried = [row for row in rows if row.status == STATUS_RETRIED]
        assert len(retried) == 4
        assert all("injected transient fault" in row.error for row in retried)

    def test_exhausted_retries_record_the_failure(self, fault_hook, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        fault_hook(_fail_one_scenario)
        result = SweepRunner(
            metrics=("traffic",), workers=1, ledger_path=ledger, retries=1, backoff=0.0
        ).run(_grid((1, 2)))
        failures = result.failures()
        assert [outcome.scenario_id for outcome in failures] == ["sampling_ratio=1"]
        assert failures[0].status == STATUS_FAILED and failures[0].attempt == 2
        statuses = [row.status for row in SweepResult.read_ledger(ledger).outcomes]
        assert statuses.count(STATUS_RETRIED) == 1 and statuses.count(STATUS_FAILED) == 1

    def test_retried_failure_naming_a_timeout_is_not_counted_as_one(
        self, fault_hook, metrics
    ):
        fault_hook(_raise_timeout_error)
        result = SweepRunner(
            metrics=("traffic",), workers=1, retries=1, backoff=0.0
        ).run(_grid((4,)))
        assert result.outcomes[0].status == STATUS_FAILED
        assert "Timeout" in result.outcomes[0].error
        assert metrics.counter("sweep.retries") == 1.0
        assert metrics.counter("sweep.timeouts") == 0.0


class TestTimeout:
    def test_hung_scenario_times_out_serial(self, clean, fault_hook):
        fault_hook(_hang)
        # Generous enough for a real build, far below the injected 10s hang.
        result = SweepRunner(metrics=("traffic",), workers=1, timeout=3.0).run(_grid((2, 4)))
        by_id = {outcome.scenario_id: outcome for outcome in result.outcomes}
        hung = by_id["sampling_ratio=4"]
        assert hung.status == STATUS_TIMEOUT
        assert "Timeout" in hung.error and "3s wall clock" in hung.error
        healthy = by_id["sampling_ratio=2"]
        assert healthy.ok
        assert healthy.identity() == identities(clean)["sampling_ratio=2"]

    def test_hung_scenario_times_out_parallel(self, fault_hook):
        fault_hook(_hang)
        result = SweepRunner(metrics=("traffic",), workers=2, timeout=3.0).run(_grid((2, 4)))
        by_id = {outcome.scenario_id: outcome for outcome in result.outcomes}
        assert by_id["sampling_ratio=4"].status == STATUS_TIMEOUT
        assert by_id["sampling_ratio=2"].ok

    def test_timeout_is_retried_before_giving_up(self, fault_hook, metrics, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        fault_hook(_hang)
        result = SweepRunner(
            metrics=("traffic",),
            workers=1,
            ledger_path=ledger,
            timeout=0.2,
            retries=1,
            backoff=0.0,
        ).run(_grid((4,)))
        assert result.outcomes[0].status == STATUS_TIMEOUT
        assert result.outcomes[0].attempt == 2
        statuses = [row.status for row in SweepResult.read_ledger(ledger).outcomes]
        assert statuses == [STATUS_RETRIED, STATUS_TIMEOUT]
        assert metrics.counter("sweep.timeouts") == 2.0


class TestCircuitBreaker:
    def test_breaker_halts_submission_after_consecutive_failures(self, fault_hook, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        fault_hook(_fail_always)
        result = SweepRunner(
            metrics=("traffic",),
            workers=1,
            ledger_path=ledger,
            max_consecutive_failures=2,
        ).run(_grid((1, 2, 4, 8, 16)))
        errors = [outcome.error for outcome in result.outcomes]
        assert sum("injected permanent fault" in error for error in errors) == 2
        skipped = [error for error in errors if "circuit breaker" in error]
        assert len(skipped) == 3
        assert len(SweepResult.read_ledger(ledger)) == 5  # skips are recorded too

    def test_breaker_resets_on_success(self, fault_hook):
        fault_hook(_fail_one_scenario)
        result = SweepRunner(
            metrics=("traffic",), workers=1, max_consecutive_failures=2
        ).run(_grid())
        assert len(result.failures()) == 1
        assert all("circuit breaker" not in (o.error or "") for o in result.outcomes)

    def test_breaker_opens_in_parallel_mode(self, fault_hook):
        fault_hook(_fail_always)
        result = SweepRunner(
            metrics=("traffic",), workers=2, max_consecutive_failures=2, backoff=0.0
        ).run(_grid((1, 2, 4, 8, 16, 32)))
        assert len(result.failures()) == 6  # nothing succeeds...
        assert any("circuit breaker" in o.error for o in result.outcomes), (
            "the breaker must refuse to submit the tail of the grid"
        )


# -- worker and driver crashes --------------------------------------------------


class TestWorkerCrash:
    def test_sigkilled_worker_is_respawned_and_scenario_retried(
        self, clean, fault_hook, monkeypatch, tmp_path
    ):
        flag = tmp_path / "kill.flag"
        flag.write_text("armed")
        monkeypatch.setenv("FAULT_KILL_FLAG", str(flag))
        fault_hook(_sigkill_once)
        ledger = tmp_path / "ledger.jsonl"
        result = SweepRunner(
            metrics=("traffic",), workers=2, ledger_path=ledger, retries=1, backoff=0.0
        ).run(_grid())
        assert result.pool_respawns >= 1
        assert result.failures() == []
        assert identities(result) == identities(clean)
        rows = SweepResult.read_ledger(ledger).outcomes
        assert any(
            row.status == STATUS_RETRIED and "BrokenProcessPool" in row.error for row in rows
        ), "the casualty must be recorded, then retried"

    def test_persistent_crasher_loses_only_inflight_and_resume_completes(
        self, clean, fault_hook, monkeypatch, tmp_path
    ):
        fault_hook(_sigkill_always)
        ledger = tmp_path / "ledger.jsonl"
        grid = _grid()
        result = SweepRunner(
            metrics=("traffic",), workers=2, ledger_path=ledger, retries=0
        ).run(grid)
        assert result.pool_respawns >= 1
        failed_ids = {outcome.scenario_id for outcome in result.failures()}
        assert "sampling_ratio=4" in failed_ids, "the crasher itself must be recorded failed"
        # A pool break charges only what was in flight alongside the crasher.
        assert len(failed_ids) <= 2
        completed = {o.scenario_id for o in SweepResult.read_ledger(ledger).outcomes if o.ok}
        assert completed == {o.scenario_id for o in result.outcomes if o.ok}, (
            "completed rows must already be on disk"
        )
        # With the fault gone, resume re-runs only the casualties, bit-identically.
        monkeypatch.setattr(runner_module, "FAULT_HOOK", None)
        resumed = SweepRunner(metrics=("traffic",), workers=2).run(grid, resume=ledger)
        assert resumed.reused_count == 4 - len(failed_ids)
        assert resumed.failures() == []
        assert identities(resumed) == identities(clean)
        merged = SweepResult.read_ledger(ledger)
        ok_rows = [o.scenario_id for o in merged.outcomes if o.status == STATUS_OK]
        assert sorted(ok_rows) == sorted(o.scenario_id for o in clean.outcomes)
        assert len(ok_rows) == len(set(ok_rows)), "reused scenarios must not re-run"

    def test_submit_to_a_pool_broken_since_the_last_drain_is_not_charged(
        self, clean, fault_hook, monkeypatch
    ):
        # Both scenarios go out in one submit round; delaying the second
        # submit until the crasher's worker is dead makes that submit meet
        # the broken pool.
        fault_hook(_sigkill_always)
        make_task = SweepRunner._task
        delays = [1.0]

        def slow_task(runner, spec, attempt):
            if spec.scenario_id == "sampling_ratio=8" and delays:
                time.sleep(delays.pop())
            return make_task(runner, spec, attempt)

        monkeypatch.setattr(SweepRunner, "_task", slow_task)
        result = SweepRunner(metrics=("traffic",), workers=2, retries=0).run(_grid((4, 8)))
        assert result.pool_respawns == 1
        assert [o.scenario_id for o in result.failures()] == ["sampling_ratio=4"]
        assert identities(result)["sampling_ratio=8"] == identities(clean)["sampling_ratio=8"]


class TestDriverKill:
    def test_sigkilled_driver_resumes_bit_identical(self, clean, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        script = textwrap.dedent(
            """
            import sys
            from repro.simulation.config import ScenarioConfig
            from repro.sweeps import ScenarioGrid, SweepRunner

            base = ScenarioConfig.small(seed=43).with_overrides(
                n_subscriber_lines=40, n_scanner_lines=1
            )
            grid = ScenarioGrid(base, {"sampling_ratio": (1, 2, 4, 8)})
            SweepRunner(metrics=("traffic",), workers=1, ledger_path=sys.argv[1]).run(grid)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(ledger)], env=env, cwd=REPO_ROOT
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and proc.poll() is None:
                if ledger.exists() and ledger.read_text().count("\n") >= 2:
                    break
                time.sleep(0.02)
        finally:
            proc.kill()  # SIGKILL: no atexit, no flush, no cleanup
            proc.wait()
        assert ledger.exists(), "the incremental ledger must exist before the kill"
        survivors = len(SweepResult.read_ledger(ledger))
        resumed = SweepRunner(metrics=("traffic",), workers=1).run(_grid(), resume=ledger)
        assert resumed.failures() == []
        assert resumed.reused_count >= min(survivors, 4)
        assert identities(resumed) == identities(clean)
        merged = SweepResult.read_ledger(ledger)
        ok_rows = [o.scenario_id for o in merged.outcomes if o.status == STATUS_OK]
        assert len(ok_rows) == len(set(ok_rows)), "completed scenarios must not be re-run"


# -- store corruption -----------------------------------------------------------


class TestStoreFaults:
    def test_corrupted_store_artifacts_rebuild_bit_identical(self, tmp_path):
        store_root = tmp_path / "store"
        grid = _grid((1, 2))
        first = SweepRunner(metrics=("traffic",), workers=1, store=store_root).run(grid)
        store = ArtifactStore(store_root)
        payloads = list(store_root.glob("*.rft")) + list(store_root.glob("*/*.rft"))
        assert payloads, "the sweep must have populated the store"
        for payload in payloads:
            payload.write_bytes(b"\x00corrupted mid-campaign\xff")
        second = SweepRunner(metrics=("traffic",), workers=1, store=store_root).run(grid)
        assert second.failures() == []
        assert identities(second) == identities(first)


# -- the determinism boundary ---------------------------------------------------


class TestIdentityContract:
    def test_identity_excludes_exactly_the_nondeterministic_fields(self, clean):
        """``elapsed_seconds`` (and friends) are the *only* ledger fields
        exempt from resume bit-identity comparisons; everything else is
        covered by the determinism contract and checked via ``identity()``."""
        row_fields = set(clean.ledger_rows()[0])
        identity_fields = set(clean.outcomes[0].identity())
        assert identity_fields == row_fields - set(NONDETERMINISTIC_LEDGER_FIELDS) - {"schema"}
        assert "elapsed_seconds" in NONDETERMINISTIC_LEDGER_FIELDS

    def test_parallel_run_identity_matches_serial(self, clean):
        parallel = SweepRunner(metrics=("traffic",), workers=2).run(_grid())
        assert identities(parallel) == identities(clean)
