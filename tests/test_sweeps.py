"""Tests for the scenario grid and the multiprocess sweep runner."""

import json

import pytest

from repro.simulation.config import ScenarioConfig
from repro.sweeps import ScenarioGrid, SweepResult, SweepRunner
from repro.sweeps.metrics import available_metrics, resolve_metrics


def _base(**overrides) -> ScenarioConfig:
    return ScenarioConfig.small(seed=41).with_overrides(
        n_subscriber_lines=40, n_scanner_lines=1, **overrides
    )


class TestScenarioGrid:
    def test_expansion_order_and_ids(self):
        grid = ScenarioGrid(_base(), {"sampling_ratio": (1, 10), "scale": (0.01, 0.02)})
        assert len(grid) == 4
        specs = grid.specs()
        assert [spec.scenario_id for spec in specs] == [
            "sampling_ratio=1,scale=0.01",
            "sampling_ratio=1,scale=0.02",
            "sampling_ratio=10,scale=0.01",
            "sampling_ratio=10,scale=0.02",
        ]
        assert specs[2].config.sampling_ratio == 10
        assert specs[2].config.scale == 0.01
        assert specs[2].axes_dict == {"sampling_ratio": 10, "scale": 0.01}
        # Non-axis fields come from the base config.
        assert all(spec.config.n_subscriber_lines == 40 for spec in specs)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario axis"):
            ScenarioGrid(_base(), {"not_a_field": (1,)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ScenarioGrid(_base(), {"scale": ()})
        with pytest.raises(ValueError, match="at least one axis"):
            ScenarioGrid(_base(), {})

    def test_invalid_config_values_fail_at_expansion(self):
        grid = ScenarioGrid(_base(), {"scale": (0.01, -1.0)})
        with pytest.raises(ValueError, match="scale must be positive"):
            grid.specs()

    def test_from_strings_converts_field_types(self):
        grid = ScenarioGrid.from_strings(
            _base(), ["sampling_ratio=1,10", "volume_sigma=0.5,0.75"]
        )
        specs = grid.specs()
        assert isinstance(specs[0].config.sampling_ratio, int)
        assert isinstance(specs[0].config.volume_sigma, float)
        assert len(grid) == 4

    def test_from_strings_rejects_malformed_axes(self):
        with pytest.raises(ValueError, match="malformed axis"):
            ScenarioGrid.from_strings(_base(), ["scale"])
        with pytest.raises(ValueError, match="unknown scenario axis"):
            ScenarioGrid.from_strings(_base(), ["bogus=1"])
        with pytest.raises(ValueError, match="non-scalar"):
            ScenarioGrid.from_strings(_base(), ["study_period=x"])


class TestMetrics:
    def test_registry_contents(self):
        assert set(available_metrics()) == {"discovery", "outage", "traffic"}

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown sweep metric"):
            resolve_metrics(("traffic", "bogus"))


class TestSweepRunner:
    @pytest.fixture(scope="class")
    def grid(self):
        return ScenarioGrid(
            _base(), {"sampling_ratio": (1, 8), "volume_sigma": (0.5, 0.75)}
        )

    @pytest.fixture(scope="class")
    def serial(self, grid):
        return SweepRunner(metrics=("traffic",), workers=1).run(grid)

    def test_serial_run_shape(self, grid, serial):
        assert len(serial) == 4
        assert serial.failures() == []
        assert [outcome.scenario_id for outcome in serial.outcomes] == [
            spec.scenario_id for spec in grid.specs()
        ]
        for outcome in serial.outcomes:
            assert outcome.metrics["clean_flows"] > 0
            assert outcome.elapsed_seconds > 0

    def test_parallel_results_bit_identical_to_serial(self, grid, serial):
        """The acceptance bar: >= 4 scenarios over >= 2 workers, identical results."""
        parallel = SweepRunner(metrics=("traffic",), workers=2).run(grid)
        assert [outcome.scenario_id for outcome in parallel.outcomes] == [
            outcome.scenario_id for outcome in serial.outcomes
        ]
        for mine, theirs in zip(serial.outcomes, parallel.outcomes):
            assert mine.metrics == theirs.metrics
            assert mine.config_digest == theirs.config_digest
            assert theirs.error is None

    def test_ledger_round_trip(self, grid, serial, tmp_path):
        path = tmp_path / "ledger.jsonl"
        serial.write_ledger(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            row = json.loads(line)
            assert row["schema"] == 2
            assert row["error"] is None
            assert row["status"] == "ok"
            assert row["attempt"] == 1
            assert row["worker_id"]
            assert row["ended_at"] >= row["started_at"] > 0
        restored = SweepResult.read_ledger(path)
        assert [outcome.metrics for outcome in restored.outcomes] == [
            outcome.metrics for outcome in serial.outcomes
        ]
        assert restored.axis_names == ("sampling_ratio", "volume_sigma")

    def test_pivot_table(self, serial):
        rows = serial.pivot("clean_flows", "sampling_ratio", "volume_sigma")
        assert rows[0] == ["sampling_ratio", "volume_sigma=0.5", "volume_sigma=0.75"]
        assert [row[0] for row in rows[1:]] == [1, 8]
        assert all(isinstance(cell, float) for row in rows[1:] for cell in row[1:])
        rendered = serial.render_pivot("clean_flows", "sampling_ratio", "volume_sigma")
        assert "clean_flows vs. sampling_ratio x volume_sigma" in rendered

    def test_pivot_unknown_axis_rejected(self, serial):
        with pytest.raises(ValueError, match="unknown axis"):
            serial.pivot("clean_flows", "not_an_axis")

    def test_render_results_lists_every_scenario(self, serial):
        rendered = serial.render_results()
        for outcome in serial.outcomes:
            assert outcome.scenario_id in rendered

    def test_failed_scenarios_are_recorded_not_raised(self, monkeypatch):
        from repro.sweeps import metrics as metrics_module

        def explode(context):
            raise RuntimeError("metric blew up")

        monkeypatch.setitem(metrics_module.SWEEP_METRICS, "traffic", explode)
        result = SweepRunner(metrics=("traffic",), workers=1).run(
            ScenarioGrid(_base(), {"sampling_ratio": (1,)})
        )
        assert len(result.failures()) == 1
        assert "metric blew up" in result.failures()[0].error

    def test_runner_validates_arguments(self):
        with pytest.raises(ValueError, match="unknown sweep metric"):
            SweepRunner(metrics=("bogus",))
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(workers=0)

    def test_gen_workers_accepts_only_serial_generation(self, grid, serial):
        """gen_workers=1 runs the grid as before; any other value is refused."""
        result = SweepRunner(metrics=("traffic",), workers=1, gen_workers=1).run(grid)
        assert [o.metrics for o in result.outcomes] == [o.metrics for o in serial.outcomes]
        for value in (0, 2):
            with pytest.raises(ValueError, match="gen_workers"):
                SweepRunner(gen_workers=value)

    def test_store_backed_rerun_is_identical(self, grid, serial, tmp_path):
        """A sweep over a shared store warm-starts and stays bit-identical."""
        store_root = tmp_path / "store"
        first = SweepRunner(metrics=("traffic",), workers=2, store=store_root).run(grid)
        second = SweepRunner(metrics=("traffic",), workers=1, store=store_root).run(grid)
        for cold, warm, reference in zip(first.outcomes, second.outcomes, serial.outcomes):
            assert cold.metrics == reference.metrics
            assert warm.metrics == reference.metrics
        assert any(store_root.iterdir())


def test_from_strings_rejects_repeated_axis():
    with pytest.raises(ValueError, match="more than once"):
        ScenarioGrid.from_strings(_base(), ["scale=0.01", "scale=0.02"])
