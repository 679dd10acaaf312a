"""Cross-worker determinism: parallel generation is byte-identical to serial.

The determinism contract of :mod:`repro.flows.parallel`: for the same frozen
:class:`ScenarioConfig`, ``gen_workers ∈ {1, 2, 4}`` must produce

* byte-identical :func:`~repro.store.codec.dump_table` payloads (same rows,
  same pool order, same dictionary codes), and
* identical :class:`~repro.store.artifacts.ArtifactStore` content addresses
  *and file contents* — ``gen_workers`` is an execution knob, not a scenario
  knob, so it participates in no fingerprint.

Plus the wiring around it: ``build_context(gen_workers=...)``, the
oversubscription clamp, the daemonic-worker fallback, and sweep composition.
"""

import io
import multiprocessing
from datetime import date

import pytest

from repro.flows.flowtable import FlowTable
from repro.flows.parallel import available_cpus, effective_gen_workers, parallelism_usable
from repro.simulation.clock import StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.simulation.world import build_world
from repro.store.artifacts import ArtifactStore, generated_stage, scenario_fingerprint
from repro.store.codec import dump_table

CONFIG = ScenarioConfig.small(seed=11).with_overrides(n_subscriber_lines=250)
PERIOD = StudyPeriod(date(2022, 2, 28), date(2022, 3, 1), name="parallel-determinism")


def table_bytes(table: FlowTable) -> bytes:
    buffer = io.BytesIO()
    dump_table(table, buffer)
    return buffer.getvalue()


def generate(workers: int, include_scanners: bool = True) -> FlowTable:
    world = build_world(CONFIG)
    generator = world.workload_generator()
    return generator.generate_period_table(
        PERIOD, include_scanners=include_scanners, workers=workers
    )


@pytest.fixture(scope="module")
def serial_bytes() -> bytes:
    return table_bytes(generate(1))


class TestByteIdentity:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_workers_yield_byte_identical_dump_payloads(self, workers, serial_bytes):
        assert table_bytes(generate(workers)) == serial_bytes

    def test_scannerless_generation_is_also_identical(self):
        serial = table_bytes(generate(1, include_scanners=False))
        parallel = table_bytes(generate(3, include_scanners=False))
        assert parallel == serial

    def test_store_addresses_and_contents_are_identical(self, tmp_path, serial_bytes):
        stage = generated_stage(True)
        # The content address is a pure function of (config, period, stage):
        # no gen_workers anywhere in the fingerprint recipe.
        digest = scenario_fingerprint(CONFIG, PERIOD, stage)
        payloads = {}
        for workers in (1, 2, 4):
            store = ArtifactStore(tmp_path / f"workers-{workers}")
            store.put_table(CONFIG, PERIOD, stage, generate(workers))
            # Payloads live in the digest-sharded layout: <root>/ab/cdef....rft.
            files = sorted(store.root.glob("*/*.rft"))
            assert [f.parent.name + f.stem for f in files] == [digest]
            payloads[workers] = files[0].read_bytes()
        assert payloads[1] == payloads[2] == payloads[4] == serial_bytes

    def test_world_gen_workers_knob_feeds_generation(self, serial_bytes):
        world = build_world(CONFIG)
        world.gen_workers = 2
        assert table_bytes(world.flows_table(PERIOD)) == serial_bytes


class TestWiring:
    def test_build_context_sets_and_updates_gen_workers(self):
        from repro.experiments.context import build_context

        context = build_context(CONFIG, gen_workers=3)
        assert context.world.gen_workers == 3
        # A cache hit adopts the newly requested value...
        again = build_context(CONFIG, gen_workers=2)
        assert again is context
        assert context.world.gen_workers == 2
        # ...and omitting the knob means the serial default, on a hit just as
        # on a cold build — parallelism never leaks from an earlier caller.
        build_context(CONFIG)
        assert context.world.gen_workers == 1

    def test_effective_gen_workers_clamps_against_scenario_workers(self):
        cpus = available_cpus()
        assert effective_gen_workers(None) == 1
        assert effective_gen_workers(None, 8) == 1
        assert effective_gen_workers(0) == 1
        # The clamp is unconditional: even a lone scenario may not request
        # more hour-workers than there are visible CPUs.
        assert effective_gen_workers(6) == max(1, min(6, cpus))
        # Two concurrent scenario workers: each may use at most cpus // 2
        # hour-workers, and never fewer than one.
        assert effective_gen_workers(8, 2) == max(1, min(8, cpus // 2))
        assert effective_gen_workers(8, 2 * cpus + 1) == 1

    def test_daemonic_workers_fall_back_to_serial(self, serial_bytes):
        """Inside a daemonic pool worker no child pool may exist; generation
        must silently fall back to the serial path, not crash."""
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        with context.Pool(1) as pool:
            payload = pool.apply(_generate_in_daemon)
        assert payload == serial_bytes

    def test_parallelism_usable_in_main_process(self):
        assert parallelism_usable()


def _generate_in_daemon() -> bytes:
    assert not parallelism_usable()
    return table_bytes(generate(workers=4))


class TestSweepComposition:
    def test_sweep_gen_workers_results_match_serial_sweep(self, tmp_path):
        from repro.sweeps import ScenarioGrid, SweepRunner

        base = ScenarioConfig.small(seed=11).with_overrides(n_subscriber_lines=150)
        grid = ScenarioGrid.from_strings(base, ["sampling_ratio=1,10"])
        serial = SweepRunner(metrics=("traffic",), workers=1).run(grid)
        # Nested case: one scenario process, hour-level pool inside it.
        nested = SweepRunner(metrics=("traffic",), workers=1, gen_workers=2).run(grid)
        # Composed case: scenario pool with the clamp applied per machine.
        composed = SweepRunner(metrics=("traffic",), workers=2, gen_workers=4).run(grid)
        assert not serial.failures() and not nested.failures() and not composed.failures()
        reference = [outcome.metrics for outcome in serial.outcomes]
        assert [outcome.metrics for outcome in nested.outcomes] == reference
        assert [outcome.metrics for outcome in composed.outcomes] == reference

    def test_gen_workers_validation(self):
        from repro.sweeps import SweepRunner

        with pytest.raises(ValueError):
            SweepRunner(gen_workers=0)
