"""Property/fuzz tests for FlowTable composition against a record-level model.

A table built in pieces must be *exactly* equivalent — rows, pools, codes,
serialized bytes — to converting the whole record list at once with the
shared column-wise builder (``flowrows.from_records``).  These tests pin that
contract with randomized corpora: every mutating primitive
(``append_columns``, ``assign_numeric``) and ``select_mask`` is checked
against the plain-list reference model, and byte equality under the store
codec is asserted wherever pool order matters.

No hypothesis dependency: the fuzzing is seeded ``random`` loops, so failures
reproduce deterministically from the printed seed.
"""

import io
import random
from dataclasses import replace
from datetime import datetime

import pytest

from repro.flows.flowtable import FlowTable
from repro.store.codec import dump_table

from flowrows import append_records, from_records, make_flow

SEEDS = range(8)


def table_bytes(table: FlowTable) -> bytes:
    buffer = io.BytesIO()
    dump_table(table, buffer)
    return buffer.getvalue()


def random_records(rng: random.Random, count: int):
    """A random corpus with deliberately overlapping and novel pool values."""
    providers = [f"provider-{i}" for i in range(rng.randint(1, 6))]
    continents = ["EU", "NA", "AS", "SA"]
    records = []
    for _ in range(count):
        ip_version = 6 if rng.random() < 0.25 else 4
        server = (
            f"fd00::{rng.randrange(1, 64):x}"
            if ip_version == 6
            else f"10.{rng.randrange(3)}.{rng.randrange(4)}.{rng.randrange(1, 64)}"
        )
        records.append(
            make_flow(
                timestamp=datetime(2022, 3, 1 + rng.randrange(4), rng.randrange(24)),
                subscriber_id=rng.randrange(200),
                subscriber_prefix=f"prefix-{rng.randrange(12)}",
                ip_version=ip_version,
                provider_key=rng.choice(providers),
                server_ip=server,
                server_continent=rng.choice(continents),
                server_region=f"region-{rng.randrange(5)}",
                transport=rng.choice(("tcp", "udp")),
                port=rng.choice((443, 1883, 5683, 8883)),
                bytes_down=rng.uniform(0.0, 50_000.0),
                bytes_up=rng.uniform(0.0, 5_000.0),
            )
        )
    return records


def random_chunks(rng: random.Random, records):
    """Split a corpus into random contiguous chunks (empty chunks included)."""
    cuts = sorted(rng.randrange(len(records) + 1) for _ in range(rng.randrange(1, 6)))
    bounds = [0, *cuts, len(records)]
    return [records[a:b] for a, b in zip(bounds, bounds[1:])]


def mutate(table: FlowTable, model: list, rng: random.Random) -> FlowTable:
    """Apply one random composition step to ``table`` and ``model`` alike.

    Returns the table to continue on (a ``select_mask`` step replaces it).
    """
    op = rng.randrange(4)
    if op == 0:  # append a fresh random chunk
        chunk = random_records(rng, rng.randrange(0, 60))
        append_records(table, chunk)
        model.extend(chunk)
    elif op == 1 and model:  # re-append a run of our own rows
        lo = rng.randrange(0, len(model))
        hi = rng.randrange(lo, len(model) + 1)
        append_records(table, table.to_records()[lo:hi])
        model.extend(model[lo:hi])
    elif op == 2:  # move rows between groups: new subscriber ids
        ids = [rng.randrange(200) for _ in model]
        table.assign_numeric("subscriber_id", ids)
        model[:] = [replace(record, subscriber_id=id_) for record, id_ in zip(model, ids)]
    else:  # keep a random subset, continue on the selection
        mask = bytearray(1 if rng.random() < 0.7 else 0 for _ in model)
        table = table.select_mask(mask)
        model[:] = [record for record, keep in zip(model, mask) if keep]
    return table


class TestConcat:
    """Tables assembled chunk by chunk through the column-wise append."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat_equals_from_records_byte_for_byte(self, seed):
        """Merging tables built with chunk-local pools yields canonical codes."""
        rng = random.Random(seed)
        records = random_records(rng, rng.randrange(50, 300))
        merged = FlowTable()
        for chunk in random_chunks(rng, records):
            append_records(merged, from_records(chunk).to_records())
        reference = from_records(records)
        assert merged.to_records() == records
        assert table_bytes(merged) == table_bytes(reference), f"seed={seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shared_pool_sources_slices_stay_equivalent(self, seed):
        """Selections share their parent's (larger, differently ordered) pools;
        appending the rows of one must still reproduce the record path exactly."""
        rng = random.Random(seed)
        records = random_records(rng, 200)
        parent = from_records(records)
        lo = rng.randrange(0, 100)
        hi = rng.randrange(lo, 200)
        window = parent.select_mask(bytearray(lo <= index < hi for index in range(200)))
        target = FlowTable()
        append_records(target, window.to_records())
        assert table_bytes(target) == table_bytes(from_records(records[lo:hi]))


class TestStatefulFuzz:
    """A random op sequence against the plain-list reference model."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_composition_sequences(self, seed):
        rng = random.Random(1000 + seed)
        model = []
        table = FlowTable()
        for _step in range(12):
            table = mutate(table, model, rng)
            assert len(table) == len(model), f"seed={seed}"
            assert table.to_records() == model, f"seed={seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_aggregations_interleaved_with_mutations(self, seed):
        """Grouped aggregations between mutations always match a fresh table.

        This drives the GroupIndex cache exactly the way the analyses do --
        aggregate, mutate, aggregate again -- and asserts every result equals
        a recompute on a cache-free ``from_records`` clone, so a
        stale cached grouping can never survive a mutation.  Seeds alternate
        kernel backends so both the fused-python and (when importable) numpy
        paths face the same sequences.
        """
        from repro.flows import kernels

        backends = [kernels.BACKEND_PYTHON]
        if kernels.numpy_available():
            backends.append(kernels.BACKEND_NUMPY)
        kernels.set_backend(backends[seed % len(backends)])
        try:
            rng = random.Random(4000 + seed)
            model = []
            table = FlowTable()
            groupings = (
                ("provider_key",),
                ("provider_key", "timestamp"),
                ("subscriber_id",),
            )

            def check_aggregations():
                fresh = from_records(model)
                by = groupings[rng.randrange(len(groupings))]
                mask = None
                if model and rng.random() < 0.5:
                    mask = bytearray(rng.randrange(2) for _ in model)
                assert table.group_sums(by, ("bytes_down", "bytes_up"), mask=mask) == (
                    fresh.group_sums(by, ("bytes_down", "bytes_up"), mask=mask)
                ), f"seed={seed}"
                assert table.group_distinct_count(by, "server_ip", mask=mask) == (
                    fresh.group_distinct_count(by, "server_ip", mask=mask)
                ), f"seed={seed}"

            check_aggregations()
            for _step in range(10):
                table = mutate(table, model, rng)
                check_aggregations()
        finally:
            kernels.set_backend(None)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_select_mask_and_slice_round_trips(self, seed):
        rng = random.Random(2000 + seed)
        records = random_records(rng, rng.randrange(1, 150))
        table = from_records(records)
        mask = [1 if rng.random() < 0.5 else 0 for _ in records]
        selected = table.select_mask(mask)
        assert selected.to_records() == [r for r, keep in zip(records, mask) if keep]
        lo = rng.randrange(0, len(records))
        hi = rng.randrange(lo, len(records) + 1)
        window = bytearray(lo <= index < hi for index in range(len(records)))
        assert table.select_mask(window).to_records() == records[lo:hi]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat_then_dump_load_round_trip(self, seed):
        from repro.store.codec import load_table

        rng = random.Random(3000 + seed)
        records = random_records(rng, rng.randrange(1, 200))
        merged = FlowTable()
        for chunk in random_chunks(rng, records):
            append_records(merged, chunk)
        assert table_bytes(merged) == table_bytes(from_records(records))
        reloaded = load_table(io.BytesIO(table_bytes(merged)))
        assert reloaded.to_records() == records
        assert table_bytes(reloaded) == table_bytes(merged)
