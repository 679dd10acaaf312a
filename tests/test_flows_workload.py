"""Tests for the workload generator and scanner traffic."""

import math
import random
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from datetime import date, datetime, time
from itertools import repeat

import pytest

from repro.core.providers import PROVIDERS
from repro.experiments.context import build_context
from repro.flows import kernels
from repro.flows import workload as workload_module
from repro.flows.flowtable import CATEGORICAL_COLUMNS, COLUMN_TYPECODES, NUMERIC_COLUMNS, FlowTable
from repro.flows.netflow import DEFAULT_PACKET_SIZE
from repro.flows.scanners import (
    _SCAN_PACKETS_DOWN,
    _SCAN_PACKETS_UP,
    SCAN_PORTS,
    SCAN_PROBE_BYTES_DOWN,
    SCAN_PROBE_BYTES_UP,
    append_scanner_flows,
)
from repro.flows.workload import _DayDraws, _EncodedPlans, build_flow_columns
from repro.netmodel.geo import CONTINENT_EUROPE, CONTINENT_NORTH_AMERICA
from repro.obs import metrics as obs_metrics
from repro.simulation.clock import AWS_OUTAGE_DATE, StudyPeriod
from repro.simulation.config import ScenarioConfig
from repro.simulation.rng import RngRegistry, stable_hash
from repro.simulation.world import build_world
from repro.store.codec import dumps_table

from flowrows import packets

_NUMERIC_NAMES = tuple(name for name, _typecode in NUMERIC_COLUMNS)

ONE_DAY = StudyPeriod(date(2022, 2, 28), date(2022, 3, 1), name="one-day")
THREE_DAYS = StudyPeriod(date(2022, 2, 28), date(2022, 3, 3), name="three-days")
OUTAGE_DAY = StudyPeriod(AWS_OUTAGE_DATE, date(2021, 12, 8), name="outage-day")


def _generator(world):
    return world.workload_generator()


def _day_without_scanners(world):
    return _generator(world).generate_period_table(ONE_DAY, include_scanners=False)


def test_flows_reference_known_servers_and_subscribers(small_world):
    table = _day_without_scanners(small_world)
    assert len(table)
    servers = small_world.servers_by_ip()
    line_ids = {line.line_id for line in small_world.population.lines}
    for flow in table.to_records()[:500]:
        assert flow.server_ip in servers
        assert flow.subscriber_id in line_ids
        assert flow.bytes_down >= 0 and flow.bytes_up >= 0
        assert flow.provider_key in {spec.key for spec in PROVIDERS}


def test_devices_only_contact_their_provider(small_world):
    table = _day_without_scanners(small_world)
    servers = small_world.servers_by_ip()
    for flow in table.to_records()[:500]:
        assert servers[flow.server_ip].provider == flow.provider_key


def test_flows_only_use_dedicated_servers(small_world):
    table = _day_without_scanners(small_world)
    servers = small_world.servers_by_ip()
    assert all(servers[ip].dedicated_iot for ip in table.distinct("server_ip"))


def test_prime_time_activity_higher_in_evening(small_world):
    period = StudyPeriod(date(2022, 3, 2), date(2022, 3, 3), name="one-day")
    table = _generator(small_world).generate_period_table(period, include_scanners=False)
    amazon = table.select_mask(table.mask_code("provider_key", lambda key: key == "amazon"))
    amazon_per_hour = Counter(flow.timestamp.hour for flow in amazon.to_records())
    assert amazon_per_hour[20] > amazon_per_hour[3]


def test_generate_period_covers_all_days(small_world):
    period = StudyPeriod(date(2022, 2, 28), date(2022, 3, 2))
    table = _generator(small_world).generate_period_table(period, include_scanners=False)
    days = {timestamp.date() for timestamp in table.distinct("timestamp")}
    assert days == set(period.days())


def test_columnar_period_is_deterministic(small_world):
    period = StudyPeriod(date(2022, 2, 28), date(2022, 3, 1))
    table_a = _generator(small_world).generate_period_table(period)
    table_b = _generator(small_world).generate_period_table(period)
    assert table_a.to_records() == table_b.to_records()


def test_scanner_flows_touch_many_servers(small_world):
    generator = _generator(small_world)
    catalog = generator.server_catalog(ip_version=4)
    scanners = small_world.population.scanner_lines()
    table = FlowTable()
    appended = append_scanner_flows(table, scanners, catalog, date(2022, 2, 28), RngRegistry(5))
    assert appended == len(table) > 0
    per_line = table.group_distinct(("subscriber_id",), "server_ip")
    # Each scanner touches a large fraction of the catalog.
    for ips in per_line.values():
        assert len(ips) >= 0.5 * len(catalog)


def test_server_catalog_families(small_world):
    generator = _generator(small_world)
    assert all(":" not in ip for _, ip, _, _ in generator.server_catalog(4))
    assert all(":" in ip for _, ip, _, _ in generator.server_catalog(6))


def test_flows_use_a_port_of_their_providers_device_model(small_world):
    # The generator's own cumulative-weight port roll, on the production path.
    allowed = {}
    for line in small_world.population.lines:
        for device in line.devices:
            allowed.setdefault(device.provider_key, set()).update(device.model.ports())
    table = _day_without_scanners(small_world)
    keys = table.group_sum(("provider_key", "transport", "port"), "bytes_down")
    assert keys
    for provider_key, transport, port in keys:
        assert (transport, port) in allowed[provider_key]


def _stdlib_hour_oracle(generator, table, when, hits):
    """One generation hour written on the stdlib helpers (test oracle).

    Reads ``_device_plans()`` and draws with ``randrange`` and
    ``lognormvariate``, as the generator did before it inlined them on
    ``getrandbits`` and ``random``.  ``hits`` counts the branches taken.
    """
    stream = generator.rng.fresh_stream(f"workload:{when.isoformat()}")
    schedule = generator.outage_schedule
    has_outage = any(event.active_at(when) for event in schedule.events())
    timestamp_code = table.encode_value("timestamp", when)
    correction = math.exp(-(generator.volume_sigma**2) / 2.0)
    encode = table.encode_value
    rows = []
    for plan in generator._device_plans():
        if stream.random() >= plan.probabilities[when.hour]:
            continue
        if not plan.candidates:
            continue
        hits[f"n={len(plan.candidates)}"] += 1
        pick = stream.randrange(len(plan.candidates))
        choice = plan.candidates[pick]
        traffic_factor = 1.0
        if has_outage:
            device_factor = schedule.device_factor(choice.cloud_host, choice.region_code, when)
            if device_factor < 1.0:
                hits["outage_roll"] += 1
                if stream.random() > device_factor:
                    continue
            traffic_factor = schedule.traffic_factor(choice.cloud_host, choice.region_code, when)
        volume_factor = stream.lognormvariate(0.0, generator.volume_sigma) * correction
        volume_factor *= plan.multiplier
        bytes_down = plan.per_hour_down * volume_factor * traffic_factor
        bytes_up = plan.per_hour_up * volume_factor * traffic_factor
        cumulative = plan.port_cumulative
        index = bisect_right(cumulative, stream.random() * cumulative[-1])
        transport, port = plan.port_pairs[min(index, len(cumulative) - 1)]
        rows.append(
            (
                timestamp_code,
                encode("subscriber_prefix", plan.prefix),
                encode("provider_key", plan.provider_key),
                encode("server_ip", choice.ip),
                encode("server_continent", choice.continent),
                encode("server_region", choice.region_code),
                encode("transport", transport),
                plan.line_id,
                plan.versions[pick],
                port,
                bytes_down,
                bytes_up,
                packets(bytes_down),
                packets(bytes_up),
                0,
            )
        )
    columns = list(zip(*rows)) if rows else [()] * 15
    table.append_columns(
        len(rows),
        codes=dict(zip(CATEGORICAL_COLUMNS, columns[:7])),
        numeric=dict(zip((name for name, _typecode in NUMERIC_COLUMNS), columns[7:])),
    )


def _interned_plans(generator) -> FlowTable:
    """An empty table holding the plan values in the generator's order.

    Each pool gets its values in the order the rows first reference them,
    device by device in population order.
    """
    table = FlowTable()
    for plan in generator._device_plans():
        for choice in plan.candidates:
            table.encode_value("server_ip", choice.ip)
            table.encode_value("server_continent", choice.continent)
            table.encode_value("server_region", choice.region_code)
        table.encode_value("subscriber_prefix", plan.prefix)
        table.encode_value("provider_key", plan.provider_key)
        for transport, _port in plan.port_pairs:
            table.encode_value("transport", transport)
    return table


def _stdlib_period_oracle(generator, period, hits):
    # Intern the plan values in the generator's order, so the pools match.
    table = _interned_plans(generator)
    for day in period.days():
        for hour in range(24):
            _stdlib_hour_oracle(generator, table, datetime.combine(day, time(hour=hour)), hits)
    return table


@pytest.fixture()
def kernel_backend(request):
    """Force the parametrized kernel backend for one test."""
    if request.param == kernels.BACKEND_NUMPY and not kernels.numpy_available():
        pytest.skip("numpy not importable")
    kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend(None)


@pytest.mark.parametrize(
    "kernel_backend", (kernels.BACKEND_PYTHON, kernels.BACKEND_NUMPY), indirect=True
)
@pytest.mark.parametrize("seed", (3, 11, 29))
def test_generation_matches_the_stdlib_draws(seed, kernel_backend):
    hits = Counter()
    for servers_per_device in (1, 2):
        # At scale 0.02 the globally load-balanced provider has more than
        # eight servers, so two servers per device spread it over eight.
        config = ScenarioConfig.small(seed).with_overrides(
            scale=0.02, servers_per_device=servers_per_device
        )
        generator = build_world(config).workload_generator()
        produced = generator.generate_period_table(OUTAGE_DAY, include_scanners=False)
        expected = _stdlib_period_oracle(generator, OUTAGE_DAY, hits)
        assert len(produced) == len(expected) > 0
        assert dumps_table(produced) == dumps_table(expected)
    # One candidate, the globally load-balanced provider's eight, and the
    # outage roll of a device factor < 1 were all drawn.
    assert hits["n=1"] and hits["n=8"] and hits["outage_roll"], hits


def test_generators_of_one_world_share_their_device_plans(small_world):
    first = small_world.workload_generator()
    second = small_world.workload_generator()
    assert first._device_plans() is second._device_plans()
    # Each generator still gets its own registry: its scanner stream starts
    # afresh every period.
    assert first.rng is not second.rng


def test_period_tables_do_not_depend_on_the_generation_order():
    config = ScenarioConfig.small(5).with_overrides(scale=0.02)
    periods = (config.study_period, config.outage_period)
    tables = []
    for order in (periods, periods[::-1]):
        world = build_world(config)
        tables.append(
            {
                period.start: dumps_table(world.workload_generator().generate_period_table(period))
                for period in order
            }
        )
    assert tables[0] == tables[1]


# -- column builders -------------------------------------------------------------


#: The smallest positive double: its flows have bytes > 0 whose packet
#: quotient underflows to 0, so ``ceil(...) or 1`` decides their count.
_TINY = 5e-324


def _random_plan(rng: random.Random) -> _EncodedPlans:
    """An encoded plan of a few devices with the builders' edge cases in reach."""
    sigma = rng.choice((0.3, 0.75, 1.5))
    plan = _EncodedPlans(
        hour_probabilities=tuple([] for _hour in range(24)),
        volume_sigma=sigma,
        volume_correction=math.exp(-(sigma**2) / 2.0),
    )
    # Port table 0 ends in a zero-weight port; others may be all zeros.
    for table in range(rng.randint(1, 4)):
        weights = [rng.choice((0.0, rng.uniform(0.01, 1.0))) for _ in range(rng.randint(1, 6))]
        if table == 0:
            weights = [rng.uniform(0.01, 1.0), *weights[1:], 0.0]
        cumulative = []
        total = 0.0
        for weight in weights:
            total += weight
            cumulative.append(total)
        plan.port_cumulative.append(tuple(cumulative))
        plan.port_transport.append(tuple(rng.randrange(3) for _ in weights))
        plan.port_number.append(tuple(rng.randrange(1, 65536) for _ in weights))
    for _device in range(rng.randint(1, 6)):
        n = rng.choice((1, 2, 3, 8))
        plan.candidate_count.append(n)
        plan.pick_bits.append(n.bit_length())
        plan.first_candidate.append(len(plan.server_ip))
        device = (
            rng.randrange(2**40),
            rng.randrange(20),
            rng.randrange(16),
            rng.choice((_TINY, 0.0, rng.uniform(1.0, 5e6))),
            rng.choice((_TINY, 0.0, rng.uniform(1.0, 5e5))),
            rng.choice((1.0, 4.0 + rng.randrange(9))),
            rng.randrange(len(plan.port_cumulative)),
        )
        for _ in range(n):
            plan.server_ip.append(rng.randrange(40))
            plan.server_continent.append(rng.randrange(4))
            plan.server_region.append(rng.randrange(9))
            plan.ip_version.append(rng.choice((4, 6)))
            for column, value in zip(
                (
                    plan.line_id,
                    plan.prefix,
                    plan.provider,
                    plan.per_hour_down,
                    plan.per_hour_up,
                    plan.multiplier,
                    plan.port_table,
                ),
                device,
            ):
                column.append(value)
    return plan


def _random_draws(rng: random.Random, plan: _EncodedPlans) -> _DayDraws:
    """One day of draws over a plan; ``port_u`` may be 0.0 or 1.0 exactly."""
    draws = _DayDraws()
    for hour in range(24):
        count = rng.randrange(6)
        for _ in range(count):
            draws.candidate.append(rng.randrange(len(plan.server_ip)))
            draws.z.append(rng.uniform(-12.0, 12.0))
            draws.port_u.append(rng.choice((0.0, 1.0, rng.random(), rng.random())))
            draws.traffic_factor.append(rng.choice((1.0, 0.0, rng.random())))
        draws.hours.append((rng.randrange(100), count))
    return draws


def _count_edge_cases(plan: _EncodedPlans, draws: _DayDraws, columns, hits: Counter) -> None:
    bytes_down, packets_down = columns[10], columns[12]
    for row, (candidate, port_u, factor) in enumerate(
        zip(draws.candidate, draws.port_u, draws.traffic_factor)
    ):
        device = bisect_right(plan.first_candidate, candidate) - 1
        hits[f"n={plan.candidate_count[device]}"] += 1
        cumulative = plan.port_cumulative[plan.port_table[candidate]]
        if bisect_right(cumulative, port_u * cumulative[-1]) == len(cumulative):
            zero_last = len(cumulative) > 1 and cumulative[-1] == cumulative[-2]
            hits["clamp, zero-weight last port" if zero_last else "clamp"] += 1
        if 0.0 < factor < 1.0:
            hits["traffic factor < 1"] += 1
        if bytes_down[row] == 0.0:
            hits["zero bytes"] += 1
            assert packets_down[row] == 0
        elif bytes_down[row] / DEFAULT_PACKET_SIZE == 0.0:
            hits["tiny bytes"] += 1
            assert packets_down[row] == 1


def test_column_builders_agree_byte_for_byte():
    """Random draws through both builders give the same column bytes."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    from repro.flows import kernels_np

    hits = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        plan = _random_plan(rng)
        draws = _random_draws(rng, plan)
        expected = build_flow_columns(plan, draws)
        got = kernels_np.build_flow_columns(plan, draws)
        assert [column.typecode for column in got] == list(COLUMN_TYPECODES)
        assert [column.typecode for column in expected] == list(COLUMN_TYPECODES)
        for name, want, have in zip(CATEGORICAL_COLUMNS + _NUMERIC_NAMES, expected, got):
            assert want.tobytes() == have.tobytes(), f"seed {seed}: column {name} differs"
        _count_edge_cases(plan, draws, expected, hits)
    for case in (
        "n=1",
        "n=8",
        "clamp",
        "clamp, zero-weight last port",
        "traffic factor < 1",
        "zero bytes",
        "tiny bytes",
    ):
        assert hits[case], (case, hits)
    # A day without flows builds fifteen empty columns on both.
    draws = _DayDraws(hours=[(0, 0)] * 24)
    for columns in (build_flow_columns(plan, draws), kernels_np.build_flow_columns(plan, draws)):
        assert [(column.typecode, len(column)) for column in columns] == [
            (typecode, 0) for typecode in COLUMN_TYPECODES
        ]


def test_numpy_column_builder_hands_unsafe_inputs_to_python():
    """Where counting and ``bisect_right`` or int64 packets could differ, python decides."""
    if not kernels.numpy_available():
        pytest.skip("numpy not importable")
    from repro.flows import kernels_np

    rng = random.Random(1)
    plan = _random_plan(rng)
    draws = _random_draws(rng, plan)
    decreasing = replace(plan, port_cumulative=[(0.5, 0.25)] * len(plan.port_cumulative))
    huge = replace(plan, per_hour_down=array("d", [1e300] * len(plan.line_id)))
    was_enabled = obs_metrics.enabled()
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    obs_metrics.enable()
    try:
        assert kernels_np.build_flow_columns(decreasing, draws) is NotImplemented
        assert kernels_np.build_flow_columns(huge, draws) is NotImplemented
        counters = obs_metrics.registry().counters()
    finally:
        if not was_enabled:
            obs_metrics.disable()
        obs_metrics.set_registry(previous)
    assert counters["kernels.fallbacks.flow_columns.port_weights"] == 1
    assert counters["kernels.fallbacks.flow_columns.packet_range"] == 1


def test_generation_counts_its_rows_while_metrics_are_on(small_config, small_world):
    """A cold context's ``gen.rows`` is the sum of both periods' generated lengths."""
    periods = (small_config.study_period, small_config.outage_period)
    expected = sum(
        len(small_world.workload_generator().generate_period_table(period)) for period in periods
    )
    was_enabled = obs_metrics.enabled()
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    obs_metrics.enable()
    try:
        context = build_context(small_config, use_cache=False)
        for period in periods:
            context.raw_table(period)
        counted = obs_metrics.registry().counter("gen.rows")
    finally:
        if not was_enabled:
            obs_metrics.disable()
        obs_metrics.set_registry(previous)
    assert counted == expected


# -- candidate pools, one encoding per world ---------------------------------------


def _per_device_candidate_servers(generator, device, ip_version):
    """The candidate subset with every pool rebuilt per device (test oracle)."""
    by_version = generator._choices.get(device.provider_key, {})
    pools = by_version.get(ip_version) or by_version.get(4) or {}
    if not pools:
        return []
    model = device.model
    all_choices = [choice for choices in pools.values() for choice in choices]
    if model.global_server_selection:
        spread_pool = [
            c for c in all_choices if c.continent in (CONTINENT_EUROPE, CONTINENT_NORTH_AMERICA)
        ] or all_choices
        return generator._hash_subset(
            device.device_id, spread_pool, generator.servers_per_device * 4
        )
    eu_pool = pools.get(CONTINENT_EUROPE, [])
    remote_pool = [c for c in all_choices if c.continent != CONTINENT_EUROPE]
    assigned_to_eu = bool(eu_pool) and (
        not remote_pool
        or stable_hash(device.device_id + ":region", 1000) < int(model.eu_share * 1000)
    )
    if assigned_to_eu:
        pool = eu_pool
    else:
        na_pool = [c for c in remote_pool if c.continent == CONTINENT_NORTH_AMERICA]
        entry_pool = na_pool or remote_pool or eu_pool
        entry_count = max(generator.servers_per_device, len(entry_pool) // 8)
        pool = generator._hash_subset(
            device.provider_key + ":remote-entry", entry_pool, entry_count
        )
    if not pool:
        pool = all_choices
    return generator._hash_subset(device.device_id, pool, generator.servers_per_device)


@pytest.mark.parametrize("scale", (None, 0.02))
@pytest.mark.parametrize("servers_per_device", (1, 2))
def test_candidate_pools_match_the_per_device_oracle(scale, servers_per_device):
    config = ScenarioConfig.small(7).with_overrides(servers_per_device=servers_per_device)
    if scale is not None:
        config = config.with_overrides(scale=scale)
    world = build_world(config)
    generator = world.workload_generator()
    plans = generator._device_plans()
    devices = [(line, device) for line in world.population.lines for device in line.devices]
    assert len(plans) == len(devices)
    remote = global_selection = 0
    for plan, (line, device) in zip(plans, devices):
        expected = _per_device_candidate_servers(generator, device, line.ip_version)
        assert list(plan.candidates) == expected
        global_selection += device.model.global_server_selection
        remote += any(choice.continent != CONTINENT_EUROPE for choice in expected)
    # Both kinds of provider, and remote-assigned devices, were resolved.
    assert global_selection and remote


@pytest.mark.parametrize(
    "kernel_backend", (kernels.BACKEND_PYTHON, kernels.BACKEND_NUMPY), indirect=True
)
def test_plans_are_encoded_once_per_world(kernel_backend):
    config = ScenarioConfig.small(5).with_overrides(scale=0.02)
    world = build_world(config)
    first, second = world.workload_generator(), world.workload_generator()
    first.generate_period_table(config.study_period)
    later = second.generate_period_table(config.outage_period)
    assert first._encoded_plans() is second._encoded_plans()
    fresh = build_world(config).workload_generator().generate_period_table(config.outage_period)
    assert dumps_table(later) == dumps_table(fresh)
    # Each pool starts with the plan values in the order their rows first
    # reference them, as when the plans are encoded into the table itself.
    interned = _interned_plans(first)
    for table in (later, fresh):
        for name in CATEGORICAL_COLUMNS:
            expected = interned.pool(name)
            assert table.pool(name)[: len(expected)] == expected, name


# -- scanner flows ------------------------------------------------------------------


def _randrange_scan_plans(scanner_lines, catalog, rng, coverage_range):
    """The scanner draws on ``randrange`` (test oracle for the inlined loops)."""
    stream = rng.stream("scanner-traffic")
    plans = []
    catalog = list(catalog)
    if not catalog:
        return plans
    low, high = coverage_range
    n_ports = len(SCAN_PORTS)
    for line in scanner_lines:
        if not line.is_scanner:
            continue
        coverage = stream.uniform(low, high)
        n_targets = max(1, int(round(coverage * len(catalog))))
        targets = stream.sample(catalog, n_targets)
        hours = []
        port_indexes = []
        for _ in range(n_targets):
            hours.append(stream.randrange(24))
            port_indexes.append(stream.randrange(n_ports))
        plans.append((line, targets, hours, port_indexes))
    return plans


def _per_row_scanner_flows(
    table, scanner_lines, server_catalog, day, rng, coverage_range=(0.6, 0.95)
):
    """One day of scan traffic appended row by row (test oracle).

    Encodes each hour and target the first time a row references it.
    """
    plans = _randrange_scan_plans(scanner_lines, server_catalog, rng, coverage_range)
    if not plans:
        return 0
    encode = table.encode_value
    timestamp_codes = {}
    target_codes = {}
    port_columns = [(encode("transport", transport), port) for transport, port in SCAN_PORTS]
    timestamp_column = []
    prefix_codes = []
    provider_codes = []
    ip_codes = []
    continent_codes = []
    region_codes = []
    transport_codes = []
    subscriber_ids = []
    ip_versions = []
    ports = []
    count = 0
    for line, targets, hours, port_indexes in plans:
        prefix_code = encode("subscriber_prefix", line.isp_prefix)
        line_id = line.line_id
        version = line.ip_version
        for target, hour, port_index in zip(targets, hours, port_indexes):
            timestamp_code = timestamp_codes.get(hour)
            if timestamp_code is None:
                timestamp_code = timestamp_codes[hour] = encode(
                    "timestamp", datetime.combine(day, time(hour=hour))
                )
            codes = target_codes.get(target)
            if codes is None:
                provider_key, server_ip, continent, region_code = target
                codes = target_codes[target] = (
                    encode("provider_key", provider_key),
                    encode("server_ip", server_ip),
                    encode("server_continent", continent),
                    encode("server_region", region_code),
                )
            transport_code, port = port_columns[port_index]
            timestamp_column.append(timestamp_code)
            prefix_codes.append(prefix_code)
            provider_codes.append(codes[0])
            ip_codes.append(codes[1])
            continent_codes.append(codes[2])
            region_codes.append(codes[3])
            transport_codes.append(transport_code)
            subscriber_ids.append(line_id)
            ip_versions.append(version)
            ports.append(port)
            count += 1
    table.append_columns(
        count,
        codes={
            "timestamp": timestamp_column,
            "subscriber_prefix": prefix_codes,
            "provider_key": provider_codes,
            "server_ip": ip_codes,
            "server_continent": continent_codes,
            "server_region": region_codes,
            "transport": transport_codes,
        },
        numeric={
            "subscriber_id": subscriber_ids,
            "ip_version": ip_versions,
            "port": ports,
            "bytes_down": repeat(SCAN_PROBE_BYTES_DOWN, count),
            "bytes_up": repeat(SCAN_PROBE_BYTES_UP, count),
            "packets_down": repeat(_SCAN_PACKETS_DOWN, count),
            "packets_up": repeat(_SCAN_PACKETS_UP, count),
            "sampled": repeat(0, count),
        },
    )
    return count


@pytest.mark.parametrize("seed", (3, 11, 29))
def test_scanner_flows_match_the_randrange_oracle(seed, monkeypatch):
    world = build_world(ScenarioConfig.small(seed))
    generator = world.workload_generator()
    catalog = generator.server_catalog(ip_version=4)
    scanners = world.population.scanner_lines()
    assert scanners and catalog
    # Fresh tables, three consecutive days on one registry each: the
    # scanner-traffic stream carries its state from one day to the next.
    tables = (FlowTable(), FlowTable())
    registries = (RngRegistry(seed), RngRegistry(seed))
    for day in THREE_DAYS.days():
        counts = [
            append(table, scanners, catalog, day, rng)
            for append, table, rng in zip(
                (append_scanner_flows, _per_row_scanner_flows), tables, registries
            )
        ]
        assert counts[0] == counts[1] > 0
        assert dumps_table(tables[0]) == dumps_table(tables[1])
    # Tables that already hold each day's device flows, as the generator
    # appends them.
    produced = world.workload_generator().generate_period_table(THREE_DAYS)
    monkeypatch.setattr(workload_module, "append_scanner_flows", _per_row_scanner_flows)
    expected = world.workload_generator().generate_period_table(THREE_DAYS)
    assert len(produced) > len(tables[0])
    assert dumps_table(produced) == dumps_table(expected)
