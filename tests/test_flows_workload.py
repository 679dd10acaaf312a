"""Tests for the workload generator and scanner traffic."""

from collections import Counter
from datetime import date

from repro.core.providers import PROVIDERS
from repro.flows.flowtable import FlowTable
from repro.flows.scanners import append_scanner_flows
from repro.simulation.clock import StudyPeriod
from repro.simulation.rng import RngRegistry

ONE_DAY = StudyPeriod(date(2022, 2, 28), date(2022, 3, 1), name="one-day")


def _generator(world):
    return world.workload_generator()


def _day_without_scanners(world):
    return _generator(world).generate_period_table(ONE_DAY, include_scanners=False)


def test_flows_reference_known_servers_and_subscribers(small_world):
    table = _day_without_scanners(small_world)
    assert len(table)
    servers = small_world.servers_by_ip()
    line_ids = {line.line_id for line in small_world.population.lines}
    for flow in table[:500]:
        assert flow.server_ip in servers
        assert flow.subscriber_id in line_ids
        assert flow.bytes_down >= 0 and flow.bytes_up >= 0
        assert flow.provider_key in {spec.key for spec in PROVIDERS}


def test_devices_only_contact_their_provider(small_world):
    table = _day_without_scanners(small_world)
    servers = small_world.servers_by_ip()
    for flow in table[:500]:
        assert servers[flow.server_ip].provider == flow.provider_key


def test_flows_only_use_dedicated_servers(small_world):
    table = _day_without_scanners(small_world)
    servers = small_world.servers_by_ip()
    assert all(servers[ip].dedicated_iot for ip in table.distinct("server_ip"))


def test_prime_time_activity_higher_in_evening(small_world):
    period = StudyPeriod(date(2022, 3, 2), date(2022, 3, 3), name="one-day")
    table = _generator(small_world).generate_period_table(period, include_scanners=False)
    amazon_per_hour = Counter(flow.timestamp.hour for flow in table.where_provider("amazon"))
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
