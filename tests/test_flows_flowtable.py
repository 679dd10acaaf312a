"""Round-trip and aggregation-parity tests for the columnar FlowTable."""

import random
from dataclasses import replace
from datetime import date, datetime

import pytest

from repro.core import traffic
from repro.flows import kernels
from repro.flows.anonymize import AnonymizationMap
from repro.flows.flowtable import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS, FlowTable
from repro.protocols.ports import port_label
from repro.store.codec import dumps_table, loads_table

from flowrows import append_records, columns_of, from_records, make_flow

BASE_DAY = date(2022, 3, 1)
ANON = AnonymizationMap.build()


def generate_records(count=400, seed=13):
    """A deterministic mixed corpus of flow records."""
    rng = random.Random(seed)
    providers = ("amazon", "google", "microsoft", "bosch")
    continents = ("EU", "NA", "AS")
    records = []
    for i in range(count):
        provider = providers[rng.randrange(len(providers))]
        ip_version = 6 if rng.random() < 0.3 else 4
        server = (
            f"fd00::{rng.randrange(1, 40):x}" if ip_version == 6 else f"10.0.{rng.randrange(4)}.{rng.randrange(1, 40)}"
        )
        records.append(
            make_flow(
                timestamp=datetime(2022, 3, 1 + rng.randrange(3), rng.randrange(24)),
                subscriber_id=rng.randrange(60),
                subscriber_prefix=f"prefix-{rng.randrange(8)}",
                ip_version=ip_version,
                provider_key=provider,
                server_ip=server,
                server_continent=continents[rng.randrange(len(continents))],
                server_region="eu-west-1",
                transport="tcp" if rng.random() < 0.8 else "udp",
                port=rng.choice((443, 8883, 5683, 61616)),
                bytes_down=round(rng.uniform(100, 50000), 2),
                bytes_up=round(rng.uniform(10, 5000), 2),
            )
        )
    return records


@pytest.fixture(scope="module")
def records():
    return generate_records()


@pytest.fixture(scope="module")
def table(records):
    return from_records(records)


class TestRoundTrip:
    def test_to_records_is_lossless(self, records, table):
        assert len(table) == len(records)
        assert table.to_records() == records

    def test_sequence_protocol(self, records, table):
        assert table.record_at(0) == records[0]
        assert table.record_at(-1) == records[-1]
        assert [table.record_at(index) for index in range(10)] == records[:10]
        with pytest.raises(IndexError):
            table.record_at(len(records))

    def test_sampled_flag_round_trips(self):
        flow = generate_records(1)[0]
        sampled = replace(flow, sampled=True)
        rebuilt = from_records([sampled]).to_records()[0]
        assert rebuilt.sampled is True
        assert rebuilt == sampled

    def test_column_decoding(self, records, table):
        pool = table.pool("provider_key")
        assert [pool[code] for code in table.codes("provider_key")] == [
            r.provider_key for r in records
        ]
        assert list(table.numeric("bytes_down")) == [r.bytes_down for r in records]
        assert list(table.numeric("sampled")) == [int(r.sampled) for r in records]


class TestBuilderApi:
    def test_append_columns_matches_from_records(self, records):
        built = FlowTable()
        codes, numeric = columns_of(built, records)
        built.append_columns(len(records), codes, numeric)
        assert built.to_records() == records

    def test_append_columns_is_atomic_on_length_mismatch(self, records):
        built = FlowTable()
        codes, numeric = columns_of(built, records[:4])
        built.append_columns(4, codes, numeric)
        bad_codes, bad_numeric = columns_of(built, records[4:8])
        bad_numeric["bytes_up"] = bad_numeric["bytes_up"][:-1]  # short column
        with pytest.raises(ValueError):
            built.append_columns(4, bad_codes, bad_numeric)
        # The failed batch left no partial rows behind.
        assert len(built) == 4
        assert built.to_records() == records[:4]

    def test_append_columns_is_atomic_when_a_value_fails_mid_batch(self, records):
        """A bad value leaves no partial rows behind in any column."""
        amazon, google, siemens = (
            replace(records[0], provider_key=key, port=port)
            for key, port in (("amazon", 443), ("google", 443), ("siemens", 80))
        )
        built = from_records([amazon])
        with pytest.raises(TypeError):
            append_records(built, [google, replace(records[1], port="bad")])
        assert built.to_records() == [amazon]
        for name in CATEGORICAL_COLUMNS:
            assert len(built.codes(name)) == len(built), name
        for name, _typecode in NUMERIC_COLUMNS:
            assert len(built.numeric(name)) == len(built), name
        assert loads_table(dumps_table(built)).to_records() == [amazon]
        append_records(built, [siemens])
        assert built.to_records() == [amazon, siemens]

    def test_assign_numeric_validates_length(self, records):
        built = from_records(records[:6])
        built.assign_numeric("bytes_down", [1.0] * 6)
        assert list(built.numeric("bytes_down")) == [1.0] * 6
        with pytest.raises(ValueError):
            built.assign_numeric("bytes_down", [1.0] * 5)


class TestFilters:
    """Each filter in the form the analyses use: a row mask into ``select_mask``."""

    def test_where_day(self, records, table):
        expected = [r for r in records if r.timestamp.date() == BASE_DAY]
        assert table.select_mask(table.mask_day(BASE_DAY)).to_records() == expected

    def test_where_provider_and_ip_version(self, records, table):
        expected = [r for r in records if r.provider_key == "amazon"]
        amazon = table.mask_code("provider_key", lambda key: key == "amazon")
        assert table.select_mask(amazon).to_records() == expected
        expected6 = [r for r in records if r.ip_version == 6]
        v6 = kernels.not_in_mask(table.numeric("ip_version"), {4})
        assert table.select_mask(v6).to_records() == expected6

    def test_exclude_subscribers(self, records, table):
        excluded = {1, 2, 3}
        expected = [r for r in records if r.subscriber_id not in excluded]
        assert table.exclude_subscribers(excluded).to_records() == expected
        assert table.exclude_subscribers(set()) is table

    def test_restrict_server_ips(self, records, table):
        allowed = {records[0].server_ip, records[1].server_ip}
        expected = [r for r in records if r.server_ip in allowed]
        assert table.select_mask(table.mask_server_ips(allowed)).to_records() == expected

    def test_masks_match_filters(self, records, table):
        day_mask = table.mask_day(BASE_DAY)
        assert list(day_mask) == [1 if r.timestamp.date() == BASE_DAY else 0 for r in records]
        v6_mask = kernels.not_in_mask(table.numeric("ip_version"), {4})
        assert list(v6_mask) == [1 if r.ip_version == 6 else 0 for r in records]
        allowed = {records[0].server_ip}
        ip_mask = table.mask_server_ips(allowed)
        assert list(ip_mask) == [1 if r.server_ip in allowed else 0 for r in records]

    def test_masked_group_sum(self, records, table):
        mask = table.mask_day(BASE_DAY)
        naive = {}
        for r in records:
            if r.timestamp.date() != BASE_DAY:
                continue
            naive[r.subscriber_id] = naive.get(r.subscriber_id, 0.0) + r.bytes_down
        grouped = table.group_sum(("subscriber_id",), "bytes_down", mask=mask)
        assert set(grouped) == set(naive)
        for key, value in naive.items():
            assert grouped[key] == pytest.approx(value)

    def test_masked_group_distinct(self, records, table):
        mask = kernels.not_in_mask(table.numeric("ip_version"), {6})
        naive = {}
        for r in records:
            if r.ip_version != 4:
                continue
            naive.setdefault(r.provider_key, set()).add(r.server_ip)
        assert table.group_distinct(("provider_key",), "server_ip", mask=mask) == naive

    def test_filters_chain(self, records, table):
        expected = [
            r
            for r in records
            if r.timestamp.date() == BASE_DAY and r.provider_key == "google"
        ]
        day = table.select_mask(table.mask_day(BASE_DAY))
        google = day.mask_code("provider_key", lambda key: key == "google")
        assert day.select_mask(google).to_records() == expected


class TestGroupedAggregation:
    def test_group_sum_by_provider(self, records, table):
        naive = {}
        for r in records:
            naive[r.provider_key] = naive.get(r.provider_key, 0.0) + r.bytes_down
        grouped = table.group_sum(("provider_key",), "bytes_down")
        assert set(grouped) == set(naive)
        for key, value in naive.items():
            assert grouped[key] == pytest.approx(value)

    def test_group_sums_by_provider_hour(self, records, table):
        naive = {}
        for r in records:
            bucket = naive.setdefault((r.provider_key, r.timestamp), [0.0, 0.0])
            bucket[0] += r.bytes_down
            bucket[1] += r.bytes_up
        grouped = table.group_sums(("provider_key", "timestamp"), ("bytes_down", "bytes_up"))
        assert set(grouped) == set(naive)
        for key, (down, up) in naive.items():
            assert grouped[key][0] == pytest.approx(down)
            assert grouped[key][1] == pytest.approx(up)

    def test_group_sum_by_subscriber_and_port(self, records, table):
        naive = {}
        for r in records:
            key = (r.subscriber_id, r.port)
            naive[key] = naive.get(key, 0.0) + r.bytes_up
        grouped = table.group_sum(("subscriber_id", "port"), "bytes_up")
        assert set(grouped) == set(naive)

    def test_group_distinct_continent_pairs(self, records, table):
        naive = {}
        for r in records:
            naive.setdefault(r.subscriber_id, set()).add(r.server_continent)
        assert table.group_distinct(("subscriber_id",), "server_continent") == naive

    def test_group_distinct_count(self, records, table):
        naive = {}
        for r in records:
            naive.setdefault((r.provider_key, r.ip_version), set()).add(r.subscriber_id)
        counts = table.group_distinct_count(("provider_key", "ip_version"), "subscriber_id")
        assert counts == {key: len(values) for key, values in naive.items()}

    def test_distinct_and_total(self, records, table):
        assert table.distinct("server_ip") == {r.server_ip for r in records}
        assert table.distinct("subscriber_id") == {r.subscriber_id for r in records}
        assert table.total("bytes_down") == pytest.approx(sum(r.bytes_down for r in records))


class TestTrafficAnalysisParity:
    """The Section 5 analyses on a table agree with naive per-record loops."""

    def test_volume_timeseries(self, records, table):
        expected = {}
        for r in records:
            per_hour = expected.setdefault(ANON.label(r.provider_key), {})
            per_hour[r.timestamp] = per_hour.get(r.timestamp, 0.0) + r.bytes_down
        # Same additions in the same row order: equal, not just close.
        assert traffic.volume_timeseries(table, ANON) == expected

    def test_activity_timeseries(self, records, table):
        lines = {}
        for r in records:
            per_hour = lines.setdefault(ANON.label(r.provider_key), {})
            per_hour.setdefault(r.timestamp, set()).add(r.subscriber_id)
        expected = {
            label: {when: len(ids) for when, ids in per_hour.items()}
            for label, per_hour in lines.items()
        }
        assert traffic.activity_timeseries(table, ANON) == expected

    def test_port_mix(self, records, table):
        volume = {}
        for r in records:
            per_port = volume.setdefault(ANON.label(r.provider_key), {})
            label = port_label(r.transport, r.port)
            per_port[label] = per_port.get(label, 0.0) + r.bytes_down + r.bytes_up
        expected = {
            label: {port: bytes_ / sum(per_port.values()) for port, bytes_ in per_port.items()}
            for label, per_port in volume.items()
        }
        mix = traffic.port_mix(table, ANON)
        # The table sums each direction per group before adding them, the loop
        # adds per row: the shares agree to rounding.
        assert mix.keys() == expected.keys()
        for label, shares in expected.items():
            assert mix[label] == pytest.approx(shares)

    def test_region_crossing(self, records, table):
        continents = {}
        traffic_by_continent = {}
        for r in records:
            continents.setdefault(r.subscriber_id, set()).add(r.server_continent)
            traffic_by_continent[r.server_continent] = (
                traffic_by_continent.get(r.server_continent, 0.0) + r.bytes_down + r.bytes_up
            )
        categories = [traffic._categorize_continents(c) for c in continents.values()]
        total_bytes = sum(traffic_by_continent.values())
        report = traffic.region_crossing(table)
        assert report.lines_total == len(continents)
        assert report.line_categories == {
            category: categories.count(category) / len(continents)
            for category in traffic.REGION_CATEGORIES
        }
        assert report.traffic_by_continent == pytest.approx(
            {continent: bytes_ / total_bytes for continent, bytes_ in traffic_by_continent.items()}
        )

    def test_scanner_exclusion(self, records, table):
        backend = {r.server_ip for r in records if r.ip_version == 4}
        contacts = {}
        for r in records:
            if r.server_ip in backend:
                contacts.setdefault(r.subscriber_id, set()).add(r.server_ip)
        exclusion = traffic.ScannerExclusion(table, backend)
        assert exclusion.contacts_per_line() == {line: len(ips) for line, ips in contacts.items()}
        scanners = {line for line, ips in contacts.items() if len(ips) > 3}
        assert exclusion.scanner_lines(3) == scanners
        clean = table.exclude_subscribers(scanners)
        assert clean.to_records() == [r for r in records if r.subscriber_id not in scanners]

    def test_per_subscriber_daily_volume(self, records, table):
        down, up = {}, {}
        for r in records:
            if r.timestamp.date() == BASE_DAY:
                down[r.subscriber_id] = down.get(r.subscriber_id, 0.0) + r.bytes_down
                up[r.subscriber_id] = up.get(r.subscriber_id, 0.0) + r.bytes_up
        down_dist, up_dist = traffic.per_subscriber_daily_volume(table, BASE_DAY, 2)
        assert down_dist.values == sorted(volume * 2 for volume in down.values())
        assert up_dist.values == sorted(volume * 2 for volume in up.values())


def _window(table, lo, hi):
    """The rows ``lo:hi`` of ``table``, selected by a row mask."""
    return table.select_mask(bytearray(lo <= index < hi for index in range(len(table))))


class TestSequenceIndexing:
    def test_negative_index_matches_python_list_semantics(self, records, table):
        assert table.record_at(-1) == records[-1]
        assert table.record_at(-len(records)) == records[0]

    def test_negative_index_out_of_range_raises(self, table):
        with pytest.raises(IndexError):
            table.record_at(-(len(table) + 1))
        with pytest.raises(IndexError):
            table.record_at(len(table))

    def test_slice_returns_flowtable(self, records, table):
        window = _window(table, 10, 60)
        assert isinstance(window, FlowTable)
        assert window.to_records() == records[10:60]
        # A selection shares the parent's value pools.
        assert window.pool("provider_key") is table.pool("provider_key")

    def test_empty_and_degenerate_slices(self, records, table):
        assert _window(table, 5, 5).to_records() == []
        assert _window(table, 1000, 2000).to_records() == records[1000:2000]
        assert len(_window(table, 0, len(table))) == len(records)

    def test_sliced_table_is_fully_functional(self, records, table):
        window = _window(table, 0, 100)
        expected = from_records(records[:100])
        assert window.group_sum(("provider_key",), "bytes_down") == expected.group_sum(
            ("provider_key",), "bytes_down"
        )
