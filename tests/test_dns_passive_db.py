"""Tests for the DNSDB-like passive DNS database."""

from datetime import date

import pytest
from hypothesis import given, strategies as st

from repro.dns.passive_db import PassiveDnsDatabase, PassiveDnsRecord


def _db_with_records() -> PassiveDnsDatabase:
    db = PassiveDnsDatabase()
    db.add_observation("tenant.iot.eu-west-1.amazonaws.com", "10.0.0.1", date(2022, 1, 1), date(2022, 3, 10))
    db.add_observation("tenant.iot.eu-west-1.amazonaws.com", "10.0.0.2", date(2021, 1, 1), date(2021, 6, 1))
    db.add_observation("mqtt.googleapis.com", "10.1.0.1", date(2022, 2, 1), date(2022, 3, 1))
    db.add_observation("www.unrelated.example", "10.2.0.1", date(2022, 2, 1), date(2022, 3, 1))
    db.add_observation("gw.iot.example", "fd00::1", date(2022, 2, 1))
    return db


def test_record_validation():
    with pytest.raises(ValueError):
        PassiveDnsRecord("a.example", "A", "10.0.0.1", date(2022, 2, 1), date(2022, 1, 1))


def test_add_observation_infers_rrtype():
    db = PassiveDnsDatabase()
    a = db.add_observation("a.example", "10.0.0.1", date(2022, 1, 1))
    aaaa = db.add_observation("b.example", "fd00::1", date(2022, 1, 1))
    assert a.rrtype == "A"
    assert aaaa.rrtype == "AAAA"
    assert len(db) == 2


def test_inverse_search_and_domains_for_ip():
    db = _db_with_records()
    assert {r.rrname for r in db.inverse_search("10.0.0.1")} == {"tenant.iot.eu-west-1.amazonaws.com"}
    assert db.domains_for_ip("10.2.0.1") == {"www.unrelated.example"}
    assert db.domains_for_ip("10.9.9.9") == set()


def test_inverse_search_respects_time_range():
    db = _db_with_records()
    assert db.domains_for_ip("10.0.0.2", since=date(2022, 2, 28)) == set()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a.example", "b.example", "c.iot.example"]),
            st.integers(min_value=1, max_value=250),
        ),
        max_size=30,
    )
)
def test_inverse_search_consistent_with_records(pairs):
    db = PassiveDnsDatabase()
    for name, host in pairs:
        db.add_observation(name, f"10.0.0.{host}", date(2022, 1, 1))
    for record in db.records():
        assert record.rrname in db.domains_for_ip(record.rdata)
