"""Tests for the certificate model."""

from datetime import date

import pytest

from repro.scan.certificates import Certificate, make_certificate


def test_make_certificate_sets_cn_and_sans():
    cert = make_certificate(["a.example", "b.example", "*.c.example"])
    assert cert.subject_common_name == "a.example"
    assert cert.san_dns_names == ("b.example", "*.c.example")
    assert cert.all_dns_names() == ("a.example", "b.example", "*.c.example")


def test_make_certificate_requires_names():
    with pytest.raises(ValueError):
        make_certificate([])


def test_all_dns_names_deduplicates():
    cert = Certificate("a.example", ("a.example", "b.example"))
    assert cert.all_dns_names() == ("a.example", "b.example")


def test_validity_checks():
    cert = Certificate("a.example", not_before=date(2022, 1, 1), not_after=date(2022, 6, 30))
    assert cert.is_valid_on(date(2022, 3, 1))
    assert not cert.is_valid_on(date(2021, 12, 31))


def test_covers_domain_exact_and_wildcard():
    cert = Certificate("gw.iot.example", ("*.iot.eu-west-1.amazonaws.com",))
    assert cert.covers_domain("gw.iot.example")
    assert cert.covers_domain("GW.IOT.EXAMPLE.")
    assert cert.covers_domain("tenant.iot.eu-west-1.amazonaws.com")
    # Wildcards cover exactly one label.
    assert not cert.covers_domain("a.b.iot.eu-west-1.amazonaws.com")
    assert not cert.covers_domain("iot.eu-west-1.amazonaws.com")
    assert not cert.covers_domain("other.example")


def test_serials_are_unique():
    assert make_certificate(["a.example"]).serial != make_certificate(["a.example"]).serial
