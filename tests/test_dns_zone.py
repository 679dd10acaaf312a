"""Tests for DNS owner-name normalisation."""

from repro.dns.zone import normalize_name


def test_normalize_name():
    assert normalize_name("WWW.Example.COM.") == "www.example.com"
    assert normalize_name("  example.com ") == "example.com"
