"""Tests for domain naming schemes and FQDN construction."""

import pytest

from repro.dns.names import (
    REGION_STYLE_AIRPORT,
    REGION_STYLE_CODE,
    REGION_STYLE_NONE,
    REGION_STYLE_ZONE,
    SUBDOMAIN_CUSTOMER,
    SUBDOMAIN_FIXED,
    SUBDOMAIN_SERVICE,
    DomainNamingScheme,
    build_fqdn,
    region_label,
)


def test_customer_scheme_with_region():
    scheme = DomainNamingScheme("amazonaws.com", SUBDOMAIN_CUSTOMER, ("iot",), REGION_STYLE_CODE)
    name = build_fqdn(scheme, customer_id="tenant-1", region="eu-west-1")
    assert name == "tenant-1.iot.eu-west-1.amazonaws.com"


def test_customer_scheme_without_label_or_region():
    scheme = DomainNamingScheme("azure-devices.net", SUBDOMAIN_CUSTOMER, (), REGION_STYLE_NONE)
    assert build_fqdn(scheme, customer_id="hub1") == "hub1.azure-devices.net"


def test_customer_scheme_requires_customer_id():
    scheme = DomainNamingScheme("example.com", SUBDOMAIN_CUSTOMER)
    with pytest.raises(ValueError):
        build_fqdn(scheme)


def test_service_scheme():
    scheme = DomainNamingScheme(
        "myhuaweicloud.com", SUBDOMAIN_SERVICE, ("iot-mqtts", "iot-https"), REGION_STYLE_CODE
    )
    assert build_fqdn(scheme, region="cn-north-4") == "iot-mqtts.cn-north-4.myhuaweicloud.com"
    assert (
        build_fqdn(scheme, service_label="iot-https", region="cn-north-4")
        == "iot-https.cn-north-4.myhuaweicloud.com"
    )


def test_fixed_scheme():
    scheme = DomainNamingScheme(
        "googleapis.com", SUBDOMAIN_FIXED, fixed_fqdns=("mqtt.googleapis.com",)
    )
    assert build_fqdn(scheme) == "mqtt.googleapis.com"


def test_fixed_scheme_requires_fqdns():
    with pytest.raises(ValueError):
        DomainNamingScheme("googleapis.com", SUBDOMAIN_FIXED)


def test_invalid_kinds_rejected():
    with pytest.raises(ValueError):
        DomainNamingScheme("example.com", subdomain_kind="bogus")
    with pytest.raises(ValueError):
        DomainNamingScheme("example.com", region_style="bogus")


def test_region_label_styles():
    code = DomainNamingScheme("x.com", region_style=REGION_STYLE_CODE)
    airport = DomainNamingScheme("x.com", region_style=REGION_STYLE_AIRPORT)
    zone = DomainNamingScheme("x.com", region_style=REGION_STYLE_ZONE, zone_labels=("eu1", "eu2"))
    none = DomainNamingScheme("x.com", region_style=REGION_STYLE_NONE)
    assert region_label(code, "eu-central-1", "fra") == "eu-central-1"
    assert region_label(airport, "eu-central-1", "fra") == "fra"
    assert region_label(zone, "eu-central-1", "fra", zone_index=1) == "eu2"
    assert region_label(none, "eu-central-1", "fra") is None

