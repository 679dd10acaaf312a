"""Tests for the autonomous-system registry."""

import pytest

from repro.netmodel.asn import AsKind, AsRegistry, AutonomousSystem


def test_create_assigns_unique_asns():
    registry = AsRegistry()
    first = registry.create("AS One", "Org A", AsKind.IOT_BACKEND)
    second = registry.create("AS Two", "Org A", AsKind.IOT_BACKEND)
    assert first.asn != second.asn
    assert registry.get(first.asn) == first and registry.get(second.asn) == second


def test_lookup_by_asn_and_org():
    registry = AsRegistry()
    created = registry.create("Cloud AS", "Big Cloud", AsKind.CLOUD)
    assert registry.get(created.asn) == created
    assert registry.get(created.asn).organization == "Big Cloud"
    assert registry.get(created.asn + 1) is None


def test_conflicting_registration_rejected():
    registry = AsRegistry()
    registry.register(AutonomousSystem(65001, "a", "org", AsKind.OTHER))
    with pytest.raises(ValueError):
        registry.register(AutonomousSystem(65001, "b", "org", AsKind.OTHER))


def test_duplicate_identical_registration_is_noop():
    registry = AsRegistry()
    system = AutonomousSystem(65001, "a", "org", AsKind.OTHER)
    registry.register(system)
    assert registry.register(AutonomousSystem(65001, "a", "org", AsKind.OTHER)) is system
    assert registry.get(65001) is system


def test_is_cloud_or_cdn():
    assert AutonomousSystem(1, "a", "o", AsKind.CLOUD).is_cloud_or_cdn()
    assert AutonomousSystem(2, "b", "o", AsKind.CDN).is_cloud_or_cdn()
    assert not AutonomousSystem(3, "c", "o", AsKind.IOT_BACKEND).is_cloud_or_cdn()

