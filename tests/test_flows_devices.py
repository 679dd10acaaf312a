"""Tests for IoT device and application models."""

import pytest

from repro.core.providers import PROVIDERS, get_provider
from repro.flows.devices import ACTIVITY_PROFILES, ActivityProfile, build_device_model


def test_profiles_are_well_formed():
    for profile in ACTIVITY_PROFILES.values():
        assert len(profile.hourly_weights) == 24
        assert all(w >= 0 for w in profile.hourly_weights)
        for hour in range(24):
            assert 0.0 <= profile.activity_probability(hour) <= 1.0
        assert abs(sum(profile.weight_share(h) for h in range(24)) - 1.0) < 1e-9


def test_invalid_profiles_rejected():
    with pytest.raises(ValueError):
        ActivityProfile("bad", tuple([1.0] * 23))
    with pytest.raises(ValueError):
        ActivityProfile("bad", tuple([-1.0] + [1.0] * 23))
    with pytest.raises(ValueError):
        ActivityProfile("bad", tuple([0.0] * 24))


def test_prime_time_peaks_in_the_evening():
    profile = ACTIVITY_PROFILES["prime_time"]
    assert profile.activity_probability(20) > profile.activity_probability(4)


def test_constant_profile_is_flat():
    profile = ACTIVITY_PROFILES["constant_telemetry"]
    assert profile.activity_probability(3) == profile.activity_probability(15)


def test_every_provider_has_a_buildable_model():
    for spec in PROVIDERS:
        model = build_device_model(spec)
        assert model.provider_key == spec.key
        assert model.mean_daily_down_bytes > 0
        assert model.port_weights
        # Documented ports only.
        documented = set(spec.documented_ports())
        assert set(model.ports()).issubset(documented)


def test_amqp_bulk_provider_dominated_by_amqp_port():
    sap = build_device_model(get_provider("sap"))
    heaviest_pair, _weight = max(sap.port_weights, key=lambda item: item[1])
    assert heaviest_pair == ("tcp", 5671)


def test_global_selection_only_for_expected_providers():
    assert build_device_model(get_provider("microsoft")).global_server_selection
    assert not build_device_model(get_provider("amazon")).global_server_selection
