"""Tests for the scenario configuration."""

import pytest

from repro.simulation.config import ScenarioConfig


def test_default_configuration_is_valid():
    config = ScenarioConfig()
    assert config.scale > 0
    assert config.n_subscriber_lines > 0
    assert config.sampling_ratio >= 1


def test_small_preset_is_smaller():
    small = ScenarioConfig.small()
    default = ScenarioConfig.default()
    assert small.n_subscriber_lines < default.n_subscriber_lines
    assert small.scale <= default.scale


def test_with_overrides_returns_new_object():
    config = ScenarioConfig()
    other = config.with_overrides(n_subscriber_lines=123)
    assert other.n_subscriber_lines == 123
    assert config.n_subscriber_lines != 123
    assert other is not config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scale": 0.0},
        {"scale": -1.0},
        {"n_subscriber_lines": 0},
        {"sampling_ratio": 0},
        {"ipv6_line_fraction": 1.5},
        {"iot_household_fraction": -0.1},
        {"volume_sigma": float("nan")},
        {"scale": float("nan")},
        {"scale": float("inf")},
        {"geolocation_error_rate": float("nan")},
        {"geolocation_error_rate": 1.5},
        {"isp_prefix_count": 0},
        {"n_blocklisted_backend_ips": -1},
        {"n_scanner_lines": -1},
        {"n_scanner_lines": 4001},
        {"n_heavy_lines": 4001},
    ],
)
def test_invalid_configurations_rejected(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**kwargs)


def test_config_is_frozen():
    config = ScenarioConfig()
    with pytest.raises(Exception):
        config.seed = 99  # type: ignore[misc]
