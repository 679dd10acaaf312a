"""Tests for the subscriber population."""

import pytest

from repro.core.providers import PROVIDERS
from repro.flows.subscribers import SubscriberPopulation
from repro.simulation.rng import RngRegistry


def _population(n_lines=600, **kwargs):
    return SubscriberPopulation.build(
        n_lines=n_lines, providers=PROVIDERS, rng=RngRegistry(11), **kwargs
    )


def test_population_size_and_determinism():
    a = _population()
    b = _population()
    assert len(a) == 600
    assert [line.ip_version for line in a.lines] == [line.ip_version for line in b.lines]
    assert [len(line.devices) for line in a.lines] == [len(line.devices) for line in b.lines]


def test_iot_household_fraction_roughly_respected():
    population = _population(n_lines=1000, iot_household_fraction=0.45)
    fraction = len(population.iot_lines()) / len(population)
    assert 0.30 < fraction < 0.60


def test_ipv6_fraction_roughly_respected():
    population = _population(n_lines=1000, ipv6_line_fraction=0.08)
    fraction = sum(1 for line in population.lines if line.ip_version == 6) / len(population)
    assert 0.03 < fraction < 0.15


def test_scanner_lines_marked():
    population = _population(n_scanner_lines=3)
    assert len(population.scanner_lines()) == 3
    assert all(line.is_scanner for line in population.scanner_lines())


def test_heavy_lines_beyond_the_iot_lines_are_rejected():
    iot_lines = len(_population(n_lines=100).iot_lines())
    assert len(_population(n_lines=100, n_heavy_lines=iot_lines).iot_lines()) == iot_lines
    with pytest.raises(ValueError, match="n_heavy_lines"):
        _population(n_lines=100, n_heavy_lines=iot_lines + 1)
    # The derived default (1% of lines) is capped instead, here at zero IoT lines.
    assert _population(n_lines=100, iot_household_fraction=0.0).iot_lines() == []


def test_heavy_lines_host_many_providers():
    population = _population(n_lines=1000, n_heavy_lines=10)
    max_providers = max(len(line.providers()) for line in population.iot_lines())
    assert max_providers >= 5


def test_zero_lines_rejected():
    import pytest

    with pytest.raises(ValueError):
        SubscriberPopulation.build(n_lines=0, providers=PROVIDERS, rng=RngRegistry(1))
