"""Tests for provider anonymization."""

import pytest

from repro.core.providers import PROVIDERS, get_provider
from repro.flows.anonymize import AnonymizationMap


def test_every_provider_gets_exactly_one_label():
    mapping = AnonymizationMap.build()
    assert len(mapping) == len(PROVIDERS)
    labels = mapping.labels()
    assert len(set(labels)) == len(PROVIDERS)


def test_top4_get_t_labels_in_revenue_order():
    mapping = AnonymizationMap.build()
    assert mapping.label("amazon") == "T1"
    assert mapping.label("microsoft") == "T2"
    assert mapping.label("google") == "T3"
    assert mapping.label("alibaba") == "T4"


def test_group_labels_match_provider_groups():
    mapping = AnonymizationMap.build()
    for label in mapping.group_labels("cloud"):
        assert label.startswith("D")
        assert get_provider(mapping.provider(label)).group == "cloud"
    for label in mapping.group_labels("other"):
        assert get_provider(mapping.provider(label)).group == "other"


def test_roundtrip_label_provider():
    mapping = AnonymizationMap.build()
    for spec in PROVIDERS:
        assert mapping.provider(mapping.label(spec.key)) == spec.key


def test_unknown_lookups_raise():
    mapping = AnonymizationMap.build()
    with pytest.raises(KeyError):
        mapping.label("unknown-provider")
    with pytest.raises(KeyError):
        mapping.provider("Z9")


def test_labels_ordering():
    mapping = AnonymizationMap.build()
    labels = mapping.labels()
    assert labels[:4] == ["T1", "T2", "T3", "T4"]
    assert labels[4].startswith("D")
    assert labels[-1].startswith("O")


def test_a_label_naming_two_providers_is_rejected():
    """Per-label analyses count one provider per label; a shared label fails loudly."""
    with pytest.raises(ValueError, match="label 'T1'"):
        AnonymizationMap(
            label_by_key={"amazon": "T1", "google": "T1"},
            key_by_label={"T1": "amazon"},
        )
    with pytest.raises(ValueError, match="label 'T2'"):
        AnonymizationMap(
            label_by_key={"amazon": "T1"},
            key_by_label={"T1": "amazon", "T2": "amazon"},
        )
    mapping = AnonymizationMap.build()
    with pytest.raises(ValueError, match="label 'T1' already names provider 'amazon'"):
        mapping._assign("acme", "T1")
    with pytest.raises(ValueError, match="provider 'amazon' already has label 'T1'"):
        mapping._assign("amazon", "T9")
    mapping._assign("amazon", "T1")  # re-assigning the same pair is a no-op
    assert AnonymizationMap(dict(mapping.label_by_key), dict(mapping.key_by_label)).labels() == (
        mapping.labels()
    )
