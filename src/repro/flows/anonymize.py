"""Provider anonymization for the ISP traffic analyses.

To comply with the data-sharing agreement, the paper anonymizes all IoT backend
provider names when discussing ISP traffic (Section 3.7): the top-4 providers by
estimated revenue become ``T1..T4``, the providers relying on public clouds become
``D1..D6``, and the remaining providers become ``O1..O6``.  Subscriber addresses
are additionally anonymized by BGP prefix before any analysis, which the flow
records already carry (``subscriber_prefix``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.providers import (
    GROUP_CLOUD,
    GROUP_OTHER,
    GROUP_TOP4,
    PROVIDERS,
    ProviderSpec,
)


@dataclass
class AnonymizationMap:
    """Bidirectional mapping between provider keys and anonymized labels.

    The mapping is one-to-one: no label names two providers and no provider
    has two labels.  Per-label analyses rely on it (a label's numbers are
    its one provider's numbers), so construction rejects anything else.
    """

    label_by_key: Dict[str, str] = field(default_factory=dict)
    key_by_label: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, label in self.label_by_key.items():
            if self.key_by_label.get(label) != key:
                raise ValueError(
                    f"label {label!r} of provider {key!r} maps back to "
                    f"{self.key_by_label.get(label)!r}: the mapping must be one-to-one"
                )
        for label, key in self.key_by_label.items():
            if self.label_by_key.get(key) != label:
                raise ValueError(
                    f"label {label!r} names provider {key!r}, whose label is "
                    f"{self.label_by_key.get(key)!r}: the mapping must be one-to-one"
                )

    @classmethod
    def build(cls, providers: Sequence[ProviderSpec] = PROVIDERS) -> "AnonymizationMap":
        """Build the mapping used throughout Section 5.

        Top-4 providers are labelled ``T1..T4`` in revenue order; public-cloud
        dependent providers ``D1..Dn`` and the remaining providers ``O1..On`` in
        alphabetical key order.  The concrete assignment within each group carries
        no meaning (as in the paper, which never reveals it).
        """
        mapping = cls()
        top4 = sorted((s for s in providers if s.group == GROUP_TOP4), key=lambda s: s.revenue_rank)
        cloud = sorted((s for s in providers if s.group == GROUP_CLOUD), key=lambda s: s.key)
        other = sorted((s for s in providers if s.group == GROUP_OTHER), key=lambda s: s.key)
        for index, spec in enumerate(top4, start=1):
            mapping._assign(spec.key, f"T{index}")
        for index, spec in enumerate(cloud, start=1):
            mapping._assign(spec.key, f"D{index}")
        for index, spec in enumerate(other, start=1):
            mapping._assign(spec.key, f"O{index}")
        return mapping

    def _assign(self, key: str, label: str) -> None:
        if self.label_by_key.get(key, label) != label:
            raise ValueError(
                f"provider {key!r} already has label {self.label_by_key[key]!r}, not {label!r}"
            )
        if self.key_by_label.get(label, key) != key:
            raise ValueError(
                f"label {label!r} already names provider {self.key_by_label[label]!r}, not {key!r}"
            )
        self.label_by_key[key] = label
        self.key_by_label[label] = key

    def label(self, provider_key: str) -> str:
        """Return the anonymized label for a provider key."""
        try:
            return self.label_by_key[provider_key]
        except KeyError as exc:
            raise KeyError(f"provider {provider_key!r} has no anonymized label") from exc

    def provider(self, label: str) -> str:
        """Return the provider key behind an anonymized label."""
        try:
            return self.key_by_label[label]
        except KeyError as exc:
            raise KeyError(f"unknown anonymized label {label!r}") from exc

    def labels(self) -> List[str]:
        """Return all labels, T group first, then D, then O, each in numeric order."""
        def sort_key(label: str):
            return ({"T": 0, "D": 1, "O": 2}[label[0]], int(label[1:]))

        return sorted(self.key_by_label, key=sort_key)

    def group_labels(self, group: str) -> List[str]:
        """Return the labels of one group (``top4``, ``cloud``, ``other``)."""
        prefix = {GROUP_TOP4: "T", GROUP_CLOUD: "D", GROUP_OTHER: "O"}[group]
        return [label for label in self.labels() if label.startswith(prefix)]

    def __len__(self) -> int:
        return len(self.label_by_key)
