"""Autonomous-system registry.

The paper maps backend IPs to origin ASes (RouteViews prefix-to-AS data) to infer
network diversity and the deployment strategy: an IoT backend uses *dedicated
infrastructure* (DI) if all its addresses are announced by an AS managed by the
backend operator, and *public cloud resources* (PR) if they are announced by a
cloud provider or CDN (Section 4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional


class AsKind(enum.Enum):
    """Classification of an autonomous system's operator."""

    IOT_BACKEND = "iot-backend"
    CLOUD = "cloud"
    CDN = "cdn"
    ISP = "isp"
    TRANSIT = "transit"
    OTHER = "other"


@dataclass(frozen=True)
class AutonomousSystem:
    """An autonomous system and the organisation operating it."""

    asn: int
    name: str
    organization: str
    kind: AsKind

    def is_cloud_or_cdn(self) -> bool:
        """Return True when the AS belongs to a public cloud provider or a CDN."""
        return self.kind in (AsKind.CLOUD, AsKind.CDN)


class AsRegistry:
    """Registry of autonomous systems keyed by AS number."""

    def __init__(self) -> None:
        self._by_asn: Dict[int, AutonomousSystem] = {}
        self._next_asn = 64500  # private-use 16-bit ASN range and above

    def register(self, autonomous_system: AutonomousSystem) -> AutonomousSystem:
        """Register an AS; registering the same ASN twice must be consistent."""
        existing = self._by_asn.get(autonomous_system.asn)
        if existing is not None:
            if existing != autonomous_system:
                raise ValueError(f"conflicting registration for AS{autonomous_system.asn}")
            return existing
        self._by_asn[autonomous_system.asn] = autonomous_system
        return autonomous_system

    def create(self, name: str, organization: str, kind: AsKind) -> AutonomousSystem:
        """Create and register a new AS with the next free AS number."""
        while self._next_asn in self._by_asn:
            self._next_asn += 1
        autonomous_system = AutonomousSystem(self._next_asn, name, organization, kind)
        self._next_asn += 1
        return self.register(autonomous_system)

    def get(self, asn: int) -> Optional[AutonomousSystem]:
        """Return the AS registered under the AS number, or None."""
        return self._by_asn.get(asn)
