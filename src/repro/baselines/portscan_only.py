"""Port-scan-only baseline.

Probing the standard IoT ports (MQTT 1883/8883, CoAP 5683/5684, AMQP 5671) and
declaring every responsive host an "IoT backend" is the naive alternative to the
paper's domain-pattern methodology.  Sections 4.4 and 7 argue this is insufficient:
providers serve IoT protocols on Web and non-standard ports, and hosts that do
answer on IoT ports cannot be attributed to a provider without domain knowledge.
This module quantifies both failure modes against the ground truth available in a
scan snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

from repro.core.discovery import DiscoveryResult
from repro.protocols.ports import STANDARD_IOT_PORTS
from repro.scan.censys import CensysSnapshot


@dataclass
class PortScanBaselineReport:
    """Outcome of the port-scan-only baseline against a reference discovery result."""

    candidate_ips: Set[str]
    reference_ips: Set[str]
    true_positives: Set[str]
    missed_backends: Set[str]
    unattributable: Set[str]

    @property
    def recall(self) -> float:
        """Fraction of reference backend addresses found by port scanning alone."""
        if not self.reference_ips:
            return 0.0
        return len(self.true_positives) / len(self.reference_ips)

    @property
    def miss_fraction(self) -> float:
        """Fraction of reference backend addresses missed."""
        return 1.0 - self.recall


def portscan_only_discovery(
    snapshot: CensysSnapshot,
    reference: DiscoveryResult,
    iot_ports: Sequence[Tuple[str, int]] = STANDARD_IOT_PORTS,
) -> PortScanBaselineReport:
    """Run the baseline on one scan snapshot and compare against a reference result.

    The baseline's candidate set contains every scanned host with at least one
    standard IoT port open.  Because the baseline has no domain knowledge, *all*
    candidates are unattributable to a provider; the report still scores how many
    of the reference (methodology-discovered IPv4) addresses appear in the
    candidate set at all.
    """
    candidates = snapshot.ips_with_open_ports(iot_ports)
    reference_ipv4 = reference.ipv4_ips()
    # Restrict the comparison to addresses present in the snapshot: the baseline
    # can only ever see what the scanner probed.
    scanned_reference = {ip for ip in reference_ipv4 if snapshot.get(ip) is not None}
    true_positives = candidates & scanned_reference
    missed = scanned_reference - candidates
    return PortScanBaselineReport(
        candidate_ips=candidates,
        reference_ips=scanned_reference,
        true_positives=true_positives,
        missed_backends=missed,
        unattributable=set(candidates),
    )
