"""End-to-end orchestration of the discovery methodology (Figure 2).

The pipeline runs, for every day of the study period:

1. pattern generation from the provider catalog (documentation),
2. certificate-based discovery on the day's Censys snapshot (IPv4),
3. application-layer IPv6 scans over the hitlist,
4. passive DNS discovery restricted to the day,
5. active DNS resolution (from all vantage points) of every domain identified via
   passive DNS during the period,

then combines the daily results, validates the combined set (shared vs. dedicated
addresses, ground-truth ranges), and characterizes every provider's footprint.

Daily certificate discovery is **incremental**: the pipeline's
:class:`~repro.core.discovery.BackendDiscovery` keeps a
:class:`~repro.core.discovery.HostClassificationCache`, so day N+1 only
re-classifies Censys hosts whose certificate material changed since day N
(daily snapshots overlap heavily).  The finished
:class:`PipelineResult` can additionally be persisted in an
:class:`~repro.store.artifacts.ArtifactStore` (see
``repro.store.codec.dump_pipeline_result``), which makes warm starts of
``discovery``/``table1`` skip classification entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.discovery import BackendDiscovery, DiscoveryResult
from repro.core.footprint import FootprintReport, characterize_all
from repro.core.patterns import PatternSet
from repro.core.providers import PROVIDERS, ProviderSpec
from repro.core.validation import (
    GroundTruthReport,
    SharedIpClassification,
    classify_shared_ips,
    validate_against_ground_truth,
)
from repro.dns.passive_db import PassiveDnsRecord
from repro.obs.trace import span
from repro.scan.zgrab import ZGrabScanner
from repro.simulation.clock import StudyPeriod

if TYPE_CHECKING:  # pragma: no cover - only needed by type checkers
    from repro.simulation.world import World


@dataclass
class PipelineResult:
    """Everything the discovery pipeline produced for one study period."""

    period: StudyPeriod
    pattern_set: PatternSet
    daily_results: Dict[date, DiscoveryResult]
    combined: DiscoveryResult
    validation: SharedIpClassification
    footprints: Dict[str, FootprintReport]
    ground_truth: Dict[str, GroundTruthReport]

    @property
    def dedicated(self) -> DiscoveryResult:
        """The validated, dedicated-IoT discovery result (input to traffic analyses)."""
        return self.validation.dedicated

    def table1_rows(self, providers: Sequence[ProviderSpec] = PROVIDERS) -> List[Dict[str, object]]:
        """Return Table-1 style rows (one per provider, alphabetical)."""
        rows: List[Dict[str, object]] = []
        for spec in sorted(providers, key=lambda s: s.name):
            report = self.footprints.get(spec.key)
            if report is None:
                continue
            rows.append(
                {
                    "provider": spec.name,
                    "as_count": report.as_count,
                    "ipv4_slash24": report.slash24_count,
                    "ipv6_slash56": report.slash56_count,
                    "locations": report.location_count,
                    "countries": report.country_count,
                    "protocols": ", ".join(report.documented_protocols),
                    "strategy": report.strategy,
                    "anycast": report.uses_anycast,
                }
            )
        return rows


class DiscoveryPipeline:
    """Runs the full methodology against a synthetic world."""

    def __init__(self, world: "World", pattern_set: Optional[PatternSet] = None) -> None:
        self.world = world
        self.pattern_set = pattern_set or PatternSet.for_providers()
        self.discovery = BackendDiscovery(self.pattern_set)

    @property
    def host_cache(self):
        """The per-host classification cache shared by all daily TLS runs."""
        return self.discovery.host_cache

    # -- per-source steps -----------------------------------------------------------

    def discover_tls(self, day: date) -> DiscoveryResult:
        """Certificate-based discovery on the day's IPv4 scan snapshot.

        Consecutive days share the pipeline's host-classification cache: only
        hosts whose certificates changed since the previous call are
        re-classified.
        """
        snapshot = self.world.censys.snapshot(day)
        return self.discovery.discover_from_censys(snapshot)

    def discover_ipv6(self, day: date) -> DiscoveryResult:
        """Application-layer IPv6 scans over the hitlist."""
        scanner = ZGrabScanner()
        servers_by_ip = {s.ip: s for s in self.world.active_servers(day)}
        results = scanner.scan(day, self.world.hitlist, servers_by_ip)
        return self.discovery.discover_from_ipv6_scan(results)

    def discover_active_dns(self, domains: Sequence[str]) -> DiscoveryResult:
        """Active resolution of the given domains from every vantage point."""
        return self.discovery.discover_from_active_dns(
            self.world.authoritative, self.world.vantage_points, domains
        )

    # -- daily and period runs --------------------------------------------------------

    def discover_day(
        self,
        day: date,
        active_dns_domains: Sequence[str],
        passive_observations: Sequence[Tuple[str, PassiveDnsRecord]],
    ) -> DiscoveryResult:
        """Run all four sources for one day and combine them.

        ``active_dns_domains`` are the names active DNS resolves, and
        ``passive_observations`` the period's classified passive-DNS
        observations (see :meth:`BackendDiscovery.passive_dns_observations`),
        of which the day's passive result is the time-slice.
        """
        day_attr = day.isoformat()
        with span("discovery.passive_dns", day=day_attr):
            passive = self.discovery.result_from_passive_observations(
                passive_observations, since=day, until=day
            )
        with span("discovery.tls", day=day_attr):
            tls = self.discover_tls(day)
        with span("discovery.ipv6", day=day_attr):
            ipv6 = self.discover_ipv6(day)
        with span("discovery.active_dns", day=day_attr):
            active = self.discover_active_dns(active_dns_domains)
        return self.discovery.combine([tls, ipv6, passive, active], day=day)

    def run(self, period: Optional[StudyPeriod] = None) -> PipelineResult:
        """Run the methodology for a whole study period.

        Passive DNS is queried (and every owner name classified) once for the
        whole period; the per-day passive results are overlap-filtered slices of
        those period observations.
        """
        period = period or self.world.config.study_period
        with span("discovery.run", start=period.start.isoformat(), end=period.end.isoformat()):
            with span("discovery.passive_dns", day="period"):
                period_observations = self.discovery.passive_dns_observations(
                    self.world.passive_dns, since=period.start, until=period.end
                )
                period_passive = self.discovery.result_from_passive_observations(
                    period_observations
                )
            active_domains = sorted(period_passive.domains())
            daily_results: Dict[date, DiscoveryResult] = {}
            for day in period.days():
                daily_results[day] = self.discover_day(
                    day,
                    active_dns_domains=active_domains,
                    passive_observations=period_observations,
                )
            combined = DiscoveryResult()
            for day in sorted(daily_results):
                combined.merge(daily_results[day])
            combined.merge(period_passive)
            with span("discovery.validate"):
                validation = classify_shared_ips(
                    combined,
                    self.world.passive_dns,
                    self.pattern_set,
                    threshold=self.world.config.shared_ip_domain_threshold,
                    since=period.start,
                    until=period.end,
                )
            with span("discovery.characterize"):
                reference_snapshot = self.world.censys.snapshot(period.start)
                footprints = characterize_all(
                    validation.dedicated,
                    self.world.routing_table,
                    self.world.as_registry,
                    self.world.geo_database,
                    censys_snapshot=reference_snapshot,
                )
            ground_truth: Dict[str, GroundTruthReport] = {}
            for provider_key, prefixes in self.world.published_ranges.items():
                ground_truth[provider_key] = validate_against_ground_truth(
                    combined, provider_key, prefixes
                )
        return PipelineResult(
            period=period,
            pattern_set=self.pattern_set,
            daily_results=daily_results,
            combined=combined,
            validation=validation,
            footprints=footprints,
            ground_truth=ground_truth,
        )
