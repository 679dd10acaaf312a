"""Disruption analyses (Section 6, Figures 15 and 16).

Three questions are answered:

* **What did the AWS us-east-1 outage do to IoT traffic?**  For the affected
  provider, the downstream volume and the number of active subscriber lines are
  split by serving region group (all regions / US-east regions / EU regions) and
  compared against the minimum of the previous week, showing the >14.5% traffic
  drop with a barely-changed subscriber count.
* **Could routing incidents have disrupted the backends?**  Every BGP leak,
  possible hijack, and AS outage of the study week is checked against the
  discovered backend prefixes and origin ASes.
* **Could blocklists make backends unreachable?**  Every discovered address is
  checked against the aggregated blocklists.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Dict, List, Optional, Set, Tuple

from repro.core.discovery import DiscoveryResult
from repro.flows import kernels
from repro.flows.flowtable import FlowTable
from repro.netmodel.geo import CONTINENT_EUROPE
from repro.routing.bgp import RoutingTable
from repro.routing.events import BgpEvent, BgpEventFeed, EventKind
from repro.security.blocklists import BlocklistAggregate, BlocklistMatch
from repro.simulation.clock import StudyPeriod

#: Region-group labels used in Figures 15 and 16.
GROUP_ALL = "All"
GROUP_US_EAST = "US-East"
GROUP_EU = "EU"


@dataclass
class OutageImpactReport:
    """Hourly traffic and subscriber-line series around an outage, per region group."""

    provider_key: str
    traffic_series: Dict[str, Dict[datetime, float]]
    line_series: Dict[str, Dict[datetime, int]]
    outage_window: Tuple[datetime, datetime]
    previous_week_min_traffic: Dict[str, float]
    previous_week_min_lines: Dict[str, int]

    def traffic_during_outage(self, group: str) -> List[float]:
        """Hourly traffic of a group during the outage window."""
        start, end = self.outage_window
        series = self.traffic_series.get(group, {})
        return [value for when, value in series.items() if start <= when < end]

    def min_traffic_during_outage(self, group: str) -> float:
        """Minimum hourly traffic of a group during the outage window."""
        values = self.traffic_during_outage(group)
        return min(values) if values else 0.0

    def drop_vs_previous_week(self, group: str) -> float:
        """Relative drop of the outage-window minimum below the previous week's minimum."""
        baseline = self.previous_week_min_traffic.get(group, 0.0)
        if baseline <= 0:
            return 0.0
        low = self.min_traffic_during_outage(group)
        return max(0.0, 1.0 - low / baseline)

    def line_drop_vs_previous_week(self, group: str) -> float:
        """Relative drop of the outage-window minimum subscriber count below baseline."""
        baseline = self.previous_week_min_lines.get(group, 0)
        if baseline <= 0:
            return 0.0
        start, end = self.outage_window
        series = self.line_series.get(group, {})
        values = [value for when, value in series.items() if start <= when < end]
        if not values:
            return 0.0
        return max(0.0, 1.0 - min(values) / baseline)


def outage_impact(
    table: FlowTable,
    provider_key: str,
    outage_window: Tuple[datetime, datetime],
    baseline_window: Optional[Tuple[datetime, datetime]] = None,
    sampling_ratio: int = 1,
) -> OutageImpactReport:
    """Compute the Figure 15/16 series for one provider.

    ``baseline_window`` defaults to the week preceding the outage window's start;
    its per-group minimum (over hours that have traffic) provides the red reference
    line of the figures.  Hours during the daily quiet period are naturally part of
    the minimum, as in the paper.

    The three region groups are row masks over one shared timestamp grouping,
    so all six series run on the grouped-aggregation kernels against a single
    cached :class:`~repro.flows.kernels.GroupIndex`.  Sampling correction
    multiplies the per-hour sums (sum-then-scale, as in
    :func:`~repro.core.traffic.volume_timeseries`).
    """
    start, end = outage_window
    if baseline_window is None:
        # Default baseline: the four days preceding the outage day, compared at the
        # same hours of the day (cf. the red reference lines in Figures 15 and 16).
        from datetime import timedelta

        baseline_window = (start.replace(hour=0) - timedelta(days=4), start.replace(hour=0))
    # Classify once per pool entry, then expand to row masks via the codes.
    provider_pool = table.pool("provider_key")
    is_provider = bytearray(1 if key == provider_key else 0 for key in provider_pool)
    region_pool = table.pool("server_region")
    is_us_east = bytearray(
        1 if region.startswith("us-east") else 0 for region in region_pool
    )
    continent_pool = table.pool("server_continent")
    is_eu = bytearray(
        1 if continent == CONTINENT_EUROPE else 0 for continent in continent_pool
    )
    not_us_east = bytearray(0 if flag else 1 for flag in is_us_east)
    provider_codes = table.codes("provider_key")
    region_codes = table.codes("server_region")
    continent_codes = table.codes("server_continent")
    all_mask = kernels.expand_code_mask(provider_codes, is_provider)
    us_east_mask = kernels.expand_code_mask(region_codes, is_us_east, all_mask)
    # us-east wins over EU for flows matching both (the paper's region split).
    eu_mask = kernels.expand_code_mask(
        continent_codes, is_eu, kernels.expand_code_mask(region_codes, not_us_east, all_mask)
    )
    masks = {GROUP_ALL: all_mask, GROUP_US_EAST: us_east_mask, GROUP_EU: eu_mask}
    traffic_series: Dict[str, Dict[datetime, float]] = {}
    line_series: Dict[str, Dict[datetime, int]] = {}
    for group, group_mask in masks.items():
        sums = table.group_sums(("timestamp",), ("bytes_down",), mask=group_mask)
        counts = table.group_distinct_count(
            ("timestamp",), "subscriber_id", mask=group_mask
        )
        traffic_series[group] = {
            when: values[0] * sampling_ratio for when, values in sorted(sums.items())
        }
        line_series[group] = dict(sorted(counts.items()))
    baseline_start, baseline_end = baseline_window
    # The baseline minimum is taken over the same hours of the day as the outage
    # window, so diurnal lows do not mask the drop (as in Figures 15 and 16).
    outage_hours = {h % 24 for h in range(start.hour, start.hour + max(1, int((end - start).total_seconds() // 3600)))}
    previous_week_min_traffic: Dict[str, float] = {}
    previous_week_min_lines: Dict[str, int] = {}
    for group in (GROUP_ALL, GROUP_US_EAST, GROUP_EU):
        baseline_traffic = [
            value
            for when, value in traffic_series[group].items()
            if baseline_start <= when < baseline_end and when.hour in outage_hours and value > 0
        ]
        baseline_lines = [
            value
            for when, value in line_series[group].items()
            if baseline_start <= when < baseline_end and when.hour in outage_hours and value > 0
        ]
        previous_week_min_traffic[group] = min(baseline_traffic) if baseline_traffic else 0.0
        previous_week_min_lines[group] = min(baseline_lines) if baseline_lines else 0
    return OutageImpactReport(
        provider_key=provider_key,
        traffic_series=traffic_series,
        line_series=line_series,
        outage_window=outage_window,
        previous_week_min_traffic=previous_week_min_traffic,
        previous_week_min_lines=previous_week_min_lines,
    )


# ---------------------------------------------------------------------------------
# Potential disruptions (Section 6.2)
# ---------------------------------------------------------------------------------


@dataclass
class BgpExposureReport:
    """Exposure of the discovered backends to routing incidents."""

    counts_by_kind: Dict[EventKind, int]
    affecting_events: List[BgpEvent] = field(default_factory=list)

    @property
    def any_backend_affected(self) -> bool:
        """True when at least one incident touched a backend prefix or AS."""
        return bool(self.affecting_events)


def bgp_exposure(
    feed: BgpEventFeed,
    result: DiscoveryResult,
    routing_table: RoutingTable,
    period: StudyPeriod,
) -> BgpExposureReport:
    """Check every routing incident of the period against the backend footprint."""
    backend_asns: Set[int] = set()
    backend_prefixes: Set[str] = set()
    for ip in result.ips():
        announcement = routing_table.lookup(ip)
        if announcement is not None:
            backend_asns.add(announcement.origin_asn)
            backend_prefixes.add(announcement.prefix)
    counts = feed.count_by_kind(period.start, period.end)
    affecting = feed.events_affecting(
        backend_asns, sorted(backend_prefixes), period.start, period.end
    )
    return BgpExposureReport(counts_by_kind=counts, affecting_events=affecting)


@dataclass
class BlocklistExposureReport:
    """Backend addresses appearing on blocklists, grouped by provider."""

    matches_by_provider: Dict[str, List[BlocklistMatch]] = field(default_factory=dict)

    @property
    def total_listed_ips(self) -> int:
        """Number of distinct backend addresses found on any list."""
        return len(
            {match.ip for matches in self.matches_by_provider.values() for match in matches}
        )

    def providers_affected(self) -> List[str]:
        """Providers with at least one listed address."""
        return sorted(key for key, matches in self.matches_by_provider.items() if matches)

    def category_counts(self) -> Dict[str, int]:
        """Distinct listed addresses per blocklist category."""
        by_category: Dict[str, Set[str]] = defaultdict(set)
        for matches in self.matches_by_provider.values():
            for match in matches:
                by_category[match.category].add(match.ip)
        return {category: len(ips) for category, ips in sorted(by_category.items())}


def blocklist_exposure(
    blocklists: BlocklistAggregate, result: DiscoveryResult
) -> BlocklistExposureReport:
    """Check every discovered backend address against the aggregated blocklists."""
    report = BlocklistExposureReport()
    for provider_key in result.providers():
        matches: List[BlocklistMatch] = []
        for ip in sorted(result.ips(provider_key)):
            matches.extend(blocklists.check(ip))
        if matches:
            report.matches_by_provider[provider_key] = matches
    return report
