"""Disruption experiments (Figures 15--16, Section 6.2) and methodology ablations."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, time
from typing import Tuple

from repro.baselines.portscan_only import PortScanBaselineReport, portscan_only_discovery
from repro.core.disruption import (
    GROUP_EU,
    GROUP_US_EAST,
    BgpExposureReport,
    BlocklistExposureReport,
    OutageImpactReport,
    bgp_exposure,
    blocklist_exposure,
    outage_impact,
)
from repro.core.discovery import BackendDiscovery
from repro.core.providers import get_provider
from repro.core.report import format_percent, render_series, render_table
from repro.experiments.context import ExperimentContext
from repro.flows.kernels import fold_sum
from repro.simulation.clock import AWS_OUTAGE_DATE, AWS_OUTAGE_HOURS


def _outage_window() -> Tuple[datetime, datetime]:
    start_hour, end_hour = AWS_OUTAGE_HOURS
    return (
        datetime.combine(AWS_OUTAGE_DATE, time(hour=start_hour)),
        datetime.combine(AWS_OUTAGE_DATE, time(hour=end_hour)),
    )


# -- Figures 15 and 16 ----------------------------------------------------------------------------


@dataclass
class OutageExperimentResult:
    """The AWS us-east-1 outage impact on the affected provider (T1 in the paper)."""

    provider_label: str
    report: OutageImpactReport

    def traffic_drop_us_east(self) -> float:
        """Relative downstream-traffic drop in the US-East group during the outage."""
        return self.report.drop_vs_previous_week(GROUP_US_EAST)

    def traffic_drop_eu(self) -> float:
        """Relative downstream-traffic drop in the EU group during the outage."""
        return self.report.drop_vs_previous_week(GROUP_EU)

    def line_drop_us_east(self) -> float:
        """Relative subscriber-line drop in the US-East group during the outage."""
        return self.report.line_drop_vs_previous_week(GROUP_US_EAST)

    def eu_to_us_traffic_ratio(self) -> float:
        """How much more traffic the EU regions serve compared to US-East overall."""
        eu_total = fold_sum(self.report.traffic_series[GROUP_EU].values())
        us_total = fold_sum(self.report.traffic_series[GROUP_US_EAST].values())
        return eu_total / us_total if us_total > 0 else float("inf")

    def render(self, figure: str = "15") -> str:
        title = (
            f"Figure {figure}: AWS outage impact on {self.provider_label} "
            f"({'downstream volume' if figure == '15' else 'subscriber lines'})"
        )
        series = (
            self.report.traffic_series if figure == "15" else {
                group: {k: float(v) for k, v in values.items()}
                for group, values in self.report.line_series.items()
            }
        )
        text = render_series(series, title=title)
        text += (
            f"\nUS-East traffic drop vs previous-week minimum: "
            f"{format_percent(self.traffic_drop_us_east())}"
            f"\nEU traffic drop vs previous-week minimum: {format_percent(self.traffic_drop_eu())}"
            f"\nUS-East subscriber-line drop: {format_percent(self.line_drop_us_east())}"
            f"\nEU/US-East traffic ratio: {self.eu_to_us_traffic_ratio():.1f}x"
        )
        return text


def fig15_fig16_outage(context: ExperimentContext, provider_label: str = "T1") -> OutageExperimentResult:
    """Reproduce Figures 15 and 16 for the provider affected by the AWS outage."""
    provider_key = context.anonymization.provider(provider_label)
    # Columnar table: outage_impact's masked kernels run on it directly; on
    # numpy the timestamp GroupIndex is shared across all six series.
    flows = context.outage_table()
    window = _outage_window()
    baseline = (
        datetime.combine(context.config.outage_period.start, time()),
        datetime.combine(AWS_OUTAGE_DATE, time()),
    )
    report = outage_impact(
        flows,
        provider_key,
        outage_window=window,
        baseline_window=baseline,
        sampling_ratio=context.sampling_ratio,
    )
    return OutageExperimentResult(provider_label=provider_label, report=report)


# -- Section 6.2 -----------------------------------------------------------------------------------


@dataclass
class PotentialDisruptionsResult:
    """BGP-event and blocklist exposure of the discovered backends (Section 6.2)."""

    bgp: BgpExposureReport
    blocklists: BlocklistExposureReport

    def render(self) -> str:
        bgp_rows = [[kind.value, count] for kind, count in self.bgp.counts_by_kind.items()]
        bgp_rows.append(["events affecting backends", len(self.bgp.affecting_events)])
        text = render_table(["BGP event kind", "count"], bgp_rows, title="Section 6.2: connectivity problems")
        block_rows = [
            [get_provider(key).name, len(matches)]
            for key, matches in sorted(self.blocklists.matches_by_provider.items())
        ]
        text += "\n\n" + render_table(
            ["Provider", "#listed IPs"],
            block_rows,
            title=f"Section 6.2: IP filtering ({self.blocklists.total_listed_ips} backend IPs listed)",
        )
        category_rows = [[category, count] for category, count in self.blocklists.category_counts().items()]
        text += "\n" + render_table(["Blocklist category", "#IPs"], category_rows)
        return text


def sec62_potential_disruptions(context: ExperimentContext) -> PotentialDisruptionsResult:
    """Reproduce the Section 6.2 analysis for the main study week."""
    bgp = bgp_exposure(
        context.world.bgp_events,
        context.result.combined,
        context.world.routing_table,
        context.config.study_period,
    )
    blocklists = blocklist_exposure(context.world.blocklists, context.result.combined)
    return PotentialDisruptionsResult(bgp=bgp, blocklists=blocklists)


# -- Ablations --------------------------------------------------------------------------------------


@dataclass
class PortScanAblationResult:
    """Port-scan-only baseline vs. the full methodology (Sections 4.4 / 7)."""

    report: PortScanBaselineReport

    def render(self) -> str:
        rows = [
            ["backend IPs (methodology, scanned)", len(self.report.reference_ips)],
            ["found by standard-IoT-port probing", len(self.report.true_positives)],
            ["missed by standard-IoT-port probing", len(self.report.missed_backends)],
            ["recall of port scanning", format_percent(self.report.recall)],
            ["candidate hosts without provider attribution", len(self.report.unattributable)],
        ]
        return render_table(["metric", "value"], rows, title="Ablation: port-scan-only baseline")


def ablation_portscan_baseline(context: ExperimentContext) -> PortScanAblationResult:
    """Run the port-scan-only baseline against the methodology's result."""
    snapshot = context.world.censys.snapshot(context.config.study_period.start)
    report = portscan_only_discovery(snapshot, context.result.combined)
    return PortScanAblationResult(report=report)


@dataclass
class VantagePointAblationResult:
    """Coverage gained by resolving from three vantage points instead of one."""

    single_vp_ips: int
    all_vp_ips: int

    @property
    def gain_fraction(self) -> float:
        """Relative increase in active-DNS-discovered addresses."""
        if self.single_vp_ips == 0:
            return 0.0
        return (self.all_vp_ips - self.single_vp_ips) / self.single_vp_ips

    def render(self) -> str:
        rows = [
            ["addresses via 1 vantage point", self.single_vp_ips],
            ["addresses via 3 vantage points", self.all_vp_ips],
            ["coverage gain", format_percent(self.gain_fraction)],
        ]
        return render_table(["metric", "value"], rows, title="Ablation: active-DNS vantage points")


def ablation_vantage_points(context: ExperimentContext) -> VantagePointAblationResult:
    """Quantify the Section 3.3 coverage gain from multiple vantage points.

    Each arm resolves against a fresh copy of the world's authoritative
    server, so both start from the same round-robin state and the result is
    a function of the world alone: it does not depend on which queries ran
    before (the pipeline's active-DNS step, an earlier call), and the world's
    counters are left as they were.
    """
    discovery = BackendDiscovery(context.pipeline.pattern_set)
    period = context.config.study_period
    passive = discovery.discover_from_passive_dns(
        context.world.passive_dns, since=period.start, until=period.end
    )
    domains = sorted(passive.domains())
    authoritative = context.world.authoritative
    single = discovery.discover_from_active_dns(
        authoritative.fresh_copy(), context.world.vantage_points[:1], domains
    )
    full = discovery.discover_from_active_dns(
        authoritative.fresh_copy(), context.world.vantage_points, domains
    )
    return VantagePointAblationResult(
        single_vp_ips=len(single.ips()), all_vp_ips=len(full.ips())
    )
