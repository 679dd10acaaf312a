"""Characterization experiments: Table 1, Table 2 (Appendix A), Figures 2--4,
and the Section 3.4 ground-truth validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.patterns import appendix_table
from repro.core.providers import get_provider
from repro.core.report import format_count, format_percent, render_table
from repro.core.source_attribution import CATEGORIES, SourceBreakdown, contribution_table
from repro.core.stability import StabilityComparison, stability_analysis
from repro.core.validation import TrafficCoverageReport, traffic_coverage
from repro.experiments.context import ExperimentContext


# -- Table 1 -------------------------------------------------------------------------


@dataclass
class Table1Result:
    """Measured provider characteristics (Table 1)."""

    rows: List[Dict[str, object]]

    def row_for(self, provider_name: str) -> Dict[str, object]:
        """Return the row of one provider by full name."""
        for row in self.rows:
            if row["provider"] == provider_name:
                return row
        raise KeyError(provider_name)

    def render(self) -> str:
        headers = [
            "Backend Provider",
            "#AS",
            "#IPv4 /24",
            "(IPv6 /56)",
            "#Locations",
            "#Countries",
            "Strategy",
            "Protocols (Ports)",
        ]
        table_rows = [
            [
                row["provider"],
                row["as_count"],
                row["ipv4_slash24"],
                row["ipv6_slash56"],
                row["locations"],
                row["countries"],
                row["strategy"],
                row["protocols"],
            ]
            for row in self.rows
        ]
        return render_table(headers, table_rows, title="Table 1: IoT backend characteristics")


def table1_characterization(context: ExperimentContext) -> Table1Result:
    """Reproduce Table 1 from the validated discovery result."""
    return Table1Result(rows=context.result.table1_rows())


# -- Table 2 (Appendix A) ----------------------------------------------------------------


@dataclass
class Table2Result:
    """Generated regular expressions and external-service queries (Appendix A)."""

    rows: List[Dict[str, str]]

    def render(self) -> str:
        headers = ["Provider", "Data Source", "API Type", "Regular Expression / Query"]
        table_rows = [
            [row["provider"], row["data_source"], row["api_type"], row["query"]]
            for row in self.rows
        ]
        return render_table(headers, table_rows, title="Table 2: domain patterns and queries")


def table2_regexes() -> Table2Result:
    """Reproduce the Appendix A query table from the provider catalog."""
    return Table2Result(rows=appendix_table())


# -- Figure 2 (pipeline outcome) -----------------------------------------------------------


@dataclass
class PipelineSummary:
    """End-to-end pipeline outcome (the product of Figure 2's methodology)."""

    total_ipv4: int
    total_ipv6: int
    dedicated_ipv4: int
    dedicated_ipv6: int
    shared_ips: int
    providers_with_ipv6: int

    def render(self) -> str:
        rows = [
            ["discovered IPv4 addresses", format_count(self.total_ipv4)],
            ["discovered IPv6 addresses", format_count(self.total_ipv6)],
            ["dedicated-IoT IPv4 addresses", format_count(self.dedicated_ipv4)],
            ["dedicated-IoT IPv6 addresses", format_count(self.dedicated_ipv6)],
            ["shared (excluded) addresses", format_count(self.shared_ips)],
            ["providers with IPv6 backends", str(self.providers_with_ipv6)],
        ]
        return render_table(["metric", "value"], rows, title="Figure 2: methodology outcome")


def pipeline_summary(context: ExperimentContext) -> PipelineSummary:
    """Summarise the end-to-end discovery run."""
    combined = context.result.combined
    dedicated = context.result.dedicated
    providers_with_ipv6 = sum(
        1 for key in combined.providers() if combined.ipv6_ips(key)
    )
    return PipelineSummary(
        total_ipv4=len(combined.ipv4_ips()),
        total_ipv6=len(combined.ipv6_ips()),
        dedicated_ipv4=len(dedicated.ipv4_ips()),
        dedicated_ipv6=len(dedicated.ipv6_ips()),
        shared_ips=context.result.validation.shared_count(),
        providers_with_ipv6=providers_with_ipv6,
    )


# -- Figure 3 (per-source contribution) --------------------------------------------------------


@dataclass
class Figure3Result:
    """Per-provider, per-source contribution of discovered addresses."""

    breakdowns: List[SourceBreakdown]

    def breakdown_for(self, provider_key: str, ip_version: int = 4) -> SourceBreakdown:
        """Return the breakdown of one provider/family."""
        for breakdown in self.breakdowns:
            if breakdown.provider_key == provider_key and breakdown.ip_version == ip_version:
                return breakdown
        raise KeyError((provider_key, ip_version))

    def render(self) -> str:
        headers = ["Provider", "Family", "#IPs"] + list(CATEGORIES)
        rows = []
        for breakdown in self.breakdowns:
            provider_name = get_provider(breakdown.provider_key).name
            rows.append(
                [
                    provider_name,
                    f"IPv{breakdown.ip_version}",
                    format_count(breakdown.total),
                ]
                + [format_percent(breakdown.fraction(category)) for category in CATEGORIES]
            )
        return render_table(headers, rows, title="Figure 3: contribution of each data source")


def fig3_source_contribution(context: ExperimentContext) -> Figure3Result:
    """Reproduce Figure 3 from the first study day's combined discovery."""
    first_day = min(context.result.daily_results)
    return Figure3Result(breakdowns=contribution_table(context.result.daily_results[first_day]))


# -- Figure 4 (stability) -------------------------------------------------------------------


@dataclass
class Figure4Result:
    """Day-over-day stability of the discovered server IP sets."""

    comparisons: List[StabilityComparison]

    def render(self) -> str:
        headers = ["Provider", "Compared day", "Both", "Only current", "Only reference", "Stable %"]
        rows = [
            [
                get_provider(c.provider_key).name,
                c.compared_day.isoformat(),
                c.in_both,
                c.only_current,
                c.only_reference,
                format_percent(c.stable_fraction),
            ]
            for c in self.comparisons
        ]
        return render_table(headers, rows, title="Figure 4: stability of backend IP sets")


def fig4_stability(context: ExperimentContext) -> Figure4Result:
    """Reproduce Figure 4 from the daily discovery results."""
    return Figure4Result(comparisons=stability_analysis(context.result.daily_results))


# -- Section 3.4 (ground truth + traffic coverage) ------------------------------------------------


@dataclass
class ValidationResult:
    """Ground-truth validation and traffic-coverage bounds (Section 3.4)."""

    ground_truth: Dict[str, object]
    traffic_reports: Dict[str, TrafficCoverageReport]

    def render(self) -> str:
        headers = ["Provider", "Published prefixes", "Discovered", "Inside ranges", "Precision"]
        rows = []
        for key, report in sorted(self.ground_truth.items()):
            rows.append(
                [
                    get_provider(key).name,
                    len(report.published_prefixes),
                    report.discovered_count,
                    report.discovered_inside,
                    format_percent(report.precision),
                ]
            )
        text = render_table(headers, rows, title="Section 3.4: ground-truth validation")
        coverage_rows = [
            [
                get_provider(key).name,
                report.active_server_ips,
                report.active_discovered,
                format_percent(report.underestimation_fraction, digits=2),
            ]
            for key, report in sorted(self.traffic_reports.items())
        ]
        text += "\n\n" + render_table(
            ["Provider", "Active server IPs", "Discovered among them", "Traffic underestimation"],
            coverage_rows,
        )
        return text


def sec34_validation(context: ExperimentContext) -> ValidationResult:
    """Reproduce the Section 3.4 validation against published ranges and ISP traffic."""
    table = context.clean_table()
    traffic_reports = {
        key: traffic_coverage(context.result.combined, key, table)
        for key in context.world.published_ranges
    }
    return ValidationResult(
        ground_truth=dict(context.result.ground_truth),
        traffic_reports=traffic_reports,
    )
