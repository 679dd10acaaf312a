"""Traffic experiments: Figures 5--14 (Section 5)."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Dict, List, Optional, Tuple

from repro.core import traffic
from repro.core.report import (
    format_percent,
    render_distribution_summary,
    render_series,
    render_table,
)
from repro.experiments.context import ExperimentContext
from repro.flows.kernels import fold_sum


# -- Figure 5: scanner threshold sweep ------------------------------------------------------


@dataclass
class Figure5Result:
    """Scanner-threshold sensitivity: #scanner lines and server coverage."""

    points: List[traffic.ScannerThresholdPoint]

    def coverage_at(self, threshold: int) -> float:
        """Server coverage at a given threshold."""
        for point in self.points:
            if point.threshold == threshold:
                return point.server_coverage_fraction
        raise KeyError(threshold)

    def scanners_at(self, threshold: int) -> int:
        """Number of scanner lines at a given threshold."""
        for point in self.points:
            if point.threshold == threshold:
                return point.scanner_line_count
        raise KeyError(threshold)

    def render(self) -> str:
        headers = ["Threshold", "#Scanner lines", "Server coverage"]
        rows = [
            [p.threshold, p.scanner_line_count, format_percent(p.server_coverage_fraction)]
            for p in self.points
        ]
        return render_table(headers, rows, title="Figure 5: scanner threshold sweep")


def fig5_scanner_threshold(
    context: ExperimentContext,
    thresholds: Tuple[int, ...] = (10, 20, 50, 100, 150, 200),
) -> Figure5Result:
    """Reproduce Figure 5 on the first study day's flows."""
    first_day = context.config.study_period.start
    table = context.raw_table()
    exclusion = traffic.ScannerExclusion(
        table, context.result.dedicated.ipv4_ips(), mask=table.mask_day(first_day)
    )
    return Figure5Result(points=exclusion.sweep(list(thresholds)))


# -- Figure 6: backend visibility -------------------------------------------------------------


@dataclass
class Figure6Result:
    """Per-provider share of discovered backend addresses visible in ISP traffic."""

    rows: List[traffic.VisibilityRow]
    overall_ipv4: float
    overall_ipv6: float

    def row_for(self, label: str) -> traffic.VisibilityRow:
        """Return the row of one anonymized provider."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        headers = ["Provider", "IPv4 visible", "IPv4 total", "IPv4 %", "IPv6 visible", "IPv6 total", "IPv6 %"]
        table_rows = [
            [
                row.label,
                row.ipv4_visible,
                row.ipv4_total,
                format_percent(row.ipv4_fraction),
                row.ipv6_visible,
                row.ipv6_total,
                format_percent(row.ipv6_fraction),
            ]
            for row in self.rows
        ]
        text = render_table(headers, table_rows, title="Figure 6: backend visibility per provider")
        text += (
            f"\nOverall visibility: IPv4 {format_percent(self.overall_ipv4)}, "
            f"IPv6 {format_percent(self.overall_ipv6)}"
        )
        return text


def fig6_visibility(context: ExperimentContext) -> Figure6Result:
    """Reproduce Figure 6 on the scanner-excluded study-week flows."""
    flows = context.clean_table()
    dedicated = context.result.dedicated
    rows = traffic.visibility_per_provider(flows, dedicated, context.anonymization)
    return Figure6Result(
        rows=rows,
        overall_ipv4=traffic.overall_visibility(flows, dedicated, 4),
        overall_ipv6=traffic.overall_visibility(flows, dedicated, 6),
    )


# -- Figure 7: TLS-only subscriber loss ----------------------------------------------------------


@dataclass
class Figure7Result:
    """Decrease in detectable IoT subscriber lines with TLS-only discovery."""

    rows: List[traffic.SubscriberLossRow]

    def decrease_for(self, label: str, ip_version: int = 4) -> float:
        """Relative decrease for one provider/family."""
        for row in self.rows:
            if row.label == label and row.ip_version == ip_version:
                return row.decrease_fraction
        raise KeyError((label, ip_version))

    def render(self) -> str:
        headers = ["Provider", "Family", "Lines (all sources)", "Lines (TLS only)", "Decrease"]
        table_rows = [
            [
                row.label,
                f"IPv{row.ip_version}",
                row.lines_full,
                row.lines_tls_only,
                format_percent(row.decrease_fraction),
            ]
            for row in self.rows
        ]
        return render_table(headers, table_rows, title="Figure 7: subscriber-line loss with TLS-only data")


def fig7_tls_only_loss(context: ExperimentContext) -> Figure7Result:
    """Reproduce Figure 7 by re-running discovery with only Censys certificate data."""
    from repro.baselines.tls_only import tls_only_discovery

    period = context.config.study_period
    snapshots = [context.world.censys.snapshot(day) for day in period.days()]
    tls_only = tls_only_discovery(snapshots, context.pipeline.pattern_set)
    rows = traffic.tls_only_subscriber_loss(
        context.clean_table(), context.result.dedicated, tls_only, context.anonymization
    )
    return Figure7Result(rows=rows)


# -- Figures 8--10: activity, volume, and direction ratio ----------------------------------------


@dataclass
class TimeSeriesResult:
    """A per-provider hourly time series plus rendering metadata."""

    title: str
    series: Dict[str, Dict[datetime, float]]

    def providers(self) -> List[str]:
        """The anonymized labels present in the series."""
        return list(self.series)

    def peak_hour(self, label: str) -> int:
        """Hour of day with the highest mean value for one provider."""
        per_hour: Dict[int, List[float]] = {}
        for timestamp, value in self.series[label].items():
            per_hour.setdefault(timestamp.hour, []).append(value)
        means = {hour: fold_sum(vals) / len(vals) for hour, vals in per_hour.items()}
        return max(means, key=means.get)

    def total(self, label: str) -> float:
        """Sum of the series for one provider."""
        return fold_sum(self.series[label].values())

    def render(self) -> str:
        return render_series(self.series, title=self.title)


def fig8_subscriber_activity(context: ExperimentContext, min_lines_per_hour: int = 15) -> TimeSeriesResult:
    """Reproduce Figure 8: hourly active subscriber lines per provider."""
    series = traffic.activity_timeseries(
        context.clean_table(), context.anonymization, min_lines_per_hour=min_lines_per_hour
    )
    return TimeSeriesResult(
        title="Figure 8: active subscriber lines per hour",
        series={label: {k: float(v) for k, v in values.items()} for label, values in series.items()},
    )


def fig9_traffic_volume(context: ExperimentContext) -> TimeSeriesResult:
    """Reproduce Figure 9: hourly normalized downstream volume per provider."""
    series = traffic.volume_timeseries(
        context.clean_table(), context.anonymization, sampling_ratio=context.sampling_ratio
    )
    return TimeSeriesResult(title="Figure 9: downstream traffic volume per hour", series=series)


@dataclass
class Figure10Result:
    """Downstream/upstream traffic ratios per provider."""

    hourly: Dict[str, Dict[datetime, float]]
    overall: Dict[str, float]

    def render(self) -> str:
        headers = ["Provider", "Overall down/up ratio"]
        rows = [[label, f"{ratio:.2f}"] for label, ratio in self.overall.items()]
        return render_table(headers, rows, title="Figure 10: downstream/upstream ratio")


def fig10_direction_ratio(context: ExperimentContext) -> Figure10Result:
    """Reproduce Figure 10: the downstream/upstream ratio per provider."""
    flows = context.clean_table()
    return Figure10Result(
        hourly=traffic.direction_ratio_timeseries(flows, context.anonymization),
        overall=traffic.mean_direction_ratio(flows, context.anonymization),
    )


# -- Figure 11: port mix ---------------------------------------------------------------------------


@dataclass
class Figure11Result:
    """Share of traffic volume per port for every provider."""

    mix: Dict[str, Dict[str, float]]

    def share(self, label: str, port_label_text: str) -> float:
        """Traffic share of one port for one provider (0 when absent)."""
        return self.mix.get(label, {}).get(port_label_text, 0.0)

    def dominant_port(self, label: str) -> str:
        """The port carrying the most traffic for one provider."""
        ports = self.mix[label]
        return max(ports, key=ports.get)

    def render(self) -> str:
        headers = ["Provider", "Port", "Share"]
        rows = []
        for label, ports in self.mix.items():
            for port, share in ports.items():
                rows.append([label, port, format_percent(share)])
        return render_table(headers, rows, title="Figure 11: traffic volume per port and provider")


def fig11_port_mix(context: ExperimentContext) -> Figure11Result:
    """Reproduce Figure 11 from the scanner-excluded study-week flows."""
    return Figure11Result(mix=traffic.port_mix(context.clean_table(), context.anonymization))


# -- Figure 12: per-subscriber daily volumes ----------------------------------------------------------


@dataclass
class Figure12Result:
    """Per-subscriber daily traffic distributions (Figures 12a, 12b, 12c)."""

    day: date
    total_down: traffic.EmpiricalDistribution
    total_up: traffic.EmpiricalDistribution
    by_provider_down: Dict[str, traffic.EmpiricalDistribution]
    by_port_down: Dict[str, traffic.EmpiricalDistribution]

    def render(self) -> str:
        text = [f"Figure 12: per-subscriber daily volumes on {self.day.isoformat()}"]
        text.append(
            render_distribution_summary(
                {"all providers (down)": self.total_down, "all providers (up)": self.total_up}
            )
        )
        text.append(render_distribution_summary(self.by_provider_down))
        text.append(render_distribution_summary(self.by_port_down))
        return "\n\n".join(text)


def fig12_per_subscriber_volumes(
    context: ExperimentContext, day: Optional[date] = None
) -> Figure12Result:
    """Reproduce Figures 12a--12c for one study day."""
    day = day or context.config.study_period.start
    flows = context.clean_table()
    total_down, total_up = traffic.per_subscriber_daily_volume(
        flows, day, sampling_ratio=context.sampling_ratio
    )
    by_provider = traffic.per_subscriber_daily_volume_by_provider(
        flows, day, context.anonymization, sampling_ratio=context.sampling_ratio
    )
    by_port = traffic.per_subscriber_daily_volume_by_port(
        flows, day, sampling_ratio=context.sampling_ratio
    )
    return Figure12Result(
        day=day,
        total_down=total_down,
        total_up=total_up,
        by_provider_down=by_provider,
        by_port_down=by_port,
    )


# -- Figures 13 and 14: crossing region borders ----------------------------------------------------------


@dataclass
class Figure13Result:
    """Continent-crossing statistics for subscriber lines, servers, and traffic."""

    report: traffic.RegionCrossingReport
    servers_per_continent: Dict[str, float]

    def render(self) -> str:
        line_rows = [
            [category, format_percent(self.report.category_fraction(category))]
            for category in traffic.REGION_CATEGORIES
        ]
        text = render_table(
            ["Subscriber lines contacting", "Share"],
            line_rows,
            title="Figure 13: subscriber lines vs. server continents",
        )
        server_rows = [
            [continent, format_percent(share)] for continent, share in self.servers_per_continent.items()
        ]
        text += "\n\n" + render_table(["Server continent", "Share of servers"], server_rows)
        traffic_rows = [
            [continent, format_percent(share)]
            for continent, share in self.report.traffic_by_continent.items()
        ]
        text += "\n\n" + render_table(
            ["Server continent", "Share of traffic"],
            traffic_rows,
            title="Figure 14: traffic exchanged per server continent",
        )
        return text


def fig13_fig14_region_crossing(context: ExperimentContext) -> Figure13Result:
    """Reproduce Figures 13 and 14 from the scanner-excluded study-week flows."""
    from repro.core.footprint import continent_distribution

    report = traffic.region_crossing(context.clean_table())
    servers = continent_distribution(context.result.footprints)
    return Figure13Result(report=report, servers_per_continent=servers)
