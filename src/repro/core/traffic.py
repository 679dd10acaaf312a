"""ISP traffic-flow analyses (Section 5, Figures 5--14).

All analyses operate on the :class:`~repro.flows.flowtable.FlowTable` exported
by the ISP's NetFlow collector and on the set of backend addresses produced by
the discovery pipeline; grouping and filtering run on the table's
dictionary-encoded columns.  Callers that run several analyses over the same
flows (the ``repro.experiments`` layer) pass one shared table, so cached group
indexes are reused across analyses.  Provider names are anonymized with an
:class:`~repro.flows.anonymize.AnonymizationMap` before any per-provider
numbers are reported, mirroring the paper's data-sharing agreement.

The module provides, in paper order:

* scanner identification and exclusion (Figure 5),
* backend visibility per provider (Figure 6),
* the subscriber-line undercount when only TLS-certificate data is used (Figure 7),
* subscriber-line activity and downstream-volume time series (Figures 8, 9),
* downstream/upstream ratios (Figure 10),
* the port mix per provider (Figure 11),
* per-subscriber daily-volume distributions (Figure 12),
* continent-crossing statistics (Figures 13, 14).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.discovery import DiscoveryResult
from repro.flows import kernels
from repro.flows.anonymize import AnonymizationMap
from repro.flows.flowtable import FlowTable
from repro.netmodel.geo import (
    CONTINENT_ASIA,
    CONTINENT_EUROPE,
    CONTINENT_NORTH_AMERICA,
)
from repro.protocols.ports import port_label

#: Default scanner threshold adopted by the paper after the sensitivity analysis.
DEFAULT_SCANNER_THRESHOLD = 100


# ---------------------------------------------------------------------------------
# Empirical distributions (used by the ECDF figures)
# ---------------------------------------------------------------------------------


@dataclass
class EmpiricalDistribution:
    """A simple empirical distribution over non-negative values."""

    values: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.values = sorted(float(v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def quantile(self, q: float) -> float:
        """Return the q-quantile (0 <= q <= 1) of the observed values."""
        if not self.values:
            raise ValueError("empty distribution has no quantiles")
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        index = min(len(self.values) - 1, max(0, int(round(q * (len(self.values) - 1)))))
        return self.values[index]

    def fraction_below(self, threshold: float) -> float:
        """Return the fraction of values strictly below the threshold."""
        if not self.values:
            return 0.0
        return bisect.bisect_left(self.values, threshold) / len(self.values)


# ---------------------------------------------------------------------------------
# Scanner identification and exclusion (Section 5.2, Figure 5)
# ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class ScannerThresholdPoint:
    """One point of the scanner-threshold sensitivity sweep."""

    threshold: int
    scanner_line_count: int
    server_coverage_fraction: float


class ScannerExclusion:
    """Identifies subscriber lines hosting scanners from their backend fan-out.

    ``mask`` optionally restricts the analysis to a row subset of a table
    (e.g. one study day) without materializing a filtered copy.
    """

    def __init__(
        self,
        table: FlowTable,
        backend_ips: Set[str],
        mask: Optional[Sequence[int]] = None,
    ) -> None:
        self.backend_ips = set(backend_ips)
        ip_pool = table.pool("server_ip")
        is_backend = bytearray(len(ip_pool))
        for code, ip in enumerate(ip_pool):
            if ip in self.backend_ips:
                is_backend[code] = 1
        row_mask = kernels.expand_code_mask(table.codes("server_ip"), is_backend, mask)
        self._contacts: Dict[int, Set[str]] = table.group_distinct(
            ("subscriber_id",), "server_ip", mask=row_mask
        )

    def contacts_per_line(self) -> Dict[int, int]:
        """Number of distinct backend addresses contacted per subscriber line."""
        return {line: len(ips) for line, ips in self._contacts.items()}

    def scanner_lines(self, threshold: int = DEFAULT_SCANNER_THRESHOLD) -> Set[int]:
        """Lines contacting more than ``threshold`` distinct backend addresses."""
        return {line for line, ips in self._contacts.items() if len(ips) > threshold}

    def server_coverage(self, threshold: int = DEFAULT_SCANNER_THRESHOLD) -> float:
        """Fraction of backend addresses contacted by non-scanner lines."""
        if not self.backend_ips:
            return 0.0
        scanners = self.scanner_lines(threshold)
        covered: Set[str] = set()
        for line, ips in self._contacts.items():
            if line not in scanners:
                covered.update(ips)
        return len(covered) / len(self.backend_ips)

    def sweep(self, thresholds: Sequence[int]) -> List[ScannerThresholdPoint]:
        """Evaluate scanner count and server coverage for several thresholds."""
        points = []
        for threshold in thresholds:
            points.append(
                ScannerThresholdPoint(
                    threshold=threshold,
                    scanner_line_count=len(self.scanner_lines(threshold)),
                    server_coverage_fraction=self.server_coverage(threshold),
                )
            )
        return points


# ---------------------------------------------------------------------------------
# Backend visibility (Section 5.2, Figure 6)
# ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class VisibilityRow:
    """Share of a provider's discovered addresses contacted from the ISP."""

    label: str
    ipv4_visible: int
    ipv4_total: int
    ipv6_visible: int
    ipv6_total: int

    @property
    def ipv4_fraction(self) -> float:
        """Visible fraction of the provider's IPv4 addresses."""
        return self.ipv4_visible / self.ipv4_total if self.ipv4_total else 0.0

    @property
    def ipv6_fraction(self) -> float:
        """Visible fraction of the provider's IPv6 addresses."""
        return self.ipv6_visible / self.ipv6_total if self.ipv6_total else 0.0


def visibility_per_provider(
    table: FlowTable,
    result: DiscoveryResult,
    anonymization: AnonymizationMap,
) -> List[VisibilityRow]:
    """Compute, per provider, the fraction of discovered addresses seen in traffic."""
    contacted = table.group_distinct(("provider_key",), "server_ip")
    rows: List[VisibilityRow] = []
    for provider_key in result.providers():
        ipv4_total = result.ipv4_ips(provider_key)
        ipv6_total = result.ipv6_ips(provider_key)
        seen = contacted.get(provider_key, set())
        rows.append(
            VisibilityRow(
                label=anonymization.label(provider_key),
                ipv4_visible=len(ipv4_total & seen),
                ipv4_total=len(ipv4_total),
                ipv6_visible=len(ipv6_total & seen),
                ipv6_total=len(ipv6_total),
            )
        )
    return sorted(rows, key=lambda row: _label_sort_key(row.label))


def overall_visibility(table: FlowTable, result: DiscoveryResult, ip_version: int) -> float:
    """Overall fraction of discovered addresses of a family seen in traffic."""
    total = result.ipv4_ips() if ip_version == 4 else result.ipv6_ips()
    if not total:
        return 0.0
    contacted = {ip for ip in table.distinct("server_ip") if ip in total}
    return len(contacted) / len(total)


# ---------------------------------------------------------------------------------
# Subscriber lines visible per data source (Section 5.3, Figure 7)
# ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class SubscriberLossRow:
    """Decrease in detectable IoT subscriber lines when only TLS data is used."""

    label: str
    ip_version: int
    lines_full: int
    lines_tls_only: int

    @property
    def decrease_fraction(self) -> float:
        """Relative decrease in detected subscriber lines."""
        if self.lines_full == 0:
            return 0.0
        return 1.0 - (self.lines_tls_only / self.lines_full)


def subscriber_lines_per_provider(
    table: FlowTable, backend_ips: Set[str]
) -> Dict[Tuple[str, int], int]:
    """Count, per (provider, family), the subscriber lines whose flows touch the given addresses."""
    mask = table.mask_server_ips(backend_ips)
    return table.group_distinct_count(("provider_key", "ip_version"), "subscriber_id", mask=mask)


def tls_only_subscriber_loss(
    table: FlowTable,
    full_result: DiscoveryResult,
    tls_only_result: DiscoveryResult,
    anonymization: AnonymizationMap,
) -> List[SubscriberLossRow]:
    """Quantify the loss in visible IoT subscriber lines with TLS-only discovery."""
    full_lines = subscriber_lines_per_provider(table, full_result.ips())
    tls_lines = subscriber_lines_per_provider(table, tls_only_result.ips())
    rows: List[SubscriberLossRow] = []
    for provider_key in full_result.providers():
        for ip_version in (4, 6):
            full = full_lines.get((provider_key, ip_version), 0)
            if not full:
                continue
            rows.append(
                SubscriberLossRow(
                    label=anonymization.label(provider_key),
                    ip_version=ip_version,
                    lines_full=full,
                    lines_tls_only=tls_lines.get((provider_key, ip_version), 0),
                )
            )
    return sorted(rows, key=lambda row: (_label_sort_key(row.label), row.ip_version))


# ---------------------------------------------------------------------------------
# Activity and volume time series (Section 5.3--5.4, Figures 8--10)
# ---------------------------------------------------------------------------------


def activity_timeseries(
    table: FlowTable,
    anonymization: AnonymizationMap,
    min_lines_per_hour: int = 0,
) -> Dict[str, Dict[datetime, int]]:
    """Hourly number of active subscriber lines per (anonymized) provider.

    The anonymization map is one-to-one, so each (label, hour) is exactly one
    (provider, hour) group and its distinct-line count needs no set union.
    """
    grouped = table.group_distinct_count(("provider_key", "timestamp"), "subscriber_id")
    lines: Dict[str, Dict[datetime, int]] = defaultdict(dict)
    for (provider_key, timestamp), count in grouped.items():
        lines[anonymization.label(provider_key)][timestamp] = count
    series: Dict[str, Dict[datetime, int]] = {}
    for label, counted in lines.items():
        if min_lines_per_hour and max(counted.values(), default=0) < min_lines_per_hour:
            continue
        series[label] = dict(sorted(counted.items()))
    return dict(sorted(series.items(), key=lambda item: _label_sort_key(item[0])))


def volume_timeseries(
    table: FlowTable,
    anonymization: AnonymizationMap,
    sampling_ratio: int = 1,
    direction: str = "down",
) -> Dict[str, Dict[datetime, float]]:
    """Hourly (estimated) traffic volume per provider, downstream by default."""
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    value_column = "bytes_down" if direction == "down" else "bytes_up"
    grouped = table.group_sum(("provider_key", "timestamp"), value_column)
    series: Dict[str, Dict[datetime, float]] = defaultdict(lambda: defaultdict(float))
    for (provider_key, timestamp), volume in grouped.items():
        series[anonymization.label(provider_key)][timestamp] += volume * sampling_ratio
    return {
        label: dict(sorted(per_hour.items()))
        for label, per_hour in sorted(series.items(), key=lambda item: _label_sort_key(item[0]))
    }


def direction_ratio_timeseries(
    table: FlowTable, anonymization: AnonymizationMap
) -> Dict[str, Dict[datetime, float]]:
    """Hourly downstream/upstream byte ratio per provider (Figure 10).

    One grouped pass sums both directions, each in row order.  The
    anonymization map is one-to-one, so each (label, hour) is exactly one
    (provider, hour) group; hours without upstream bytes get no ratio.
    """
    grouped = table.group_sums(("provider_key", "timestamp"), ("bytes_down", "bytes_up"))
    ratios: Dict[str, Dict[datetime, float]] = defaultdict(dict)
    for (provider_key, timestamp), (downstream, upstream) in grouped.items():
        per_hour = ratios[anonymization.label(provider_key)]
        if upstream > 0:
            per_hour[timestamp] = downstream / upstream
    return {
        label: dict(sorted(per_hour.items()))
        for label, per_hour in sorted(ratios.items(), key=lambda item: _label_sort_key(item[0]))
    }


def mean_direction_ratio(table: FlowTable, anonymization: AnonymizationMap) -> Dict[str, float]:
    """Overall downstream/upstream ratio per provider across the whole input."""
    grouped = table.group_sums(("provider_key",), ("bytes_down", "bytes_up"))
    down: Dict[str, float] = defaultdict(float)
    up: Dict[str, float] = defaultdict(float)
    for provider_key, (down_bytes, up_bytes) in grouped.items():
        label = anonymization.label(provider_key)
        down[label] += down_bytes
        up[label] += up_bytes
    return {
        label: (down[label] / up[label]) if up[label] > 0 else float("inf")
        for label in sorted(down, key=_label_sort_key)
    }


# ---------------------------------------------------------------------------------
# Port usage (Section 5.5, Figure 11)
# ---------------------------------------------------------------------------------


def port_mix(table: FlowTable, anonymization: AnonymizationMap) -> Dict[str, Dict[str, float]]:
    """Share of each provider's traffic volume per (transport, port)."""
    grouped = table.group_sums(("provider_key", "transport", "port"), ("bytes_down", "bytes_up"))
    volume: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (provider_key, transport, port), (down, up) in grouped.items():
        volume[anonymization.label(provider_key)][port_label(transport, port)] += down + up
    mix: Dict[str, Dict[str, float]] = {}
    for label, per_port in volume.items():
        total = kernels.fold_sum(per_port.values())
        if total <= 0:
            continue
        mix[label] = {
            port: per_port[port] / total
            for port in sorted(per_port, key=lambda p: -per_port[p])
        }
    return dict(sorted(mix.items(), key=lambda item: _label_sort_key(item[0])))


def top_ports_by_volume(
    table: FlowTable, top_n: int = 7, mask: Optional[Sequence[int]] = None
) -> List[str]:
    """Return the ``top_n`` port labels by total downstream volume."""
    grouped = table.group_sum(("transport", "port"), "bytes_down", mask=mask)
    volume: Dict[str, float] = defaultdict(float)
    for (transport, port), down in grouped.items():
        volume[port_label(transport, port)] += down
    return [label for label, _ in sorted(volume.items(), key=lambda item: -item[1])[:top_n]]


# ---------------------------------------------------------------------------------
# Per-subscriber daily volumes (Section 5.6, Figure 12)
# ---------------------------------------------------------------------------------


def per_subscriber_daily_volume(
    table: FlowTable,
    day: date,
    sampling_ratio: int = 1,
) -> Tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Figure 12a: daily (downstream, upstream) volume per subscriber line."""
    grouped = table.group_sums(
        ("subscriber_id",), ("bytes_down", "bytes_up"), mask=table.mask_day(day)
    )
    down = [sums[0] * sampling_ratio for sums in grouped.values()]
    up = [sums[1] * sampling_ratio for sums in grouped.values()]
    return EmpiricalDistribution(down), EmpiricalDistribution(up)


def per_subscriber_daily_volume_by_provider(
    table: FlowTable,
    day: date,
    anonymization: AnonymizationMap,
    sampling_ratio: int = 1,
    direction: str = "down",
) -> Dict[str, EmpiricalDistribution]:
    """Figure 12b: per-provider daily volume per subscriber line."""
    value_column = "bytes_down" if direction == "down" else "bytes_up"
    grouped = table.group_sum(
        ("provider_key", "subscriber_id"), value_column, mask=table.mask_day(day)
    )
    per_provider: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for (provider_key, subscriber_id), volume in grouped.items():
        label = anonymization.label(provider_key)
        per_provider[label][subscriber_id] += volume * sampling_ratio
    return {
        label: EmpiricalDistribution(list(values.values()))
        for label, values in sorted(per_provider.items(), key=lambda item: _label_sort_key(item[0]))
    }


def per_subscriber_daily_volume_by_port(
    table: FlowTable,
    day: date,
    sampling_ratio: int = 1,
    top_n: int = 7,
) -> Dict[str, EmpiricalDistribution]:
    """Figure 12c: per-port daily downstream volume per subscriber line.

    The ``top_n`` ports by downstream volume get their own distribution; all other
    ports are aggregated under ``Other``.
    """
    day_mask = table.mask_day(day)
    top = set(top_ports_by_volume(table, top_n, mask=day_mask))
    grouped = table.group_sum(
        ("transport", "port", "subscriber_id"), "bytes_down", mask=day_mask
    )
    per_port: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for (transport, port, subscriber_id), volume in grouped.items():
        label = port_label(transport, port)
        if label not in top:
            label = "Other"
        per_port[label][subscriber_id] += volume * sampling_ratio
    return {
        label: EmpiricalDistribution(list(values.values()))
        for label, values in per_port.items()
    }


# ---------------------------------------------------------------------------------
# Crossing region borders (Section 5.7, Figures 13 and 14)
# ---------------------------------------------------------------------------------

REGION_EUROPE_ONLY = "Europe only"
REGION_US_ONLY = "US only"
REGION_EU_US = "EU & US"
REGION_ASIA = "Asia"
REGION_OTHER = "Other"

REGION_CATEGORIES = (REGION_EUROPE_ONLY, REGION_US_ONLY, REGION_EU_US, REGION_ASIA, REGION_OTHER)


@dataclass
class RegionCrossingReport:
    """Continent-crossing statistics for subscriber lines and traffic."""

    line_categories: Dict[str, float]
    traffic_by_continent: Dict[str, float]
    lines_total: int

    def category_fraction(self, category: str) -> float:
        """Fraction of IoT-hosting lines in a category."""
        return self.line_categories.get(category, 0.0)

    def traffic_fraction(self, continent: str) -> float:
        """Fraction of traffic exchanged with servers on a continent."""
        return self.traffic_by_continent.get(continent, 0.0)


def _categorize_continents(continents: Set[str]) -> str:
    europe = CONTINENT_EUROPE in continents
    america = CONTINENT_NORTH_AMERICA in continents
    asia = CONTINENT_ASIA in continents
    others = continents - {CONTINENT_EUROPE, CONTINENT_NORTH_AMERICA, CONTINENT_ASIA}
    if europe and not america and not asia and not others:
        return REGION_EUROPE_ONLY
    if america and not europe and not asia and not others:
        return REGION_US_ONLY
    if europe and america and not asia and not others:
        return REGION_EU_US
    if asia and not europe and not america and not others:
        return REGION_ASIA
    return REGION_OTHER


def region_crossing(table: FlowTable) -> RegionCrossingReport:
    """Compute Figure 13 (lines) and Figure 14 (traffic) statistics."""
    continents_per_line = table.group_distinct(("subscriber_id",), "server_continent")
    grouped_traffic = table.group_sums(("server_continent",), ("bytes_down", "bytes_up"))
    traffic_by_continent = {
        continent: down + up for continent, (down, up) in grouped_traffic.items()
    }
    total_lines = len(continents_per_line)
    categories: Dict[str, int] = defaultdict(int)
    for continents in continents_per_line.values():
        categories[_categorize_continents(continents)] += 1
    total_traffic = kernels.fold_sum(traffic_by_continent.values())
    return RegionCrossingReport(
        line_categories={
            category: (categories.get(category, 0) / total_lines if total_lines else 0.0)
            for category in REGION_CATEGORIES
        },
        traffic_by_continent={
            continent: (volume / total_traffic if total_traffic else 0.0)
            for continent, volume in sorted(traffic_by_continent.items())
        },
        lines_total=total_lines,
    )


# ---------------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------------


def _label_sort_key(label: str) -> Tuple[int, int]:
    """Sort anonymized labels: T group first, then D, then O, numerically."""
    order = {"T": 0, "D": 1, "O": 2}
    prefix = label[0] if label else "Z"
    try:
        index = int(label[1:])
    except (ValueError, IndexError):
        index = 0
    return (order.get(prefix, 3), index)
