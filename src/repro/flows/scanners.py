"""Scanner traffic injection.

A small number of subscriber lines host Internet-wide scanners; their traffic
touches a large fraction of all backend server addresses and would bias the
visibility analysis, which is why the paper identifies and excludes them with a
threshold on the number of contacted backend IPs (Section 5.2, Figure 5).  This
module generates the scan flows for the lines marked as scanners in the population.

:func:`append_scanner_flows` appends one day of scan traffic straight into
``FlowTable`` columns.  :func:`_scan_plans` performs every draw of the
``scanner-traffic`` stream (coverage, target sample, probe hour and port per
target) in one pass per scanner line; the append then encodes each distinct
target and timestamp once and adds the whole day as one column batch.
"""

from __future__ import annotations

import math
from datetime import date, datetime, time
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

from repro.flows.flowtable import FlowTable
from repro.flows.netflow import DEFAULT_PACKET_SIZE
from repro.flows.subscribers import SubscriberLine
from repro.simulation.rng import RngRegistry

#: Bytes exchanged per scan probe (a SYN plus a small banner exchange).
SCAN_PROBE_BYTES_UP = 180.0
SCAN_PROBE_BYTES_DOWN = 320.0

#: Ports a scanner sweeps (standard IoT and Web ports).
SCAN_PORTS = (("tcp", 443), ("tcp", 8883), ("tcp", 1883), ("tcp", 5671))

#: Packet counts of one probe, derived exactly as :func:`~repro.flows.netflow.make_flow` would.
_SCAN_PACKETS_DOWN = max(1, int(math.ceil(SCAN_PROBE_BYTES_DOWN / DEFAULT_PACKET_SIZE)))
_SCAN_PACKETS_UP = max(1, int(math.ceil(SCAN_PROBE_BYTES_UP / DEFAULT_PACKET_SIZE)))

_ScanPlan = Tuple[SubscriberLine, List[tuple], List[int], List[int]]


def _scan_plans(
    scanner_lines: Sequence[SubscriberLine],
    catalog: Sequence[tuple],
    rng: RngRegistry,
    coverage_range: tuple,
) -> List[_ScanPlan]:
    """Draw each scanner's (targets, hours, port indexes) for one day.

    The registered streams carry state across days, so consecutive days scan
    different catalog subsets, as at the ISP.
    """
    stream = rng.stream("scanner-traffic")
    plans: List[_ScanPlan] = []
    catalog = list(catalog)
    if not catalog:
        return plans
    low, high = coverage_range
    n_ports = len(SCAN_PORTS)
    for line in scanner_lines:
        if not line.is_scanner:
            continue
        coverage = stream.uniform(low, high)
        n_targets = max(1, int(round(coverage * len(catalog))))
        targets = stream.sample(catalog, n_targets)
        hours: List[int] = []
        port_indexes: List[int] = []
        for _ in range(n_targets):
            hours.append(stream.randrange(24))
            port_indexes.append(stream.randrange(n_ports))
        plans.append((line, targets, hours, port_indexes))
    return plans


def append_scanner_flows(
    table: FlowTable,
    scanner_lines: Sequence[SubscriberLine],
    server_catalog: Sequence[tuple],
    day: date,
    rng: RngRegistry,
    coverage_range: tuple = (0.6, 0.95),
) -> int:
    """Append one day of scan traffic for the scanner lines to ``table``.

    Returns the number of flows appended.

    Parameters
    ----------
    scanner_lines:
        The subscriber lines hosting scanners.
    server_catalog:
        Sequence of ``(provider_key, server_ip, continent, region_code)`` tuples for
        every backend server an IPv4 scanner can reach.
    day:
        The day to generate traffic for.
    coverage_range:
        Each scanner covers a uniformly drawn fraction of the catalog within this
        range, so different scanners contact different numbers of backends.
    """
    plans = _scan_plans(scanner_lines, server_catalog, rng, coverage_range)
    if not plans:
        return 0
    encode = table.encode_value
    timestamp_codes: Dict[int, int] = {}
    target_codes: Dict[tuple, Tuple[int, int, int, int]] = {}
    port_columns: List[Tuple[int, int]] = [
        (encode("transport", transport), port) for transport, port in SCAN_PORTS
    ]
    timestamp_column: List[int] = []
    prefix_codes: List[int] = []
    provider_codes: List[int] = []
    ip_codes: List[int] = []
    continent_codes: List[int] = []
    region_codes: List[int] = []
    transport_codes: List[int] = []
    subscriber_ids: List[int] = []
    ip_versions: List[int] = []
    ports: List[int] = []
    count = 0
    for line, targets, hours, port_indexes in plans:
        prefix_code = encode("subscriber_prefix", line.isp_prefix)
        line_id = line.line_id
        version = line.ip_version
        for target, hour, port_index in zip(targets, hours, port_indexes):
            timestamp_code = timestamp_codes.get(hour)
            if timestamp_code is None:
                timestamp_code = timestamp_codes[hour] = encode(
                    "timestamp", datetime.combine(day, time(hour=hour))
                )
            codes = target_codes.get(target)
            if codes is None:
                provider_key, server_ip, continent, region_code = target
                codes = target_codes[target] = (
                    encode("provider_key", provider_key),
                    encode("server_ip", server_ip),
                    encode("server_continent", continent),
                    encode("server_region", region_code),
                )
            transport_code, port = port_columns[port_index]
            timestamp_column.append(timestamp_code)
            prefix_codes.append(prefix_code)
            provider_codes.append(codes[0])
            ip_codes.append(codes[1])
            continent_codes.append(codes[2])
            region_codes.append(codes[3])
            transport_codes.append(transport_code)
            subscriber_ids.append(line_id)
            ip_versions.append(version)
            ports.append(port)
            count += 1
    table.append_columns(
        count,
        codes={
            "timestamp": timestamp_column,
            "subscriber_prefix": prefix_codes,
            "provider_key": provider_codes,
            "server_ip": ip_codes,
            "server_continent": continent_codes,
            "server_region": region_codes,
            "transport": transport_codes,
        },
        numeric={
            "subscriber_id": subscriber_ids,
            "ip_version": ip_versions,
            "port": ports,
            "bytes_down": repeat(SCAN_PROBE_BYTES_DOWN, count),
            "bytes_up": repeat(SCAN_PROBE_BYTES_UP, count),
            "packets_down": repeat(_SCAN_PACKETS_DOWN, count),
            "packets_up": repeat(_SCAN_PACKETS_UP, count),
            "sampled": repeat(0, count),
        },
    )
    return count
