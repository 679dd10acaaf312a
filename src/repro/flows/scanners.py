"""Scanner traffic injection.

A small number of subscriber lines host Internet-wide scanners; their traffic
touches a large fraction of all backend server addresses and would bias the
visibility analysis, which is why the paper identifies and excludes them with a
threshold on the number of contacted backend IPs (Section 5.2, Figure 5).  This
module generates the scan flows for the lines marked as scanners in the population.

:func:`append_scanner_flows` appends one day of scan traffic straight into
``FlowTable`` columns.  :func:`_scan_plans` performs every draw of the
``scanner-traffic`` stream (coverage, target sample, probe hour and port per
target) in one pass per scanner line, the hour and port as the inlined
``getrandbits`` rejection loops that ``randrange`` runs.  The append builds
each column in C: each distinct hour and target is encoded once, in the order
the rows first reference it (pools are per column, so that keeps every pool's
order), code columns are mapped from those codes and constant columns are
repeated arrays.
"""

from __future__ import annotations

import math
from array import array
from datetime import date, datetime, time
from itertools import chain
from typing import List, Sequence, Tuple

from repro.flows.flowtable import FlowTable
from repro.flows.netflow import DEFAULT_PACKET_SIZE
from repro.flows.subscribers import SubscriberLine
from repro.simulation.rng import RngRegistry

#: Bytes exchanged per scan probe (a SYN plus a small banner exchange).
SCAN_PROBE_BYTES_UP = 180.0
SCAN_PROBE_BYTES_DOWN = 320.0

#: Ports a scanner sweeps (standard IoT and Web ports).
SCAN_PORTS = (("tcp", 443), ("tcp", 8883), ("tcp", 1883), ("tcp", 5671))

#: Packet counts of one probe, by the rule of :data:`~repro.flows.netflow.DEFAULT_PACKET_SIZE`.
_SCAN_PACKETS_DOWN = max(1, int(math.ceil(SCAN_PROBE_BYTES_DOWN / DEFAULT_PACKET_SIZE)))
_SCAN_PACKETS_UP = max(1, int(math.ceil(SCAN_PROBE_BYTES_UP / DEFAULT_PACKET_SIZE)))

#: The columns of a catalog tuple's four fields, in tuple order.
_TARGET_COLUMNS = ("provider_key", "server_ip", "server_continent", "server_region")

_ScanPlan = Tuple[SubscriberLine, List[tuple], List[int], List[int]]

#: Bit widths of the hour and port-index draws (``randrange``'s ``k``).
_HOUR_BITS = (24).bit_length()
_PORT_BITS = len(SCAN_PORTS).bit_length()


def _scan_plans(
    scanner_lines: Sequence[SubscriberLine],
    catalog: Sequence[tuple],
    rng: RngRegistry,
    coverage_range: tuple,
) -> List[_ScanPlan]:
    """Draw each scanner's (targets, hours, port indexes) for one day.

    The registered streams carry state across days, so consecutive days scan
    different catalog subsets, as at the ISP.  Per target, the hour is
    ``getrandbits(5)`` redrawn until below 24 and the port index
    ``getrandbits(3)`` redrawn until below 4, the draws ``randrange`` makes.
    """
    stream = rng.stream("scanner-traffic")
    plans: List[_ScanPlan] = []
    catalog = list(catalog)
    if not catalog:
        return plans
    low, high = coverage_range
    getrandbits = stream.getrandbits
    n_ports = len(SCAN_PORTS)
    for line in scanner_lines:
        if not line.is_scanner:
            continue
        coverage = stream.uniform(low, high)
        n_targets = max(1, int(round(coverage * len(catalog))))
        targets = stream.sample(catalog, n_targets)
        hours: List[int] = []
        port_indexes: List[int] = []
        add_hour = hours.append
        add_port = port_indexes.append
        for _ in range(n_targets):
            hour = getrandbits(_HOUR_BITS)
            while hour >= 24:
                hour = getrandbits(_HOUR_BITS)
            port = getrandbits(_PORT_BITS)
            while port >= n_ports:
                port = getrandbits(_PORT_BITS)
            add_hour(hour)
            add_port(port)
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
    transport_codes = [encode("transport", transport) for transport, _port in SCAN_PORTS]
    port_numbers = [port for _transport, port in SCAN_PORTS]
    prefix_codes = array("i")
    subscriber_ids = array("q")
    ip_versions = array("b")
    for line, line_targets, _hours, _ports in plans:
        n = len(line_targets)
        prefix_codes += array("i", [encode("subscriber_prefix", line.isp_prefix)]) * n
        subscriber_ids += array("q", [line.line_id]) * n
        ip_versions += array("b", [line.ip_version]) * n
    targets = list(chain.from_iterable(plan[1] for plan in plans))
    hours = list(chain.from_iterable(plan[2] for plan in plans))
    port_indexes = list(chain.from_iterable(plan[3] for plan in plans))
    count = len(targets)
    # Each distinct hour and target is encoded once, in the order the rows
    # first reference it, which keeps every pool in first-appearance order.
    timestamp_of = {
        hour: encode("timestamp", datetime.combine(day, time(hour=hour)))
        for hour in dict.fromkeys(hours)
    }
    distinct_targets = list(dict.fromkeys(targets))
    codes = {
        "timestamp": map(timestamp_of.__getitem__, hours),
        "subscriber_prefix": prefix_codes,
        "transport": map(transport_codes.__getitem__, port_indexes),
    }
    for position, name in enumerate(_TARGET_COLUMNS):
        code_of = {target: encode(name, target[position]) for target in distinct_targets}
        codes[name] = map(code_of.__getitem__, targets)
    table.append_columns(
        count,
        codes=codes,
        numeric={
            "subscriber_id": subscriber_ids,
            "ip_version": ip_versions,
            "port": map(port_numbers.__getitem__, port_indexes),
            "bytes_down": array("d", [SCAN_PROBE_BYTES_DOWN]) * count,
            "bytes_up": array("d", [SCAN_PROBE_BYTES_UP]) * count,
            "packets_down": array("q", [_SCAN_PACKETS_DOWN]) * count,
            "packets_up": array("q", [_SCAN_PACKETS_UP]) * count,
            "sampled": array("b", bytes(count)),
        },
    )
    return count
