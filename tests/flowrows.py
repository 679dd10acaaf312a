"""Flow rows for tests: a record factory and the column-wise append.

The program builds a :class:`~repro.flows.flowtable.FlowTable` column-wise:
values are interned with ``encode_value`` and rows appended with
``append_columns``.  Tests state their inputs as
:class:`~repro.flows.netflow.FlowRecord` rows; :func:`append_records` turns
rows into columns through those same two primitives, interning each
column's values in row order, and ``FlowTable.to_records`` reads them back.
"""

from __future__ import annotations

import math
from datetime import datetime
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.flows.flowtable import CATEGORICAL_COLUMNS, NUMERIC_COLUMNS, FlowTable
from repro.flows.netflow import DEFAULT_PACKET_SIZE, FlowRecord


def packets(volume: float) -> int:
    """The packet count the generator derives from one direction's bytes."""
    return max(1, int(math.ceil(volume / DEFAULT_PACKET_SIZE))) if volume > 0 else 0


def make_flow(
    timestamp: datetime,
    subscriber_id: int,
    subscriber_prefix: str,
    ip_version: int,
    provider_key: str,
    server_ip: str,
    server_continent: str,
    server_region: str,
    transport: str,
    port: int,
    bytes_down: float,
    bytes_up: float,
) -> FlowRecord:
    """One unsampled flow record, its packet counts derived from its volumes."""
    return FlowRecord(
        timestamp=timestamp,
        subscriber_id=subscriber_id,
        subscriber_prefix=subscriber_prefix,
        ip_version=ip_version,
        provider_key=provider_key,
        server_ip=server_ip,
        server_continent=server_continent,
        server_region=server_region,
        transport=transport,
        port=port,
        bytes_down=float(bytes_down),
        bytes_up=float(bytes_up),
        packets_down=packets(bytes_down),
        packets_up=packets(bytes_up),
    )


def columns_of(
    table: FlowTable, records: Sequence[FlowRecord]
) -> Tuple[Dict[str, List[int]], Dict[str, List[object]]]:
    """The ``append_columns`` arguments for ``records``, values interned in
    ``table``'s pools in row order."""
    codes = {
        name: [table.encode_value(name, getattr(record, name)) for record in records]
        for name in CATEGORICAL_COLUMNS
    }
    numeric = {
        name: [getattr(record, name) for record in records] for name, _typecode in NUMERIC_COLUMNS
    }
    numeric["sampled"] = [1 if record.sampled else 0 for record in records]
    return codes, numeric


def append_records(table: FlowTable, records: Iterable[FlowRecord]) -> None:
    """Append records through ``encode_value`` and one ``append_columns`` call."""
    records = list(records)
    table.append_columns(len(records), *columns_of(table, records))


def from_records(records: Iterable[FlowRecord]) -> FlowTable:
    """A new table holding ``records`` in order."""
    table = FlowTable()
    append_records(table, records)
    return table
