"""Flow records and packet-sampled NetFlow export.

The ISP monitors traffic with NetFlow at all border routers using a consistent
packet-sampling rate; only header data (no payload) is captured, and subscriber
addresses are anonymized by BGP prefix before the data is stored (Section 3.7,
5.1).  Analyses therefore work on *sampled* byte and packet counts and scale them
back by the sampling rate when estimating exchanged volumes (Section 5.6).

:meth:`NetFlowCollector.export_table` samples a
:class:`~repro.flows.flowtable.FlowTable` column-wise, batching the binomial
draws in one pass over each packet-count column.  Each direction draws from its
own stream (``netflow-sampling:down`` / ``netflow-sampling:up``), one draw per
row in row order, so export is bit-identical under a fixed seed.  Flows whose
sampled packet count is zero in both directions are not exported — including
at ``sampling_ratio == 1``, where a flow with no packets was never visible to
the collector in the first place.

:class:`FlowRecord` is one row of a table as
:meth:`~repro.flows.flowtable.FlowTable.to_records` materializes it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from itertools import compress
from typing import List, Sequence, TYPE_CHECKING

from repro.flows import kernels
from repro.simulation.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flowtable stores FlowRecords)
    from repro.flows.flowtable import FlowTable

#: Approximate bytes per packet used to derive packet counts from byte volumes:
#: a direction with a positive volume carries ``ceil(bytes / 900)`` packets,
#: at least one, and a direction with none carries zero.  The generator's two
#: column builders and the scanner's probe constants apply this rule.
DEFAULT_PACKET_SIZE = 900


@dataclass(frozen=True)
class FlowRecord:
    """One (aggregated, hourly) flow between a subscriber line and a backend server.

    ``bytes_down``/``packets_down`` describe the server-to-subscriber direction
    (downstream); ``bytes_up``/``packets_up`` the reverse.  ``sampled`` marks
    records that have gone through NetFlow packet sampling; their counts must be
    multiplied by the sampling ratio for volume estimates.
    """

    timestamp: datetime
    subscriber_id: int
    subscriber_prefix: str
    ip_version: int
    provider_key: str
    server_ip: str
    server_continent: str
    server_region: str
    transport: str
    port: int
    bytes_down: float
    bytes_up: float
    packets_down: int
    packets_up: int
    sampled: bool = False


class NetFlowCollector:
    """Packet-sampled NetFlow export.

    Parameters
    ----------
    sampling_ratio:
        One out of ``sampling_ratio`` packets is sampled (1 means no sampling).
        The same ratio applies at every border router, as at the ISP.
    """

    def __init__(self, sampling_ratio: int = 1) -> None:
        if sampling_ratio < 1:
            raise ValueError("sampling_ratio must be >= 1")
        self.sampling_ratio = sampling_ratio

    def export_table(self, table: "FlowTable", rng: RngRegistry) -> "FlowTable":
        """Apply packet sampling to every row of a flow table.

        Each packet of a flow is sampled independently with probability
        ``1/sampling_ratio``; flows whose sampled packet count is zero in both
        directions are not exported (they were invisible to the collector).
        The same visibility rule applies without sampling: a flow that carried
        no packets at all never reached a border router.  Sampled byte counts
        scale with the sampled share of each direction's packets.

        The binomial draws are batched per sampling stream (one pass over the
        downstream packet column, one over the upstream column); the
        visibility mask and the row filter run on the kernel layer.
        """
        packets_down = table.numeric("packets_down")
        packets_up = table.numeric("packets_up")
        if self.sampling_ratio == 1:
            exported = table.select_mask(kernels.nonzero_mask(packets_down, packets_up))
            exported.assign_numeric("sampled", array("b", [1]) * len(exported))
            return exported
        probability = 1.0 / self.sampling_ratio
        sampled_down = _binomial_many(
            rng.stream("netflow-sampling:down"), packets_down, probability
        )
        sampled_up = _binomial_many(
            rng.stream("netflow-sampling:up"), packets_up, probability
        )
        mask = kernels.nonzero_mask(sampled_down, sampled_up)
        exported = table.select_mask(mask)
        exported.assign_numeric(
            "bytes_down",
            [
                original * (sampled / count) if count else 0.0
                for original, sampled, count in zip(
                    compress(table.numeric("bytes_down"), mask),
                    compress(sampled_down, mask),
                    compress(packets_down, mask),
                )
            ],
        )
        exported.assign_numeric(
            "bytes_up",
            [
                original * (sampled / count) if count else 0.0
                for original, sampled, count in zip(
                    compress(table.numeric("bytes_up"), mask),
                    compress(sampled_up, mask),
                    compress(packets_up, mask),
                )
            ],
        )
        exported.assign_numeric("packets_down", compress(sampled_down, mask))
        exported.assign_numeric("packets_up", compress(sampled_up, mask))
        exported.assign_numeric("sampled", array("b", [1]) * len(exported))
        return exported

    def estimate_bytes(self, sampled_bytes: float) -> float:
        """Scale sampled byte counts back to an estimate of the true volume."""
        return sampled_bytes * self.sampling_ratio


def _binomial_many(stream, counts: Sequence[int], p: float) -> List[int]:
    """One binomial draw per entry of a packet-count column.

    Draws are exact (one uniform per packet) for counts up to 64 and use the
    normal approximation above, clamped to ``[0, n]``.  Binding the stream
    methods once saves the per-call dispatch on the export hot path.
    """
    if p <= 0.0:
        return [0] * len(counts)
    if p >= 1.0:
        return list(counts)
    rand = stream.random
    gauss = stream.gauss
    sqrt = math.sqrt
    results: List[int] = []
    append = results.append
    for n in counts:
        if n <= 0:
            append(0)
        elif n <= 64:
            hits = 0
            for _ in range(n):
                if rand() < p:
                    hits += 1
            append(hits)
        else:
            mean = n * p
            std = sqrt(n * p * (1.0 - p))
            value = int(round(gauss(mean, std)))
            append(max(0, min(n, value)))
    return results
