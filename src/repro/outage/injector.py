"""Cloud-region outage events and their effect on IoT traffic.

Section 6.1 analyses the December 7 2021 outage of AWS ``us-east-1``: downstream
traffic from the affected region dropped by more than 14.5% below the previous
week's minimum, while the number of subscriber lines barely changed because devices
kept retrying against their assigned region.  The EU regions, serving more than
three times the traffic of the US east region, showed only slight dips.

:class:`OutageSchedule` encodes such events; the workload generator consults it to
scale the traffic (and, slightly, the set of active devices) of flows served by
servers in the affected region during the outage window.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, time
from typing import Iterable, List, Optional, Tuple

from repro.simulation.clock import AWS_OUTAGE_DATE, AWS_OUTAGE_HOURS


@dataclass(frozen=True)
class OutageEvent:
    """A capacity outage of a cloud provider region.

    Attributes
    ----------
    cloud_organization:
        The affected hosting organisation (e.g. ``Amazon Web Services``).
    region_codes:
        The affected cloud regions (e.g. ``us-east-1``).
    start / end:
        The outage window (half-open, local ISP time).
    traffic_retention:
        Fraction of normal downstream/upstream traffic still served during the
        outage (e.g. 0.5 means traffic is halved).
    device_retention:
        Fraction of devices that still appear active (devices keep retrying, so
        this stays close to 1.0).
    """

    name: str
    cloud_organization: str
    region_codes: Tuple[str, ...]
    start: datetime
    end: datetime
    traffic_retention: float = 0.5
    device_retention: float = 0.95

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("outage end must be after start")
        if not 0.0 <= self.traffic_retention <= 1.0:
            raise ValueError("traffic_retention must be within [0, 1]")
        if not 0.0 <= self.device_retention <= 1.0:
            raise ValueError("device_retention must be within [0, 1]")

    def active_at(self, when: datetime) -> bool:
        """Return True when the outage is in effect at the given instant."""
        return self.start <= when < self.end

    def affects(self, cloud_organization: Optional[str], region_code: str) -> bool:
        """Return True when a server hosted by (org, region) is impacted."""
        if cloud_organization is None or cloud_organization != self.cloud_organization:
            return False
        return region_code in self.region_codes


class OutageSchedule:
    """A collection of outage events consulted by the workload generator."""

    def __init__(self, events: Iterable[OutageEvent] = ()) -> None:
        self._events: List[OutageEvent] = list(events)

    def events(self) -> List[OutageEvent]:
        """Return every scheduled event."""
        return list(self._events)

    def traffic_factor(
        self, cloud_organization: Optional[str], region_code: str, when: datetime
    ) -> float:
        """Return the traffic multiplier for a server at a given time (1.0 = normal)."""
        factor = 1.0
        for event in self._events:
            if event.active_at(when) and event.affects(cloud_organization, region_code):
                factor = min(factor, event.traffic_retention)
        return factor

    def device_factor(
        self, cloud_organization: Optional[str], region_code: str, when: datetime
    ) -> float:
        """Return the active-device multiplier for a server at a given time."""
        factor = 1.0
        for event in self._events:
            if event.active_at(when) and event.affects(cloud_organization, region_code):
                factor = min(factor, event.device_retention)
        return factor

    def __len__(self) -> int:
        return len(self._events)


def aws_us_east_1_outage(
    traffic_retention: float = 0.45,
    device_retention: float = 0.88,
) -> OutageEvent:
    """Return the December 7 2021 AWS ``us-east-1`` outage event used in Section 6.1."""
    start_hour, end_hour = AWS_OUTAGE_HOURS
    return OutageEvent(
        name="aws-us-east-1-2021-12-07",
        cloud_organization="Amazon Web Services",
        region_codes=("us-east-1",),
        start=datetime.combine(AWS_OUTAGE_DATE, time(hour=start_hour)),
        end=datetime.combine(AWS_OUTAGE_DATE, time(hour=end_hour)),
        traffic_retention=traffic_retention,
        device_retention=device_retention,
    )
