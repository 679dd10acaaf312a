"""IoT device and application models.

Section 5 of the paper observes that IoT applications differ vastly: some behave
like typical user-generated traffic (diurnal pattern, evening peak, downstream
heavy), others are constant machine-to-machine telemetry, upstream-heavy
surveillance, or business-hour bulk transfers.  The device models here encode those
behavioural classes; each provider's :class:`~repro.core.providers.TrafficProfile`
selects one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.providers import ProviderSpec
from repro.flows.kernels import fold_sum


@dataclass(frozen=True)
class ActivityProfile:
    """Hourly activity weights of an application class.

    ``hourly_weights`` holds 24 non-negative values; they are normalised so the
    expected number of *active device hours* per day equals ``active_hours_per_day``.
    """

    name: str
    hourly_weights: Tuple[float, ...]
    active_hours_per_day: float = 6.0

    def __post_init__(self) -> None:
        if len(self.hourly_weights) != 24:
            raise ValueError("an activity profile needs exactly 24 hourly weights")
        if min(self.hourly_weights) < 0:
            raise ValueError("hourly weights must be non-negative")
        if sum(self.hourly_weights) == 0:
            raise ValueError("hourly weights must not all be zero")

    def activity_probability(self, hour: int) -> float:
        """Probability that a device of this class is active during an hour."""
        total = fold_sum(self.hourly_weights)
        probability = self.hourly_weights[hour % 24] / total * self.active_hours_per_day
        return min(1.0, probability)

    def weight_share(self, hour: int) -> float:
        """Share of the day's traffic generated in this hour, given the device is active."""
        total = fold_sum(self.hourly_weights)
        return self.hourly_weights[hour % 24] / total


def _flat(value: float = 1.0) -> Tuple[float, ...]:
    return tuple(value for _ in range(24))


def _peaked(peak_hours: Sequence[int], base: float = 0.3, peak: float = 1.0) -> Tuple[float, ...]:
    return tuple(peak if hour in peak_hours else base for hour in range(24))


#: Application classes used by the provider traffic profiles.
ACTIVITY_PROFILES: Dict[str, ActivityProfile] = {
    # Entertainment-adjacent devices: clear diurnal pattern, prime-time evening peak.
    "prime_time": ActivityProfile(
        "prime_time", _peaked(range(18, 23), base=0.25, peak=1.0), active_hours_per_day=7.0
    ),
    # Machine-to-machine telemetry: flat around the clock.
    "constant_telemetry": ActivityProfile("constant_telemetry", _flat(), active_hours_per_day=20.0),
    # Devices used throughout the waking day (8 am -- 8 pm), flat within it.
    "daytime": ActivityProfile(
        "daytime", _peaked(range(8, 20), base=0.15, peak=1.0), active_hours_per_day=10.0
    ),
    # Industrial / office deployments: business hours only.
    "business_hours": ActivityProfile(
        "business_hours", _peaked(range(8, 18), base=0.1, peak=1.0), active_hours_per_day=8.0
    ),
    # Cameras and monitors uploading continuously with a slight daytime bump.
    "surveillance_upload": ActivityProfile(
        "surveillance_upload", _peaked(range(7, 22), base=0.7, peak=1.0), active_hours_per_day=18.0
    ),
    # Bulk message ingestion over AMQP: constant, heavy transfers.
    "amqp_bulk": ActivityProfile("amqp_bulk", _flat(), active_hours_per_day=16.0),
}


@dataclass(frozen=True)
class DeviceModel:
    """Traffic model for the devices of one provider.

    Attributes
    ----------
    provider_key:
        The backend provider the devices talk to.
    profile:
        The diurnal activity profile.
    mean_daily_down_bytes / mean_daily_up_bytes:
        Mean daily traffic per active device.
    port_weights:
        Relative share of traffic per (transport, port) pair; determines the
        provider's port mix (Figure 11).
    global_server_selection:
        When True, devices pick servers from the provider's whole fleet instead of
        preferring the nearest region (drives near-complete backend visibility for
        providers like the paper's T2).
    """

    provider_key: str
    profile: ActivityProfile
    mean_daily_down_bytes: float
    mean_daily_up_bytes: float
    port_weights: Tuple[Tuple[Tuple[str, int], float], ...]
    eu_share: float
    global_server_selection: bool = False

    def ports(self) -> List[Tuple[str, int]]:
        """Return the (transport, port) pairs the devices use."""
        return [pair for pair, _weight in self.port_weights]


#: Providers whose devices are spread across the whole server fleet.
_GLOBAL_SELECTION_PROVIDERS = ("microsoft",)


def _port_weights_for(spec: ProviderSpec) -> Tuple[Tuple[Tuple[str, int], float], ...]:
    """Derive per-port traffic weights from a provider's documented protocols.

    Heuristics mirroring Figure 11: MQTT over TLS carries the bulk of telemetry,
    Web ports carry most content-style traffic, AMQP dominates for bulk-ingestion
    providers, and non-standard ports receive a small share.
    """
    weights: Dict[Tuple[str, int], float] = {}
    application = spec.traffic.application
    for offering in spec.protocols:
        pair = (offering.transport, offering.port)
        protocol = offering.protocol.upper()
        if protocol in ("MQTTS",):
            weight = 0.45
        elif protocol == "MQTT" and offering.port == 443:
            weight = 0.30
        elif protocol == "MQTT":
            weight = 0.20
        elif protocol in ("HTTPS", "AGNOSTIC"):
            weight = 0.35
        elif protocol == "HTTP":
            weight = 0.05
        elif protocol in ("AMQPS", "AMQP"):
            weight = 0.70 if application == "amqp_bulk" else 0.10
        elif protocol in ("COAP", "COAPS"):
            weight = 0.08
        elif protocol == "ACTIVEMQ":
            weight = 0.40
        else:
            weight = 0.05
        weights[pair] = max(weights.get(pair, 0.0), weight)
    ordered = tuple(sorted(weights.items(), key=lambda item: (-item[1], item[0])))
    return ordered


def build_device_model(spec: ProviderSpec) -> DeviceModel:
    """Build the device model for one provider from its traffic profile."""
    profile = ACTIVITY_PROFILES[spec.traffic.application]
    return DeviceModel(
        provider_key=spec.key,
        profile=profile,
        mean_daily_down_bytes=spec.traffic.mean_daily_down_kb * 1024.0,
        mean_daily_up_bytes=spec.traffic.mean_daily_up_kb * 1024.0,
        port_weights=_port_weights_for(spec),
        eu_share=spec.traffic.eu_share,
        global_server_selection=spec.key in _GLOBAL_SELECTION_PROVIDERS,
    )
