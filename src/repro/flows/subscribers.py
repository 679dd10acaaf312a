"""Subscriber lines and their IoT devices.

The ISP vantage point serves more than fifteen million broadband subscriber lines;
the analyses identify more than 2.3 million IPv4 and roughly 200 thousand IPv6
lines with IoT activity per day.  The population here is a scaled-down version
with the same structure: a line is identified by its (anonymized) id, has an
address family, belongs to a BGP prefix of the ISP (used for anonymization), and
hosts zero or more IoT devices, each tied to one backend provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.providers import ProviderSpec
from repro.flows.devices import DeviceModel, build_device_model
from repro.simulation.rng import RngRegistry


@dataclass(frozen=True)
class DeviceInstance:
    """One IoT device installed behind a subscriber line."""

    device_id: str
    provider_key: str
    model: DeviceModel


@dataclass
class SubscriberLine:
    """A broadband subscriber line of the ISP."""

    line_id: int
    ip_version: int
    isp_prefix: str
    devices: Tuple[DeviceInstance, ...] = ()
    is_scanner: bool = False

    @property
    def has_iot(self) -> bool:
        """True when the line hosts at least one IoT device."""
        return bool(self.devices)

    def providers(self) -> List[str]:
        """Return the distinct provider keys of the line's devices."""
        return sorted({device.provider_key for device in self.devices})


@dataclass
class SubscriberPopulation:
    """The full subscriber-line population of the ISP."""

    lines: List[SubscriberLine] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.lines)

    def iot_lines(self) -> List[SubscriberLine]:
        """Return the lines hosting at least one IoT device."""
        return [line for line in self.lines if line.has_iot]

    def scanner_lines(self) -> List[SubscriberLine]:
        """Return the lines hosting a scanner."""
        return [line for line in self.lines if line.is_scanner]

    @classmethod
    def build(
        cls,
        n_lines: int,
        providers: Sequence[ProviderSpec],
        rng: RngRegistry,
        ipv6_line_fraction: float = 0.08,
        iot_household_fraction: float = 0.45,
        n_scanner_lines: int = 4,
        n_heavy_lines: int = 0,
        isp_prefix_count: int = 64,
    ) -> "SubscriberPopulation":
        """Build a population.

        Parameters
        ----------
        n_lines:
            Number of subscriber lines.
        providers:
            Provider catalog; each provider's ``traffic.subscriber_share`` gives the
            probability that an IoT household hosts one of its devices.
        ipv6_line_fraction:
            Fraction of lines using IPv6 connectivity.
        iot_household_fraction:
            Fraction of lines hosting at least one IoT device (the paper cites
            roughly half of North-American homes; we use it for the ISP too).
        n_scanner_lines:
            Number of lines hosting Internet-wide scanners (excluded in Section 5.2).
        n_heavy_lines:
            Number of additional "heavy" lines hosting devices from many providers,
            giving the scanner-threshold curve of Figure 5 its long tail.  Defaults
            to 1% of lines when 0, capped at the number of IoT lines; an explicit
            count above that number raises ``ValueError``.
        """
        if n_lines <= 0:
            raise ValueError("n_lines must be positive")
        stream = rng.stream("subscribers")
        models: Dict[str, DeviceModel] = {spec.key: build_device_model(spec) for spec in providers}
        explicit_heavy = n_heavy_lines > 0
        if not explicit_heavy:
            n_heavy_lines = max(1, n_lines // 100)
        population = cls()
        for line_id in range(n_lines):
            ip_version = 6 if stream.random() < ipv6_line_fraction else 4
            prefix_index = stream.randrange(isp_prefix_count)
            isp_prefix = f"isp-prefix-{ip_version}-{prefix_index:03d}"
            devices: List[DeviceInstance] = []
            if stream.random() < iot_household_fraction:
                for spec in providers:
                    if stream.random() < spec.traffic.subscriber_share:
                        devices.append(
                            DeviceInstance(
                                device_id=f"line{line_id}-{spec.key}",
                                provider_key=spec.key,
                                model=models[spec.key],
                            )
                        )
            population.lines.append(
                SubscriberLine(
                    line_id=line_id,
                    ip_version=ip_version,
                    isp_prefix=isp_prefix,
                    devices=tuple(devices),
                )
            )
        _mark_heavy_lines(population, providers, models, n_heavy_lines, rng, explicit_heavy)
        _mark_scanner_lines(population, n_scanner_lines, rng)
        return population


def _mark_heavy_lines(
    population: SubscriberPopulation,
    providers: Sequence[ProviderSpec],
    models: Dict[str, DeviceModel],
    n_heavy_lines: int,
    rng: RngRegistry,
    explicit: bool,
) -> None:
    """Upgrade a few lines to host devices from many providers (long-tail households).

    Only the lines with IoT devices qualify: an ``explicit`` count above their
    number raises ``ValueError``, the derived default is capped at it.
    """
    stream = rng.stream("heavy-lines")
    iot_lines = population.iot_lines()
    if explicit and n_heavy_lines > len(iot_lines):
        raise ValueError(
            f"n_heavy_lines ({n_heavy_lines}) exceeds the {len(iot_lines)} lines with IoT devices"
        )
    if not iot_lines:
        return
    n_heavy_lines = min(n_heavy_lines, len(iot_lines))
    chosen = stream.sample(iot_lines, n_heavy_lines)
    for line in chosen:
        extra: List[DeviceInstance] = list(line.devices)
        present = {device.provider_key for device in extra}
        for spec in providers:
            if spec.key in present:
                continue
            if stream.random() < 0.5:
                extra.append(
                    DeviceInstance(
                        device_id=f"line{line.line_id}-{spec.key}",
                        provider_key=spec.key,
                        model=models[spec.key],
                    )
                )
        line.devices = tuple(extra)


def _mark_scanner_lines(
    population: SubscriberPopulation, n_scanner_lines: int, rng: RngRegistry
) -> None:
    """Mark a few lines as hosting Internet-wide scanners."""
    stream = rng.stream("scanner-lines")
    n_scanner_lines = min(n_scanner_lines, len(population.lines))
    if n_scanner_lines <= 0:
        return
    chosen = stream.sample(population.lines, n_scanner_lines)
    for line in chosen:
        line.is_scanner = True
