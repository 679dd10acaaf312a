"""Scenario configuration.

A :class:`ScenarioConfig` fully determines the synthetic world: the same
configuration always produces the same deployments, DNS contents, scan snapshots,
and flows.  The defaults are sized so the complete pipeline (world build, one week
of flows, discovery, all analyses) runs in well under a minute on a laptop; the
``small()`` preset is used by unit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from repro.simulation.clock import MAIN_STUDY_PERIOD, OUTAGE_STUDY_PERIOD, StudyPeriod


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs of the synthetic measurement scenario."""

    # Determinism
    seed: int = 7

    # Deployment scale
    scale: float = 0.02
    min_ipv4_servers: int = 3
    min_ipv6_servers: int = 1

    # ISP population
    n_subscriber_lines: int = 4000
    ipv6_line_fraction: float = 0.08
    iot_household_fraction: float = 0.45
    n_scanner_lines: int = 4
    n_heavy_lines: int = 0  # 0 means "1% of lines"
    isp_prefix_count: int = 64

    # NetFlow
    sampling_ratio: int = 1

    # Workload
    servers_per_device: int = 2
    volume_sigma: float = 0.75

    # Measurement services
    geolocation_error_rate: float = 0.03
    n_non_iot_hosts: int = 40
    shared_domains_per_ip: int = 25
    n_background_dns_records: int = 200
    n_blocklisted_backend_ips: int = 12

    # Study periods
    study_period: StudyPeriod = MAIN_STUDY_PERIOD
    outage_period: StudyPeriod = OUTAGE_STUDY_PERIOD

    # Validation behaviour of the methodology
    shared_ip_domain_threshold: int = 10

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type in ("float", float) and not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value!r}")
            if spec.type in ("int", int) and spec.name != "seed" and value < 0:
                raise ValueError(f"{spec.name} must be >= 0, got {value!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.n_subscriber_lines <= 0:
            raise ValueError("n_subscriber_lines must be positive")
        for name in ("n_scanner_lines", "n_heavy_lines"):
            if getattr(self, name) > self.n_subscriber_lines:
                raise ValueError(
                    f"{name} ({getattr(self, name)}) exceeds n_subscriber_lines "
                    f"({self.n_subscriber_lines})"
                )
        if self.sampling_ratio < 1:
            raise ValueError("sampling_ratio must be >= 1")
        if self.servers_per_device < 1:
            raise ValueError("servers_per_device must be >= 1")
        if self.volume_sigma < 0:
            raise ValueError("volume_sigma must be non-negative")
        if not 0.0 <= self.ipv6_line_fraction <= 1.0:
            raise ValueError("ipv6_line_fraction must be within [0, 1]")
        if not 0.0 <= self.iot_household_fraction <= 1.0:
            raise ValueError("iot_household_fraction must be within [0, 1]")
        if not 0.0 <= self.geolocation_error_rate <= 1.0:
            raise ValueError("geolocation_error_rate must be within [0, 1]")
        if self.isp_prefix_count < 1:
            raise ValueError("isp_prefix_count must be >= 1")

    @classmethod
    def small(cls, seed: int = 7) -> "ScenarioConfig":
        """A reduced scenario for fast unit tests."""
        return cls(
            seed=seed,
            scale=0.01,
            n_subscriber_lines=800,
            n_non_iot_hosts=10,
            n_background_dns_records=40,
            n_blocklisted_backend_ips=6,
        )

    @classmethod
    def default(cls, seed: int = 7) -> "ScenarioConfig":
        """The default benchmark scenario."""
        return cls(seed=seed)

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
