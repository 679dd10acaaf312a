"""The paper's core contribution: IoT backend discovery methodology and analyses.

Modules
-------
``providers``
    Catalog of the 16 IoT backend providers (Table 1) and their documented
    characteristics.
``patterns``
    Domain-pattern model and regular-expression generation (Section 3.2, Appendix A).
``discovery``
    Multi-source IP discovery: TLS certificates, IPv6 scans, passive DNS, active DNS
    (Section 3.3).
``validation``
    Shared-vs-dedicated classification and ground-truth validation (Section 3.4).
``source_attribution``
    Per-source contribution of discovered IPs (Section 3.5, Figure 3).
``stability``
    Day-over-day churn of discovered IP sets (Section 4.1, Figure 4).
``footprint``
    Geolocation, AS/prefix diversity, deployment strategy, protocol support
    (Sections 4.2--4.4, Table 1).
``traffic``
    ISP traffic-flow analyses (Section 5, Figures 5--14).
``disruption``
    Outage, BGP-event, and blocklist analyses (Section 6, Figures 15--16).
``pipeline``
    End-to-end orchestration of the methodology (Figure 2).
``report``
    Table/figure data structures and text rendering.
"""

from repro.core.providers import PROVIDERS, ProviderSpec, get_provider
from repro.core.pipeline import DiscoveryPipeline, PipelineResult

__all__ = [
    "PROVIDERS",
    "ProviderSpec",
    "get_provider",
    "DiscoveryPipeline",
    "PipelineResult",
]
