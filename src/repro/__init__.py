"""Reproduction of "Deep Dive into the IoT Backend Ecosystem" (IMC 2022).

The package is organised in two layers:

* Substrates (``repro.netmodel``, ``repro.dns``, ``repro.scan``, ``repro.protocols``,
  ``repro.routing``, ``repro.flows``, ``repro.security``, ``repro.outage``,
  ``repro.simulation``) model the measurement environment the paper's authors had
  access to: an Internet address space with provider deployments, DNS, TLS
  certificates, scanning services, the registry of IoT ports, BGP routing, an ISP
  NetFlow vantage point, blocklists, and outages.

* The core contribution (``repro.core``) implements the paper's methodology:
  domain-pattern generation, multi-source backend discovery, validation, footprint
  characterization, ISP traffic analyses, and disruption analyses.  Baselines used
  by the paper for comparison live in ``repro.baselines``.

The top-level namespace re-exports the most commonly used entry points.
"""

from repro.simulation.config import ScenarioConfig
from repro.simulation.world import World, build_world
from repro.core.pipeline import DiscoveryPipeline, PipelineResult
from repro.core.providers import PROVIDERS, ProviderSpec, get_provider

__all__ = [
    "ScenarioConfig",
    "World",
    "build_world",
    "DiscoveryPipeline",
    "PipelineResult",
    "PROVIDERS",
    "ProviderSpec",
    "get_provider",
]

__version__ = "1.0.0"
