"""Provider domain-naming schemes and FQDN construction.

Section 3.2 of the paper observes that IoT backend domains typically follow the
structure ``<subdomain>.<region>.<second-level-domain>``, where the subdomain is
either a per-customer identifier (a hash or tenant name), a service label that may
embed the protocol (``iot-mqtts``, ``iot-as-http``), or absent; the region part is a
city, airport code, or cloud region code; and a few providers (Google) use fixed
FQDNs shared by all customers.

:class:`DomainNamingScheme` captures this structure for one provider.  The world
builder uses it to generate the ground-truth domain names of backend servers, and
the pattern builder (:mod:`repro.core.patterns`) uses the *same* structural
knowledge — as the authors obtained it from documentation — to generate regular
expressions.  This mirrors the paper's setup where the naming scheme is public
while the concrete customer identifiers are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: The subdomain carries a per-customer identifier (hash or tenant name).
SUBDOMAIN_CUSTOMER = "customer"
#: The subdomain is one of a fixed set of service labels (may embed the protocol).
SUBDOMAIN_SERVICE = "service"
#: The provider uses fixed, fully-qualified domain names for all customers.
SUBDOMAIN_FIXED = "fixed"

#: The region label is a cloud-style region code (``eu-central-1``).
REGION_STYLE_CODE = "region-code"
#: The region label is an airport code (``fra``).
REGION_STYLE_AIRPORT = "airport"
#: The region label is a short city or zone name (``eu1``).
REGION_STYLE_ZONE = "zone"
#: No region label appears in the name.
REGION_STYLE_NONE = "none"


@dataclass(frozen=True)
class DomainNamingScheme:
    """The documented domain-name structure of one IoT backend provider.

    Attributes
    ----------
    second_level_domain:
        The registrable suffix under which backend names live
        (e.g. ``amazonaws.com``, ``azure-devices.net``).
    subdomain_kind:
        One of :data:`SUBDOMAIN_CUSTOMER`, :data:`SUBDOMAIN_SERVICE`,
        :data:`SUBDOMAIN_FIXED`.
    service_labels:
        The service labels used when ``subdomain_kind`` involves services, or the
        infix labels inserted between customer id and region (e.g. ``iot``).
    region_style:
        How the region appears in names.
    fixed_fqdns:
        For :data:`SUBDOMAIN_FIXED` schemes, the complete FQDNs.
    zone_labels:
        For :data:`REGION_STYLE_ZONE`, the zone labels used by the provider
        (e.g. ``eu1``, ``na``).
    """

    second_level_domain: str
    subdomain_kind: str = SUBDOMAIN_CUSTOMER
    service_labels: Tuple[str, ...] = ("iot",)
    region_style: str = REGION_STYLE_CODE
    fixed_fqdns: Tuple[str, ...] = ()
    zone_labels: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.subdomain_kind not in (SUBDOMAIN_CUSTOMER, SUBDOMAIN_SERVICE, SUBDOMAIN_FIXED):
            raise ValueError(f"unknown subdomain kind {self.subdomain_kind!r}")
        if self.region_style not in (
            REGION_STYLE_CODE,
            REGION_STYLE_AIRPORT,
            REGION_STYLE_ZONE,
            REGION_STYLE_NONE,
        ):
            raise ValueError(f"unknown region style {self.region_style!r}")
        if self.subdomain_kind == SUBDOMAIN_FIXED and not self.fixed_fqdns:
            raise ValueError("fixed naming schemes must list their FQDNs")


def region_label(scheme: DomainNamingScheme, region_code: str, airport_code: str,
                 zone_index: int = 0) -> Optional[str]:
    """Return the label a provider would embed for a given location, or None."""
    if scheme.region_style == REGION_STYLE_CODE:
        return region_code
    if scheme.region_style == REGION_STYLE_AIRPORT:
        return airport_code
    if scheme.region_style == REGION_STYLE_ZONE:
        if not scheme.zone_labels:
            return None
        return scheme.zone_labels[zone_index % len(scheme.zone_labels)]
    return None


def build_fqdn(
    scheme: DomainNamingScheme,
    customer_id: Optional[str] = None,
    service_label: Optional[str] = None,
    region: Optional[str] = None,
) -> str:
    """Construct a fully-qualified backend domain name for a provider.

    The structure follows Section 3.2: ``<subdomain>.<region>.<second-level-domain>``
    where individual parts may be absent depending on the provider's scheme.

    Parameters
    ----------
    scheme:
        The provider's naming scheme.
    customer_id:
        The per-customer identifier (required for customer-style schemes).
    service_label:
        Overrides the service label; defaults to the scheme's first label.
    region:
        The already-formatted region label (see :func:`region_label`), or None.
    """
    if scheme.subdomain_kind == SUBDOMAIN_FIXED:
        return scheme.fixed_fqdns[0]
    label = service_label or (scheme.service_labels[0] if scheme.service_labels else None)
    parts: List[str] = []
    if scheme.subdomain_kind == SUBDOMAIN_CUSTOMER:
        if not customer_id:
            raise ValueError("customer-style naming schemes require a customer id")
        parts.append(customer_id)
        if label:
            parts.append(label)
    elif scheme.subdomain_kind == SUBDOMAIN_SERVICE:
        if label is None:
            raise ValueError("service-style naming schemes require a service label")
        if customer_id:
            parts.append(customer_id)
        parts.append(label)
    if region:
        parts.append(region)
    parts.append(scheme.second_level_domain)
    return ".".join(part.strip(".") for part in parts if part)
