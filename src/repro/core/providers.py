"""Catalog of the IoT backend providers studied by the paper (Table 1).

Each :class:`ProviderSpec` collects two kinds of information:

* **Documented characteristics** the paper's methodology extracts from public
  documentation: the domain naming scheme, supported protocols and ports, the
  deployment strategy, whether the provider publishes its IP ranges, SNI and
  client-certificate requirements.  The pattern builder and the discovery pipeline
  consume only this part.

* **Scenario parameters** used by the world builder to instantiate a synthetic
  deployment whose *shape* matches the paper's findings (relative IP counts per
  Figure 3, location/country spread per Table 1, discoverability per data source,
  traffic behaviour per Section 5).  The discovery pipeline never reads these
  directly; they only shape the ground truth it is measured against.

The absolute IP counts are those reported in Figure 3 of the paper; the world
builder scales them down with ``ScenarioConfig.scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dns.names import (
    REGION_STYLE_CODE,
    REGION_STYLE_NONE,
    REGION_STYLE_ZONE,
    SUBDOMAIN_CUSTOMER,
    SUBDOMAIN_FIXED,
    SUBDOMAIN_SERVICE,
    DomainNamingScheme,
)

#: Deployment strategies (Table 1): Dedicated Infrastructure, Public cloud Resources.
STRATEGY_DI = "DI"
STRATEGY_PR = "PR"
STRATEGY_DI_PR = "DI+PR"

#: Anonymization groups used for the ISP traffic analyses (Section 5).
GROUP_TOP4 = "top4"
GROUP_CLOUD = "cloud"
GROUP_OTHER = "other"


@dataclass(frozen=True)
class ProtocolOffering:
    """One documented (protocol, transport, port) offering of a provider."""

    protocol: str
    transport: str
    port: int

    @property
    def label(self) -> str:
        """Short human-readable label, e.g. ``MQTT(8883)``."""
        return f"{self.protocol}({self.port})"


@dataclass(frozen=True)
class TrafficProfile:
    """Traffic behaviour of the devices using a provider, as seen from the ISP.

    Attributes
    ----------
    application:
        Name of the diurnal-activity profile (see :mod:`repro.flows.devices`).
    subscriber_share:
        Fraction of the ISP's IoT-hosting subscriber lines with at least one device
        of this provider.
    mean_daily_down_kb / mean_daily_up_kb:
        Mean daily traffic per active device, in kilobytes (the paper reports <10 MB
        per day for >99% of lines).
    eu_share:
        Fraction of a device's flows served from the provider's European servers
        (when the provider has any); the rest goes to the nearest other continent.
    """

    application: str
    subscriber_share: float
    mean_daily_down_kb: float
    mean_daily_up_kb: float
    eu_share: float = 0.75


@dataclass(frozen=True)
class ProviderSpec:
    """One IoT backend provider of the study."""

    # Identity
    name: str
    key: str
    organization: str
    revenue_rank: int

    # Documented characteristics (inputs to the methodology)
    naming: DomainNamingScheme
    protocols: Tuple[ProtocolOffering, ...]
    strategy: str
    cloud_hosts: Tuple[str, ...] = ()
    publishes_ip_ranges: bool = False
    uses_sni: bool = False
    client_cert_ports: Tuple[int, ...] = ()
    uses_anycast: bool = False
    ipv6_supported: bool = True

    # Scenario parameters (ground-truth shape; hidden from the methodology)
    base_ipv4_servers: int = 50
    base_ipv6_servers: int = 0
    n_ases: int = 1
    n_locations: int = 2
    n_countries: int = 1
    restrict_continents: Tuple[str, ...] = ()
    restrict_countries: Tuple[str, ...] = ()
    censys_visibility: float = 1.0
    passive_dns_coverage: float = 0.6
    stale_dns_fraction: float = 0.10
    active_dns_extra: float = 0.15
    shared_web_fraction: float = 0.0
    ipv6_hitlist_coverage: float = 0.7
    churn_rate: float = 0.0
    traffic: TrafficProfile = TrafficProfile("constant_telemetry", 0.05, 2000, 1500)
    is_top4: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in (STRATEGY_DI, STRATEGY_PR, STRATEGY_DI_PR):
            raise ValueError(f"unknown strategy {self.strategy!r} for {self.name}")
        if self.strategy in (STRATEGY_PR, STRATEGY_DI_PR) and not self.cloud_hosts:
            raise ValueError(f"{self.name}: PR strategies must name their cloud hosts")

    @property
    def group(self) -> str:
        """Anonymization group: top-4 / public-cloud dependent / other."""
        if self.is_top4:
            return GROUP_TOP4
        if self.strategy == STRATEGY_PR:
            return GROUP_CLOUD
        return GROUP_OTHER

    def documented_ports(self) -> List[Tuple[str, int]]:
        """Return the documented (transport, port) pairs."""
        return sorted({(p.transport, p.port) for p in self.protocols})

    def documented_protocol_names(self) -> List[str]:
        """Return the distinct protocol names offered."""
        return sorted({p.protocol for p in self.protocols})


def _mqtt(port: int) -> ProtocolOffering:
    return ProtocolOffering("MQTT" if port in (1883, 1884) else "MQTTS", "tcp", port)


def _https(port: int = 443) -> ProtocolOffering:
    return ProtocolOffering("HTTPS", "tcp", port)


def _http(port: int = 80) -> ProtocolOffering:
    return ProtocolOffering("HTTP", "tcp", port)


def _coap(port: int) -> ProtocolOffering:
    return ProtocolOffering("CoAPS" if port in (5684, 5686) else "CoAP", "udp", port)


def _amqps(port: int = 5671) -> ProtocolOffering:
    return ProtocolOffering("AMQPS", "tcp", port)


#: Cloud hosting organisations referenced by the deployments.
CLOUD_AWS = "Amazon Web Services"
CLOUD_AZURE = "Microsoft Azure"
CLOUD_ALIBABA = "Alibaba Cloud"
CDN_AKAMAI = "Akamai"

#: All public-cloud organisations (announce prefixes from cloud ASes).
CLOUD_ORGS = (CLOUD_AWS, CLOUD_AZURE, CLOUD_ALIBABA)
#: CDN organisations (announce prefixes from CDN ASes).
CLOUD_AKAMAI_ORGS = (CDN_AKAMAI,)


PROVIDERS: Tuple[ProviderSpec, ...] = (
    ProviderSpec(
        name="Alibaba IoT",
        key="alibaba",
        organization="Alibaba",
        revenue_rank=4,
        naming=DomainNamingScheme(
            second_level_domain="aliyuncs.com",
            subdomain_kind=SUBDOMAIN_SERVICE,
            service_labels=("iot-as-mqtt", "iot-as-http", "iot-amqp", "iot-coap"),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(_mqtt(1883), _https(443), _coap(5682)),
        strategy=STRATEGY_DI,
        n_ases=2,
        base_ipv4_servers=134,
        base_ipv6_servers=2,
        n_locations=27,
        n_countries=13,
        censys_visibility=0.35,
        passive_dns_coverage=0.55,
        stale_dns_fraction=0.25,
        active_dns_extra=0.25,
        ipv6_hitlist_coverage=1.0,
        traffic=TrafficProfile("prime_time", 0.08, 2000, 800, eu_share=0.55),
        is_top4=True,
    ),
    ProviderSpec(
        name="Amazon IoT",
        key="amazon",
        organization="Amazon",
        revenue_rank=1,
        naming=DomainNamingScheme(
            second_level_domain="amazonaws.com",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("iot",),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(_mqtt(8883), ProtocolOffering("MQTT", "tcp", 443), _https(443), _https(8443)),
        strategy=STRATEGY_DI,
        client_cert_ports=(8883,),
        uses_anycast=True,
        n_ases=4,
        base_ipv4_servers=8620,
        base_ipv6_servers=4680,
        n_locations=18,
        n_countries=15,
        censys_visibility=0.65,
        passive_dns_coverage=0.55,
        stale_dns_fraction=0.15,
        active_dns_extra=0.20,
        ipv6_hitlist_coverage=0.55,
        churn_rate=0.08,
        traffic=TrafficProfile("prime_time", 0.45, 3500, 1200, eu_share=0.58),
        is_top4=True,
    ),
    ProviderSpec(
        name="Baidu IoT",
        key="baidu",
        organization="Baidu",
        revenue_rank=13,
        naming=DomainNamingScheme(
            second_level_domain="baidubce.com",
            subdomain_kind=SUBDOMAIN_SERVICE,
            service_labels=("iot",),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(
            _mqtt(1883),
            ProtocolOffering("MQTT", "tcp", 1884),
            ProtocolOffering("MQTT", "tcp", 443),
            _http(80),
            _https(443),
            _coap(5682),
            _coap(5683),
        ),
        strategy=STRATEGY_DI,
        n_ases=2,
        base_ipv4_servers=60,
        base_ipv6_servers=1,
        n_locations=2,
        n_countries=1,
        restrict_continents=("AS",),
        restrict_countries=("CN",),
        censys_visibility=0.85,
        passive_dns_coverage=0.55,
        ipv6_hitlist_coverage=1.0,
        traffic=TrafficProfile("constant_telemetry", 0.001, 500, 400, eu_share=0.0),
    ),
    ProviderSpec(
        name="Bosch IoT Hub",
        key="bosch",
        organization="Bosch",
        revenue_rank=9,
        naming=DomainNamingScheme(
            second_level_domain="bosch-iot-hub.com",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("hub",),
            region_style=REGION_STYLE_NONE,
        ),
        protocols=(_mqtt(8883), _https(443), _amqps(5671), _coap(5684)),
        strategy=STRATEGY_PR,
        cloud_hosts=(CLOUD_AWS,),
        ipv6_supported=False,
        n_ases=1,
        base_ipv4_servers=162,
        base_ipv6_servers=0,
        n_locations=1,
        n_countries=1,
        restrict_continents=("EU",),
        censys_visibility=0.70,
        passive_dns_coverage=0.55,
        active_dns_extra=0.22,
        churn_rate=0.10,
        traffic=TrafficProfile("business_hours", 0.02, 3000, 2800, eu_share=0.95),
    ),
    ProviderSpec(
        name="Cisco Kinetic",
        key="cisco",
        organization="Cisco",
        revenue_rank=11,
        naming=DomainNamingScheme(
            second_level_domain="ciscokinetic.io",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("gmm",),
            region_style=REGION_STYLE_NONE,
        ),
        protocols=(
            _mqtt(8883),
            ProtocolOffering("MQTT", "tcp", 443),
            ProtocolOffering("Kinetic", "tcp", 9123),
            ProtocolOffering("Kinetic", "tcp", 9124),
        ),
        strategy=STRATEGY_PR,
        cloud_hosts=(CLOUD_AWS,),
        publishes_ip_ranges=True,
        ipv6_supported=False,
        n_ases=2,
        base_ipv4_servers=20,
        base_ipv6_servers=0,
        n_locations=4,
        n_countries=2,
        censys_visibility=0.75,
        passive_dns_coverage=0.55,
        active_dns_extra=0.22,
        traffic=TrafficProfile("business_hours", 0.01, 1500, 1800, eu_share=0.80),
    ),
    ProviderSpec(
        name="Fujitsu IoT",
        key="fujitsu",
        organization="Fujitsu",
        revenue_rank=16,
        naming=DomainNamingScheme(
            second_level_domain="paas.cloud.global.fujitsu.com",
            subdomain_kind=SUBDOMAIN_SERVICE,
            service_labels=("iot",),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(_mqtt(8883), _https(443)),
        strategy=STRATEGY_DI,
        ipv6_supported=False,
        n_ases=1,
        base_ipv4_servers=5,
        base_ipv6_servers=0,
        n_locations=2,
        n_countries=1,
        restrict_continents=("AS",),
        restrict_countries=("JP",),
        censys_visibility=0.90,
        passive_dns_coverage=0.60,
        traffic=TrafficProfile("constant_telemetry", 0.004, 800, 700, eu_share=0.0),
    ),
    ProviderSpec(
        name="Google IoT Core",
        key="google",
        organization="Google",
        revenue_rank=3,
        naming=DomainNamingScheme(
            second_level_domain="googleapis.com",
            subdomain_kind=SUBDOMAIN_FIXED,
            fixed_fqdns=("mqtt.googleapis.com", "cloudiotdevice.googleapis.com"),
            region_style=REGION_STYLE_NONE,
        ),
        protocols=(_mqtt(8883), ProtocolOffering("MQTT", "tcp", 443), _https(443)),
        strategy=STRATEGY_DI,
        uses_sni=True,
        n_ases=1,
        base_ipv4_servers=219,
        base_ipv6_servers=90,
        n_locations=77,
        n_countries=14,
        censys_visibility=0.02,
        passive_dns_coverage=0.80,
        stale_dns_fraction=0.40,
        active_dns_extra=0.15,
        shared_web_fraction=0.35,
        ipv6_hitlist_coverage=0.60,
        traffic=TrafficProfile("daytime", 0.20, 1200, 900, eu_share=0.60),
        is_top4=True,
    ),
    ProviderSpec(
        name="Huawei IoT",
        key="huawei",
        organization="Huawei",
        revenue_rank=12,
        naming=DomainNamingScheme(
            second_level_domain="myhuaweicloud.com",
            subdomain_kind=SUBDOMAIN_SERVICE,
            service_labels=("iot-mqtts", "iot-coaps", "iot-https", "iot-amqps", "iot-api", "iot-da"),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(_mqtt(8883), ProtocolOffering("MQTT", "tcp", 443), _https(8943), _coap(5684)),
        strategy=STRATEGY_DI,
        ipv6_supported=False,
        n_ases=1,
        base_ipv4_servers=26,
        base_ipv6_servers=0,
        n_locations=2,
        n_countries=1,
        restrict_continents=("AS",),
        restrict_countries=("CN",),
        censys_visibility=0.70,
        passive_dns_coverage=0.50,
        active_dns_extra=0.25,
        traffic=TrafficProfile("constant_telemetry", 0.001, 600, 500, eu_share=0.0),
    ),
    ProviderSpec(
        name="IBM Watson IoT",
        key="ibm",
        organization="IBM",
        revenue_rank=7,
        naming=DomainNamingScheme(
            second_level_domain="internetofthings.ibmcloud.com",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("messaging",),
            region_style=REGION_STYLE_NONE,
        ),
        protocols=(_mqtt(8883), _mqtt(1883), _http(80), _https(443)),
        strategy=STRATEGY_DI,
        ipv6_supported=False,
        n_ases=2,
        base_ipv4_servers=250,
        base_ipv6_servers=0,
        n_locations=12,
        n_countries=8,
        censys_visibility=0.70,
        passive_dns_coverage=0.55,
        active_dns_extra=0.22,
        traffic=TrafficProfile("business_hours", 0.03, 2000, 2400, eu_share=0.70),
    ),
    ProviderSpec(
        name="Microsoft Azure IoT Hub",
        key="microsoft",
        organization="Microsoft",
        revenue_rank=2,
        naming=DomainNamingScheme(
            second_level_domain="azure-devices.net",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=(),
            region_style=REGION_STYLE_NONE,
        ),
        protocols=(_mqtt(8883), _https(443), _amqps(5671)),
        strategy=STRATEGY_DI,
        publishes_ip_ranges=True,
        ipv6_supported=False,
        n_ases=1,
        base_ipv4_servers=484,
        base_ipv6_servers=0,
        n_locations=39,
        n_countries=16,
        restrict_continents=("EU", "NA"),
        censys_visibility=1.0,
        passive_dns_coverage=0.20,
        stale_dns_fraction=0.02,
        active_dns_extra=0.05,
        traffic=TrafficProfile("constant_telemetry", 0.12, 2500, 2000, eu_share=0.65),
        is_top4=True,
    ),
    ProviderSpec(
        name="Oracle IoT",
        key="oracle",
        organization="Oracle",
        revenue_rank=10,
        naming=DomainNamingScheme(
            second_level_domain="oraclecloud.com",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("iot",),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(_mqtt(8883), _https(443)),
        strategy=STRATEGY_DI_PR,
        cloud_hosts=(CDN_AKAMAI,),
        ipv6_supported=False,
        n_ases=3,
        base_ipv4_servers=502,
        base_ipv6_servers=0,
        n_locations=10,
        n_countries=8,
        censys_visibility=0.80,
        passive_dns_coverage=0.55,
        active_dns_extra=0.15,
        shared_web_fraction=0.15,
        traffic=TrafficProfile("business_hours", 0.02, 1800, 1500, eu_share=0.55),
    ),
    ProviderSpec(
        name="PTC ThingWorx",
        key="ptc",
        organization="PTC",
        revenue_rank=5,
        naming=DomainNamingScheme(
            second_level_domain="thingworx.io",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("twx",),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(ProtocolOffering("Agnostic", "tcp", 443), ProtocolOffering("ActiveMQ", "tcp", 61616)),
        strategy=STRATEGY_PR,
        cloud_hosts=(CLOUD_AWS, CLOUD_AZURE),
        ipv6_supported=False,
        n_ases=3,
        base_ipv4_servers=917,
        base_ipv6_servers=0,
        n_locations=10,
        n_countries=8,
        censys_visibility=0.60,
        passive_dns_coverage=0.50,
        active_dns_extra=0.22,
        churn_rate=0.02,
        traffic=TrafficProfile("business_hours", 0.05, 3500, 2200, eu_share=0.50),
    ),
    ProviderSpec(
        name="SAP IoT",
        key="sap",
        organization="SAP",
        revenue_rank=8,
        naming=DomainNamingScheme(
            second_level_domain="iot.sap",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("device-connectivity",),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(_mqtt(8883), _https(443), _amqps(5671)),
        strategy=STRATEGY_PR,
        cloud_hosts=(CLOUD_AWS, CLOUD_AZURE, CLOUD_ALIBABA),
        ipv6_supported=False,
        n_ases=6,
        base_ipv4_servers=3030,
        base_ipv6_servers=0,
        n_locations=7,
        n_countries=5,
        censys_visibility=1.0,
        passive_dns_coverage=0.20,
        stale_dns_fraction=0.03,
        active_dns_extra=0.05,
        churn_rate=0.10,
        traffic=TrafficProfile("amqp_bulk", 0.03, 45000, 9000, eu_share=0.85),
    ),
    ProviderSpec(
        name="Siemens MindSphere",
        key="siemens",
        organization="Siemens",
        revenue_rank=6,
        naming=DomainNamingScheme(
            second_level_domain="mindsphere.io",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("mindconnect",),
            region_style=REGION_STYLE_ZONE,
            zone_labels=("eu1", "eu2", "cn1"),
        ),
        protocols=(_mqtt(8883), _https(443), ProtocolOffering("OPC-UA", "tcp", 4840)),
        strategy=STRATEGY_PR,
        cloud_hosts=(CLOUD_AWS, CLOUD_AZURE, CLOUD_ALIBABA),
        publishes_ip_ranges=True,
        uses_anycast=True,
        n_ases=4,
        base_ipv4_servers=112,
        base_ipv6_servers=46,
        n_locations=3,
        n_countries=3,
        censys_visibility=0.55,
        passive_dns_coverage=0.70,
        stale_dns_fraction=0.30,
        active_dns_extra=0.22,
        churn_rate=0.10,
        ipv6_hitlist_coverage=0.60,
        traffic=TrafficProfile("business_hours", 0.02, 2500, 3000, eu_share=0.90),
    ),
    ProviderSpec(
        name="Sierra Wireless AirVantage",
        key="sierra",
        organization="Sierra Wireless",
        revenue_rank=15,
        naming=DomainNamingScheme(
            second_level_domain="airvantage.net",
            subdomain_kind=SUBDOMAIN_SERVICE,
            service_labels=("na", "eu"),
            region_style=REGION_STYLE_NONE,
        ),
        protocols=(_mqtt(8883), _mqtt(1883), _http(80), _https(443), _coap(5682), _coap(5686)),
        strategy=STRATEGY_PR,
        cloud_hosts=(CLOUD_AWS,),
        n_ases=4,
        base_ipv4_servers=12,
        base_ipv6_servers=13,
        n_locations=4,
        n_countries=4,
        censys_visibility=0.35,
        passive_dns_coverage=0.70,
        stale_dns_fraction=0.30,
        active_dns_extra=0.25,
        ipv6_hitlist_coverage=0.70,
        traffic=TrafficProfile("constant_telemetry", 0.01, 900, 1100, eu_share=0.75),
    ),
    ProviderSpec(
        name="Tencent IoT Hub",
        key="tencent",
        organization="Tencent",
        revenue_rank=14,
        naming=DomainNamingScheme(
            second_level_domain="tencentdevices.com",
            subdomain_kind=SUBDOMAIN_CUSTOMER,
            service_labels=("iotcloud",),
            region_style=REGION_STYLE_CODE,
        ),
        protocols=(_mqtt(8883), _mqtt(1883), _http(80), _https(443), _coap(5684)),
        strategy=STRATEGY_DI,
        n_ases=5,
        base_ipv4_servers=53,
        base_ipv6_servers=2,
        n_locations=5,
        n_countries=4,
        censys_visibility=1.0,
        passive_dns_coverage=0.20,
        stale_dns_fraction=0.02,
        active_dns_extra=0.05,
        ipv6_hitlist_coverage=1.0,
        traffic=TrafficProfile("surveillance_upload", 0.015, 1500, 9000, eu_share=0.45),
    ),
)


_PROVIDERS_BY_KEY: Dict[str, ProviderSpec] = {spec.key: spec for spec in PROVIDERS}
_PROVIDERS_BY_NAME: Dict[str, ProviderSpec] = {spec.name: spec for spec in PROVIDERS}


def get_provider(key_or_name: str) -> ProviderSpec:
    """Return a provider by key (``amazon``) or full name (``Amazon IoT``)."""
    if key_or_name in _PROVIDERS_BY_KEY:
        return _PROVIDERS_BY_KEY[key_or_name]
    if key_or_name in _PROVIDERS_BY_NAME:
        return _PROVIDERS_BY_NAME[key_or_name]
    raise KeyError(f"unknown provider {key_or_name!r}")


def provider_keys() -> List[str]:
    """Return the provider keys in alphabetical order."""
    return sorted(spec.key for spec in PROVIDERS)
