"""Geolocation substrate: locations, continents, and an IP-geolocation database.

The paper geolocates IoT backend servers using (a) location hints embedded in
domain names (city or airport codes, cloud region codes), (b) geolocation metadata
from scan snapshots, and (c) the location of prefix announcements, resolving
conflicts by majority vote (Section 4.2).  This module provides the location
catalog and the lookup database those heuristics consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.netmodel.addressing import IPLike, NetLike, PrefixIndex, parse_ip

#: Continent identifiers used throughout the analyses.
CONTINENT_EUROPE = "EU"
CONTINENT_NORTH_AMERICA = "NA"
CONTINENT_ASIA = "AS"
CONTINENT_SOUTH_AMERICA = "SA"
CONTINENT_OCEANIA = "OC"
CONTINENT_AFRICA = "AF"

CONTINENTS = (
    CONTINENT_EUROPE,
    CONTINENT_NORTH_AMERICA,
    CONTINENT_ASIA,
    CONTINENT_SOUTH_AMERICA,
    CONTINENT_OCEANIA,
    CONTINENT_AFRICA,
)


@dataclass(frozen=True)
class Location:
    """A physical deployment location (datacenter metro).

    Attributes
    ----------
    city:
        Human-readable city name.
    airport_code:
        Three-letter code sometimes embedded in hostnames (e.g. ``fra``).
    country:
        ISO-3166-alpha-2 country code.
    continent:
        One of :data:`CONTINENTS`.
    region_code:
        Cloud-style region identifier (e.g. ``eu-central-1``) used by providers
        that embed region codes rather than cities in domain names.
    """

    city: str
    airport_code: str
    country: str
    continent: str
    region_code: str

    def __post_init__(self) -> None:
        if self.continent not in CONTINENTS:
            raise ValueError(f"unknown continent {self.continent!r} for {self.city}")


def world_locations() -> List[Location]:
    """Return the catalog of locations available to provider deployments.

    The catalog spans Europe, North America, Asia, and a few other regions so that
    deployments can reproduce the paper's continent-level distribution (roughly 65%
    of backend servers in the US, 30% in Europe, 5% in Asia).
    """
    return [
        # Europe
        Location("Frankfurt", "fra", "DE", CONTINENT_EUROPE, "eu-central-1"),
        Location("Dublin", "dub", "IE", CONTINENT_EUROPE, "eu-west-1"),
        Location("London", "lhr", "GB", CONTINENT_EUROPE, "eu-west-2"),
        Location("Paris", "cdg", "FR", CONTINENT_EUROPE, "eu-west-3"),
        Location("Stockholm", "arn", "SE", CONTINENT_EUROPE, "eu-north-1"),
        Location("Milan", "mxp", "IT", CONTINENT_EUROPE, "eu-south-1"),
        Location("Amsterdam", "ams", "NL", CONTINENT_EUROPE, "eu-west-4"),
        Location("Zurich", "zrh", "CH", CONTINENT_EUROPE, "eu-central-2"),
        Location("Madrid", "mad", "ES", CONTINENT_EUROPE, "eu-south-2"),
        Location("Warsaw", "waw", "PL", CONTINENT_EUROPE, "eu-central-3"),
        # North America
        Location("Ashburn", "iad", "US", CONTINENT_NORTH_AMERICA, "us-east-1"),
        Location("Columbus", "cmh", "US", CONTINENT_NORTH_AMERICA, "us-east-2"),
        Location("San Jose", "sjc", "US", CONTINENT_NORTH_AMERICA, "us-west-1"),
        Location("Portland", "pdx", "US", CONTINENT_NORTH_AMERICA, "us-west-2"),
        Location("Dallas", "dfw", "US", CONTINENT_NORTH_AMERICA, "us-south-1"),
        Location("Chicago", "ord", "US", CONTINENT_NORTH_AMERICA, "us-central-1"),
        Location("Montreal", "yul", "CA", CONTINENT_NORTH_AMERICA, "ca-central-1"),
        Location("Toronto", "yyz", "CA", CONTINENT_NORTH_AMERICA, "ca-east-1"),
        Location("Phoenix", "phx", "US", CONTINENT_NORTH_AMERICA, "us-west-3"),
        Location("Atlanta", "atl", "US", CONTINENT_NORTH_AMERICA, "us-east-3"),
        # Asia
        Location("Beijing", "pek", "CN", CONTINENT_ASIA, "cn-north-1"),
        Location("Shanghai", "sha", "CN", CONTINENT_ASIA, "cn-east-2"),
        Location("Shenzhen", "szx", "CN", CONTINENT_ASIA, "cn-south-1"),
        Location("Singapore", "sin", "SG", CONTINENT_ASIA, "ap-southeast-1"),
        Location("Tokyo", "nrt", "JP", CONTINENT_ASIA, "ap-northeast-1"),
        Location("Seoul", "icn", "KR", CONTINENT_ASIA, "ap-northeast-2"),
        Location("Mumbai", "bom", "IN", CONTINENT_ASIA, "ap-south-1"),
        Location("Hong Kong", "hkg", "HK", CONTINENT_ASIA, "ap-east-1"),
        # Other regions
        Location("Sydney", "syd", "AU", CONTINENT_OCEANIA, "ap-southeast-2"),
        Location("Sao Paulo", "gru", "BR", CONTINENT_SOUTH_AMERICA, "sa-east-1"),
        Location("Cape Town", "cpt", "ZA", CONTINENT_AFRICA, "af-south-1"),
    ]


class GeoDatabase:
    """Maps prefixes (and thus IPs) to locations.

    This plays the role of the geolocation metadata returned by scan services and
    of the prefix-announcement-location heuristic.  A small, configurable fraction
    of entries can be perturbed by the world builder to model geolocation noise
    (the paper reports <7% disagreement between sources).
    """

    def __init__(self) -> None:
        self._prefix_locations: PrefixIndex[Location] = PrefixIndex()
        self._locations_by_region: Dict[str, Location] = {}
        self._locations_by_airport: Dict[str, Location] = {}

    def register_location(self, location: Location) -> None:
        """Register a location so it can be looked up by region or airport code."""
        self._locations_by_region[location.region_code] = location
        self._locations_by_airport[location.airport_code] = location

    def register_prefix(self, prefix: NetLike, location: Location) -> None:
        """Associate a prefix with a location (prefix-announcement geolocation).

        Registering an equal prefix again replaces its location.
        """
        self.register_location(location)
        self._prefix_locations[prefix] = location

    def lookup_ip(self, ip: IPLike) -> Optional[Location]:
        """Return the location of an address, or None if unknown.

        The most specific registered prefix covering the address decides.
        """
        return self._prefix_locations.lookup(parse_ip(ip))

    def lookup_region_code(self, region_code: str) -> Optional[Location]:
        """Return the location registered under a cloud-style region code."""
        return self._locations_by_region.get(region_code)

    def lookup_airport_code(self, airport_code: str) -> Optional[Location]:
        """Return the location registered under an airport code."""
        return self._locations_by_airport.get(airport_code.lower())


@dataclass
class LocationVote:
    """A single geolocation opinion from one source, used for majority voting."""

    source: str
    location: Location


def majority_vote(votes: Iterable[LocationVote]) -> Optional[Location]:
    """Resolve conflicting geolocation opinions by majority vote.

    Ties are broken by source-name order to keep the result deterministic.  Returns
    None when no votes are given.
    """
    votes = list(votes)
    if not votes:
        return None
    counts: Dict[str, int] = {}
    by_key: Dict[str, Location] = {}
    first_source: Dict[str, str] = {}
    for vote in votes:
        key = vote.location.region_code
        counts[key] = counts.get(key, 0) + 1
        by_key[key] = vote.location
        first_source.setdefault(key, vote.source)
    best_key = sorted(counts, key=lambda k: (-counts[k], first_source[k], k))[0]
    return by_key[best_key]
