"""Tests for the geolocation substrate."""

import pytest

from repro.netmodel.geo import (
    GeoDatabase,
    Location,
    LocationVote,
    majority_vote,
    world_locations,
)


def test_world_locations_cover_main_continents():
    locations = world_locations()
    continents = {loc.continent for loc in locations}
    assert {"EU", "NA", "AS"}.issubset(continents)
    assert len(locations) >= 25
    # Region codes are unique.
    assert len({loc.region_code for loc in locations}) == len(locations)


def test_invalid_continent_rejected():
    with pytest.raises(ValueError):
        Location("Nowhere", "xxx", "XX", "XX", "xx-nowhere-1")


def test_geo_database_prefix_lookup():
    db = GeoDatabase()
    frankfurt = world_locations()[0]
    db.register_prefix("10.1.0.0/16", frankfurt)
    assert db.lookup_ip("10.1.2.3") == frankfurt
    assert db.lookup_ip("10.2.0.1") is None


def test_geo_database_most_specific_prefix_wins():
    db = GeoDatabase()
    locations = world_locations()
    db.register_prefix("10.0.0.0/8", locations[0])
    db.register_prefix("10.1.0.0/16", locations[1])
    assert db.lookup_ip("10.1.2.3") == locations[1]
    assert db.lookup_ip("10.2.0.1") == locations[0]


def test_region_and_airport_lookup():
    db = GeoDatabase()
    for location in world_locations():
        db.register_location(location)
    assert db.lookup_region_code("eu-central-1").city == "Frankfurt"
    assert db.lookup_airport_code("FRA").city == "Frankfurt"
    assert db.lookup_region_code("does-not-exist") is None


def test_majority_vote_picks_most_common():
    locations = world_locations()
    votes = [
        LocationVote("a", locations[0]),
        LocationVote("b", locations[0]),
        LocationVote("c", locations[1]),
    ]
    assert majority_vote(votes) == locations[0]


def test_majority_vote_empty_and_tie():
    locations = world_locations()
    assert majority_vote([]) is None
    tie = [LocationVote("a", locations[0]), LocationVote("b", locations[1])]
    # Deterministic result on ties.
    assert majority_vote(tie) == majority_vote(list(tie))
