"""Tests for the deterministic RNG registry."""

from hypothesis import given, strategies as st

from repro.simulation.rng import RngRegistry, stable_hash


def test_same_seed_same_streams():
    a = RngRegistry(seed=1)
    b = RngRegistry(seed=1)
    assert [a.stream("x").random() for _ in range(5)] == [
        b.stream("x").random() for _ in range(5)
    ]


def test_different_names_give_independent_streams():
    registry = RngRegistry(seed=1)
    xs = [registry.stream("x").random() for _ in range(5)]
    ys = [registry.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_different_seeds_differ():
    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


def test_stream_is_cached():
    registry = RngRegistry(seed=3)
    assert registry.stream("a") is registry.stream("a")


def test_fresh_stream_not_registered():
    registry = RngRegistry(seed=3)
    fresh = registry.fresh_stream("a")
    assert fresh is not registry.stream("a")
    # Fresh streams with the same name start from the same derived seed.
    assert registry.fresh_stream("a").random() == RngRegistry(3).fresh_stream("a").random()


def test_spawn_creates_independent_registry():
    registry = RngRegistry(seed=4)
    child = registry.spawn("child")
    assert isinstance(child, RngRegistry)
    assert child.stream("x").random() != registry.stream("x").random()


def test_stable_hash_is_deterministic_and_bounded():
    assert stable_hash("foo") == stable_hash("foo")
    assert stable_hash("foo") != stable_hash("bar")
    assert 0 <= stable_hash("foo", 100) < 100


@given(st.text(min_size=1, max_size=50), st.integers(min_value=1, max_value=10_000))
def test_stable_hash_respects_modulus(value, modulus):
    assert 0 <= stable_hash(value, modulus) < modulus
