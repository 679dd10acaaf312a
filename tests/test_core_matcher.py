"""Parity and behaviour tests for the suffix-indexed matching engine.

The engine must be indistinguishable from the legacy per-pattern scan: a
generated corpus of matching, near-miss, and random FQDNs for all 16 providers
goes through both paths and every assignment must agree.
"""

import random
import re

import pytest

from repro.core.matcher import CompiledPatternSet
from repro.core.patterns import DomainPattern, PatternSet, build_patterns
from repro.core.providers import PROVIDERS
from repro.dns.names import SUBDOMAIN_FIXED, build_fqdn, region_label
from repro.netmodel.geo import world_locations


def legacy_match(patterns, fqdn):
    """The seed implementation: sorted provider scan, one regex at a time.

    Kept verbatim (modulo the per-call recompilation) as the behavioural
    reference for the compiled engine.
    """
    name = fqdn.rstrip(".").lower()
    for provider_key in sorted(patterns):
        for spec in patterns[provider_key]:
            compiled = re.compile(spec.regex, re.IGNORECASE)
            if compiled.search(name) or compiled.search(name + "."):
                return provider_key
    return None


def build_corpus(seed=20220301, per_provider=40):
    """Matching + near-miss + random FQDNs covering all 16 providers."""
    rng = random.Random(seed)
    locations = world_locations()
    corpus = []
    for spec in PROVIDERS:
        scheme = spec.naming
        for i in range(per_provider):
            location = locations[(i * 7) % len(locations)]
            region = region_label(scheme, location.region_code, location.airport_code, i)
            if scheme.subdomain_kind == SUBDOMAIN_FIXED:
                name = scheme.fixed_fqdns[i % len(scheme.fixed_fqdns)]
            else:
                label = (
                    scheme.service_labels[i % len(scheme.service_labels)]
                    if scheme.service_labels
                    else None
                )
                name = build_fqdn(
                    scheme,
                    customer_id=f"tenant-{rng.randrange(10 ** 6):06d}",
                    service_label=label,
                    region=region if i % 3 else None,
                )
            corpus.append(name)
            # Near misses: wrong service label, extra suffix, truncated sld.
            corpus.append(f"tenant-{i}.unrelated-label.{scheme.second_level_domain}")
            corpus.append(name + ".attacker.example")
            corpus.append(name.replace(".com", ".org") if name.endswith(".com") else "x" + name)
    for i in range(500):
        labels = rng.randrange(2, 5)
        corpus.append(".".join(f"l{rng.randrange(1000)}" for _ in range(labels)) + ".example")
    rng.shuffle(corpus)
    return corpus


@pytest.fixture(scope="module")
def pattern_set():
    return PatternSet.for_providers()


def test_engine_parity_on_generated_corpus(pattern_set):
    corpus = build_corpus()
    engine = pattern_set.engine()
    matched = 0
    for name in corpus:
        expected = legacy_match(pattern_set.patterns, name)
        assert engine.match(name) == expected, name
        if expected is not None:
            matched += 1
    # The corpus must exercise both outcomes to be meaningful.
    assert matched >= 16
    assert matched < len(corpus)


def test_match_many_agrees_with_single_lookups(pattern_set):
    corpus = build_corpus(seed=7, per_provider=10)
    engine = pattern_set.engine()
    bulk = engine.match_many(corpus)
    assert set(bulk) == set(corpus)
    for name in set(corpus):
        assert bulk[name] == engine.match(name)


def test_match_many_agrees_on_dotted_and_fallback_patterns():
    patterns = {
        "dotted": [
            DomainPattern("dotted", r"^[a-z0-9-]+\.dot\.example\.$", suffix_hint="dot.example")
        ],
        "indexed": [
            DomainPattern(
                "indexed", r"^[a-z0-9-]+\.shared\.example\.?$", suffix_hint="shared.example"
            )
        ],
        "odd": [DomainPattern("odd", r"device-[0-9]+\.example\.(com|net)$")],
    }
    names = [
        "x.dot.example",
        "X.Shared.Example.",
        "x.shared.example.org",
        "device-7.example.net",
        "device-7.Example.com.",
        "nodots",
        "",
    ]
    for keys in (("dotted", "indexed"), tuple(patterns)):
        engine = CompiledPatternSet.from_patterns({key: patterns[key] for key in keys})
        # The dotted pattern sits in the suffix index, not in the fallback list.
        assert engine.indexed_suffixes() == ["dot.example", "shared.example"]
        bulk = engine.match_many(names + names)
        assert bulk == {name: engine.match(name) for name in names}
        assert bulk["x.dot.example"] == "dotted"
        assert bulk["X.Shared.Example."] == "indexed"


def test_engine_normalization(pattern_set):
    engine = pattern_set.engine()
    assert engine.match("Tenant-X.IoT.EU-West-1.AMAZONAWS.COM") == "amazon"
    assert engine.match("mqtt.googleapis.com.") == "google"
    assert engine.matches_provider("mqtt.googleapis.com.", "google")
    assert not engine.matches_provider("mqtt.googleapis.com", "amazon")


def test_match_all_returns_every_matching_provider():
    shared = r"^[a-z0-9-]+\.shared\.example\.?$"
    patterns = {
        key: [DomainPattern(key, shared, suffix_hint="shared.example")] for key in ("alpha", "beta")
    }
    engine = CompiledPatternSet.from_patterns(patterns)
    assert engine.match_all("x.shared.example") == ("alpha", "beta")
    # match keeps the legacy alphabetical-first semantics on overlap.
    assert engine.match("x.shared.example") == "alpha"


def test_fallback_for_unindexable_regex():
    patterns = {
        "odd": [DomainPattern("odd", r"device-[0-9]+\.example\.(com|net)$")],
    }
    engine = CompiledPatternSet.from_patterns(patterns)
    assert engine.indexed_suffixes() == []
    assert engine.match("device-42.example.com") == "odd"
    assert engine.match("device-42.example.net") == "odd"
    assert engine.match("device-x.example.com") is None


def test_single_label_suffix_falls_back_to_linear_scan():
    # The two-label tail probe can never reach a one-label index key, so such
    # patterns must take the fallback path and still match.
    patterns = {"q": [DomainPattern("q", r"example\.com$", suffix_hint="com")]}
    engine = CompiledPatternSet.from_patterns(patterns)
    assert engine.match("foo.example.com") == "q"
    assert engine.match("fooexample.com") == "q"
    assert engine.match("example.org") is None


def test_dotted_dnsdb_style_pattern_matches_stripped_names():
    # DNSDB flex-search regexes anchor on the dotted spelling; the engine must
    # retry with the dot, both in the suffix index and in the fallback list.
    regex = r"device\.example\.com\.$"
    for hint in ("example.com", ""):
        engine = CompiledPatternSet.from_patterns(
            {"p": [DomainPattern("p", regex, suffix_hint=hint)]}
        )
        assert engine.indexed_suffixes() == ([hint] if hint else []), hint
        assert engine.match("device.example.com") == "p", hint
        assert engine.match("device.example.com.") == "p", hint
        assert engine.match("other.example.com") is None, hint


def test_top_level_alternation_falls_back_to_linear_scan():
    # A pattern without a suffix hint is scanned linearly, so every branch matches.
    patterns = {"r": [DomainPattern("r", r"^a\.x\.com\.?$|^b\.y\.com\.?$")]}
    engine = CompiledPatternSet.from_patterns(patterns)
    assert engine.match("a.x.com") == "r"
    assert engine.match("b.y.com") == "r"
    assert engine.match("c.z.com") is None
    # Alternation inside a group stays indexable under its hint.
    grouped = CompiledPatternSet.from_patterns(
        {"g": [DomainPattern("g", r"^(?:a|b)\.shared\.example\.?$", suffix_hint="shared.example")]}
    )
    assert grouped.indexed_suffixes() == ["shared.example"]
    assert grouped.match("a.shared.example") == "g"


def test_dotted_retry_covers_any_trailing_dot_spelling():
    # The legacy dual search must survive for every hand-built spelling of a
    # mandatory trailing dot, not just the literal r"\.$".
    for regex in (r"dev\.example\.com[.]$", r"dev\.example\.com(\.)$"):
        engine = CompiledPatternSet.from_patterns({"p": [DomainPattern("p", regex)]})
        assert engine.match("dev.example.com") == "p", regex


def test_hand_built_pattern_without_hint_matches_through_fallback():
    patterns = {"p": [DomainPattern("p", r"^[a-z]+\.things\.example\.com\.?$")]}
    engine = CompiledPatternSet.from_patterns(patterns)
    assert engine.indexed_suffixes() == []
    assert engine.match("hub.things.example.com") == "p"
    assert engine.match("hub.things.example.com.") == "p"
    assert engine.match("hub.xthings.example.com") is None
    assert engine.match("things.example.com") is None


def test_engine_rebuilds_after_pattern_mutation(pattern_set):
    mutable = PatternSet.for_providers()
    assert mutable.engine().match("gw.new-provider.example") is None
    mutable.patterns["newprov"] = [
        DomainPattern(
            "newprov", r"^[a-z0-9-]+\.new-provider\.example\.?$", suffix_hint="new-provider.example"
        )
    ]
    assert mutable.engine().match("gw.new-provider.example") == "newprov"
    del mutable.patterns["newprov"]
    assert mutable.engine().match("gw.new-provider.example") is None


def test_generated_patterns_carry_suffix_hints():
    for spec in PROVIDERS:
        for pattern in build_patterns(spec):
            assert pattern.suffix_hint
            if spec.naming.subdomain_kind != SUBDOMAIN_FIXED:
                assert pattern.suffix_hint == spec.naming.second_level_domain.lower()


def test_all_provider_patterns_are_suffix_indexed(pattern_set):
    engine = pattern_set.engine()
    # No pattern of the 16-provider catalog should fall back to a linear scan.
    assert engine.pattern_count() == sum(len(v) for v in pattern_set.patterns.values())
    assert len(engine._fallback) == 0


def test_lru_cache_hits_on_repeats(pattern_set):
    engine = CompiledPatternSet.from_patterns(pattern_set.patterns)
    for _ in range(5):
        engine.match("tenant.iot.eu-west-1.amazonaws.com")
    info = engine.cache_info()
    assert info.hits >= 4
    assert info.misses >= 1
