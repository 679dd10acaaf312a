"""Benchmark P-M1: bulk FQDN classification, legacy scan vs. compiled engine.

Times the seed-equivalent per-pattern scan against the suffix-indexed
:class:`~repro.core.matcher.CompiledPatternSet` on a >=100k-name corpus
(matching + near-miss + random names for all 16 providers) and records the
numbers in ``BENCH_matcher.json`` at the repository root so future PRs can
track the perf trajectory.  The acceptance bar is a >=10x speedup.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

from conftest import record_bench

from repro.core.patterns import PatternSet
from repro.core.providers import PROVIDERS
from repro.dns.names import SUBDOMAIN_FIXED, build_fqdn, region_label
from repro.netmodel.geo import world_locations
from repro.obs.bench import bench_env

#: Full corpus size for the compiled engine; the legacy path is timed on a
#: sample and scaled, because the seed implementation would take many seconds.
CORPUS_SIZE = 100_000
LEGACY_SAMPLE_SIZE = 10_000

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_matcher.json"


def _build_corpus(size: int, seed: int = 42) -> list:
    rng = random.Random(seed)
    locations = world_locations()
    names = []
    specs = list(PROVIDERS)
    while len(names) < size:
        spec = specs[rng.randrange(len(specs))]
        scheme = spec.naming
        kind = rng.random()
        if scheme.subdomain_kind == SUBDOMAIN_FIXED:
            name = scheme.fixed_fqdns[rng.randrange(len(scheme.fixed_fqdns))]
        else:
            location = locations[rng.randrange(len(locations))]
            region = region_label(
                scheme, location.region_code, location.airport_code, rng.randrange(4)
            )
            name = build_fqdn(
                scheme,
                customer_id=f"tenant-{rng.randrange(50_000):05d}",
                region=region if rng.random() < 0.7 else None,
            )
        if kind < 0.4:
            names.append(name)  # matching
        elif kind < 0.7:
            # near miss: wrong label or grafted suffix
            if rng.random() < 0.5:
                names.append(f"x{rng.randrange(1000)}.notiot.{scheme.second_level_domain}")
            else:
                names.append(name + ".attacker.example")
        else:
            labels = rng.randrange(2, 5)
            names.append(
                ".".join(f"h{rng.randrange(10_000)}" for _ in range(labels)) + ".example"
            )
    return names


def _legacy_match(patterns, fqdn):
    """The seed path, replicated verbatim: ``PatternSet.match`` sorted the
    provider keys on every call and ``DomainPattern.matches`` normalized the
    name, called ``re.compile`` (hitting ``re._cache``), and searched both the
    bare and the dotted spelling on every evaluation.
    """
    for provider_key in sorted(patterns):
        for spec in patterns[provider_key]:
            name = fqdn.rstrip(".").lower()
            pattern = re.compile(spec.regex, re.IGNORECASE)
            if pattern.search(name) or pattern.search(name + "."):
                return provider_key
    return None


def test_perf_matcher_bulk_classification():
    pattern_set = PatternSet.for_providers()
    corpus = _build_corpus(CORPUS_SIZE)
    sample = corpus[:LEGACY_SAMPLE_SIZE]

    # Legacy (seed) path, timed on the sample.
    start = time.perf_counter()
    legacy_results = [_legacy_match(pattern_set.patterns, name) for name in sample]
    legacy_seconds = time.perf_counter() - start
    legacy_ops = len(sample) / legacy_seconds

    # Compiled engine: build (timed separately) + bulk classification.
    start = time.perf_counter()
    engine = PatternSet.for_providers().engine()
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    bulk = engine.match_many(corpus)
    engine_seconds = time.perf_counter() - start
    engine_ops = len(corpus) / engine_seconds

    # Parity on the legacy sample: identical provider assignments.
    mismatches = [
        name for name, expected in zip(sample, legacy_results) if bulk[name] != expected
    ]
    assert not mismatches, mismatches[:5]

    speedup = engine_ops / legacy_ops
    payload = {
        "benchmark": "matcher-bulk-classification",
        **bench_env(),
        "corpus_size": len(corpus),
        "distinct_names": len(set(corpus)),
        "legacy_sample_size": len(sample),
        "legacy_seconds": round(legacy_seconds, 4),
        "legacy_ops_per_sec": round(legacy_ops),
        "engine_build_seconds": round(build_seconds, 4),
        "engine_seconds": round(engine_seconds, 4),
        "engine_ops_per_sec": round(engine_ops),
        "speedup": round(speedup, 1),
    }
    record_bench(BENCH_PATH, "Benchmark: bulk FQDN classification", payload)

    assert speedup >= 10.0, f"expected >=10x speedup, measured {speedup:.1f}x"
