"""Suffix-indexed pattern-matching engine for provider domain classification.

Classifying FQDNs against the 16 providers' domain regexes (Section 3.2 /
Appendix A) is the hottest operation of the reproduction: every certificate
name, every passive-DNS owner name, and every actively resolved domain goes
through it, and production-scale corpora (DNSDB, Censys) contain hundreds of
millions of names.  The naive path evaluates O(providers x patterns) regexes
per name, recompiling each one on every call.

:class:`CompiledPatternSet` removes both costs:

* **Compile once.**  Every regex is compiled exactly once when the engine is
  built.
* **Suffix index.**  All of the paper's patterns are anchored on a literal
  registrable second-level domain (``amazonaws.com``, ``azure-devices.net``,
  ``iot.sap``, ...).  The engine indexes patterns by the last two labels of
  that literal suffix, so a lookup slices the FQDN's two-label tail (two
  ``rfind`` calls, one substring), probes the index with one dict lookup, and
  evaluates only the pattern(s) registered under that tail -- at most one
  anchored regex evaluation in the common case, and none at all for the vast
  majority of non-matching names.  Because every regex is end-anchored on its
  full literal suffix, the regex itself verifies longer suffixes and exact
  fixed FQDNs (Google); a tail collision can cause a wasted evaluation but
  never a wrong result.
* **Fallback list.**  Patterns without a ``suffix_hint`` (hand-built ones;
  every generated pattern carries a hint) are scanned linearly on every
  lookup, so any regex still matches correctly, only without the index.
* **LRU cache + bulk API.**  Single lookups are memoized
  (:func:`functools.lru_cache`) because real corpora repeat names heavily;
  :meth:`CompiledPatternSet.match_many` amortizes normalization and cache
  probing over an entire iterable and returns a ``name -> provider`` dict.

The engine is the only name classifier: :meth:`repro.core.patterns.PatternSet.engine`
builds and caches it, and every discovery source and the validation step match
through it.  When several providers' patterns match one name, the
alphabetically first provider key wins, exactly like a sorted scan of the
providers.
"""

from __future__ import annotations

import re
import time
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics

#: Default size of the per-engine single-lookup LRU cache.
DEFAULT_LRU_SIZE = 65536


class _CompiledEntry:
    """One compiled pattern plus its owning provider.

    ``dotted`` marks regexes that keep the legacy dual search (retry with
    ``name + "."`` after a miss).  Only the generated shape -- ending in the
    optional-dot construct ``\\.?$`` -- provably never needs the retry; any
    hand-built regex (DNSDB-style ``\\.$``, ``[.]$``, plain ``$``, ...) gets
    it, exactly as the legacy per-pattern scan did.
    """

    __slots__ = ("provider_key", "pattern", "regex", "dotted")

    def __init__(self, provider_key: str, regex: str) -> None:
        self.provider_key = provider_key
        self.regex = regex
        self.pattern = re.compile(regex, re.IGNORECASE)
        self.dotted = not regex.endswith(r"\.?$")


def _normalize(fqdn: str) -> str:
    return fqdn.rstrip(".").lower()


def _last_two_labels(suffix: str) -> str:
    """The last two labels of a domain suffix (the whole suffix if shorter)."""
    parts = suffix.rsplit(".", 2)
    if len(parts) <= 2:
        return suffix
    return parts[-2] + "." + parts[-1]


class CompiledPatternSet:
    """Compile-once, suffix-indexed matcher over a provider pattern collection.

    Build it from any mapping of ``provider_key -> [DomainPattern]`` (objects
    exposing ``provider_key`` and ``regex``) via :meth:`from_patterns`;
    :meth:`repro.core.patterns.PatternSet.engine` builds the one of a pattern set.
    """

    def __init__(
        self,
        patterns: Mapping[str, Sequence[object]],
        lru_size: int = DEFAULT_LRU_SIZE,
    ) -> None:
        self._by_provider: Dict[str, List[_CompiledEntry]] = {}
        self._by_tail: Dict[str, List[_CompiledEntry]] = {}
        self._fallback: List[_CompiledEntry] = []
        self._suffixes: Dict[str, bool] = {}
        for provider_key in sorted(patterns):
            compiled_list = self._by_provider.setdefault(provider_key, [])
            for spec in patterns[provider_key]:
                entry = _CompiledEntry(provider_key, spec.regex)
                compiled_list.append(entry)
                suffix, exact = self._index_key(spec)
                if suffix is None or (not exact and "." not in suffix):
                    # No literal suffix, or a single-label suffix the two-label
                    # tail probe could never reach: linear-scan fallback.
                    self._fallback.append(entry)
                else:
                    # The index is keyed on the suffix's last two labels; any
                    # name matching the (end-anchored) regex necessarily ends
                    # with the full suffix, so it shares that tail.  The regex
                    # itself verifies the full suffix, so rare tail collisions
                    # cost one extra anchored evaluation, never a wrong match.
                    self._by_tail.setdefault(_last_two_labels(suffix), []).append(entry)
                    self._suffixes[suffix] = exact
        self._match_all_cached = lru_cache(maxsize=lru_size)(self._match_all_normalized)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_patterns(
        cls, patterns: Mapping[str, Sequence[object]], lru_size: int = DEFAULT_LRU_SIZE
    ) -> "CompiledPatternSet":
        """Build an engine from a ``provider_key -> [DomainPattern]`` mapping."""
        return cls(patterns, lru_size=lru_size)

    @staticmethod
    def _index_key(spec: object) -> Tuple[Optional[str], bool]:
        """Return the (suffix, exact) index key for one pattern spec.

        Generated patterns carry explicit hints (``suffix_hint``/``exact_hint``);
        a pattern without one has no key and goes to the fallback list.
        """
        hint = getattr(spec, "suffix_hint", "")
        if hint:
            return _normalize(hint), bool(getattr(spec, "exact_hint", False))
        return None, False

    # -- inspection --------------------------------------------------------------

    def pattern_count(self) -> int:
        """Total number of compiled patterns."""
        return sum(len(entries) for entries in self._by_provider.values())

    def indexed_suffixes(self) -> List[str]:
        """The literal suffixes the index covers (diagnostics)."""
        return sorted(self._suffixes)

    def cache_info(self):
        """The LRU statistics of the single-lookup cache."""
        return self._match_all_cached.cache_info()

    # -- matching ----------------------------------------------------------------

    _EMPTY: Tuple[str, ...] = ()

    def _match_all_normalized(self, name: str) -> Tuple[str, ...]:
        """All provider keys matching an already-normalized name (sorted).

        One lookup = slice the name's last two labels, probe the tail index,
        evaluate the (typically one) anchored regex registered there.
        """
        last_dot = name.rfind(".")
        if last_dot == -1:
            tail = name
        else:
            second_dot = name.rfind(".", 0, last_dot)
            tail = name if second_dot == -1 else name[second_dot + 1 :]
        bucket = self._by_tail.get(tail)
        found: Optional[List[str]] = None
        if bucket is not None:
            for entry in bucket:
                if entry.pattern.search(name) or (
                    entry.dotted and entry.pattern.search(name + ".")
                ):
                    if found is None:
                        found = [entry.provider_key]
                    elif entry.provider_key not in found:
                        found.append(entry.provider_key)
        if self._fallback:
            for entry in self._fallback:
                if entry.pattern.search(name) or (
                    entry.dotted and entry.pattern.search(name + ".")
                ):
                    if found is None:
                        found = [entry.provider_key]
                    elif entry.provider_key not in found:
                        found.append(entry.provider_key)
        if found is None:
            return self._EMPTY
        if len(found) > 1:
            found.sort()
        return tuple(found)

    def match_all(self, fqdn: str) -> Tuple[str, ...]:
        """Every provider whose patterns match the FQDN (sorted keys)."""
        return self._match_all_cached(_normalize(fqdn))

    def match(self, fqdn: str) -> Optional[str]:
        """The first (alphabetical) provider matching the FQDN, or None."""
        matched = self._match_all_cached(_normalize(fqdn))
        return matched[0] if matched else None

    def matches_any(self, fqdn: str) -> bool:
        """True when any provider's pattern matches the FQDN."""
        return bool(self._match_all_cached(_normalize(fqdn)))

    def matches_provider(self, fqdn: str, provider_key: str) -> bool:
        """True when the FQDN matches any pattern of one provider."""
        name = _normalize(fqdn)
        return any(
            entry.pattern.search(name) or (entry.dotted and entry.pattern.search(name + "."))
            for entry in self._by_provider.get(provider_key, ())
        )

    def match_many(self, fqdns: Iterable[str]) -> Dict[str, Optional[str]]:
        """Classify an iterable of FQDNs in bulk.

        Returns ``{input name -> provider key or None}`` with one entry per
        distinct input string.  Normalization and cache probing are shared
        across duplicates, which dominate real corpora.

        Instrumentation is per *bulk call*, not per name: when metrics are
        enabled the call records ``matcher.bulk_lookups`` / ``matcher.bulk_names``
        counters and a ``matcher.bulk_seconds`` observation — two dict updates
        amortized over the whole iterable, invisible next to the regex work.
        """
        if not obs_metrics.enabled():
            return self._match_many_impl(fqdns)
        start = time.perf_counter()
        results = self._match_many_impl(fqdns)
        obs_metrics.inc("matcher.bulk_lookups")
        obs_metrics.inc("matcher.bulk_names", float(len(results)))
        obs_metrics.observe("matcher.bulk_seconds", time.perf_counter() - start)
        return results

    def _match_many_impl(self, fqdns: Iterable[str]) -> Dict[str, Optional[str]]:
        results: Dict[str, Optional[str]] = {}
        normalized_memo: Dict[str, Optional[str]] = {}
        # The bulk path keeps its own memo for the whole iterable, so it calls
        # the raw implementation directly instead of going through (and
        # churning) the bounded LRU of the single-lookup path.
        impl = self._match_all_normalized
        for raw in fqdns:
            if raw in results:
                continue
            name = raw.rstrip(".").lower()
            if name in normalized_memo:
                results[raw] = normalized_memo[name]
                continue
            matched = impl(name)
            value = matched[0] if matched else None
            normalized_memo[name] = value
            results[raw] = value
        return results
