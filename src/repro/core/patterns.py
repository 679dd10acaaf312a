"""Domain-pattern generation (Section 3.2, Appendix A).

For every provider, the methodology derives regular expressions that match exactly
the backend domain names described in the provider's documentation.  The structure
is ``<subdomain>.<region>.<second-level-domain>``:

* the ``<subdomain>`` is replaced by a wildcard when it carries a per-customer
  identifier, or by an alternation of documented service labels;
* the ``<region>`` is replaced by a regex term matching the provider's region
  naming scheme (cloud region codes, airport codes, or documented zone labels);
* the ``<second-level-domain>`` is kept literal.

The same patterns are translated into the query formats of the external services
the paper uses: DNSDB *flexible search* (regex) and *basic search* (left-hand
wildcard), and Censys certificate string searches.

A :class:`DomainPattern` is data: the regex text plus the suffix hints the
engine indexes on.  The suffix-indexed, compile-once engine in
:mod:`repro.core.matcher`, which :meth:`PatternSet.engine` builds, does all the
matching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.providers import PROVIDERS, ProviderSpec
from repro.dns.names import (
    REGION_STYLE_AIRPORT,
    REGION_STYLE_CODE,
    REGION_STYLE_ZONE,
    SUBDOMAIN_FIXED,
    SUBDOMAIN_SERVICE,
    DomainNamingScheme,
)

#: Regex term matching a cloud-style region code such as ``eu-central-1``.
REGION_CODE_TERM = r"[a-z]{2,}(?:-[a-z0-9]+)+"
#: Regex term matching an airport code such as ``fra``.
AIRPORT_CODE_TERM = r"[a-z]{3}"
#: Regex term matching a customer identifier / unique subdomain.
CUSTOMER_TERM = r"[a-z0-9][a-z0-9-]*"


@dataclass(frozen=True)
class DomainPattern:
    """A regular expression matching one provider's backend domains, as data.

    ``suffix_hint`` carries the literal registrable suffix the regex is anchored
    on (``exact_hint`` marks full-FQDN patterns); the suffix index of
    :class:`repro.core.matcher.CompiledPatternSet` places the pattern by its
    hint, and scans a pattern without one linearly.  The engine does the
    matching (:meth:`PatternSet.engine`).
    """

    provider_key: str
    regex: str
    description: str = ""
    suffix_hint: str = ""
    exact_hint: bool = False


def _escape_sld(second_level_domain: str) -> str:
    return re.escape(second_level_domain.rstrip("."))


def _region_term(scheme: DomainNamingScheme) -> Optional[str]:
    """Return the regex term for the scheme's region part, or None when absent."""
    if scheme.region_style == REGION_STYLE_CODE:
        return REGION_CODE_TERM
    if scheme.region_style == REGION_STYLE_AIRPORT:
        return AIRPORT_CODE_TERM
    if scheme.region_style == REGION_STYLE_ZONE:
        if not scheme.zone_labels:
            return None
        return "(?:" + "|".join(re.escape(label) for label in scheme.zone_labels) + ")"
    return None


def build_patterns(spec: ProviderSpec) -> List[DomainPattern]:
    """Build the domain regular expressions for one provider.

    The construction mirrors Section 3.2: wildcards replace unique subdomains,
    region terms replace the region labels, and the second-level domain stays
    literal.  Fixed-FQDN providers (e.g. Google) get one exact pattern per FQDN.
    """
    scheme = spec.naming
    sld = _escape_sld(scheme.second_level_domain)
    patterns: List[DomainPattern] = []

    if scheme.subdomain_kind == SUBDOMAIN_FIXED:
        for fqdn in scheme.fixed_fqdns:
            name = fqdn.rstrip(".")
            regex = r"^" + re.escape(name) + r"\.?$"
            patterns.append(
                DomainPattern(
                    spec.key,
                    regex,
                    f"fixed FQDN {fqdn} ({spec.name})",
                    suffix_hint=name.lower(),
                    exact_hint=True,
                )
            )
        return patterns

    region = _region_term(scheme)
    region_part = rf"(?:\.{region})?" if region else ""
    suffix_hint = scheme.second_level_domain.rstrip(".").lower()

    if scheme.subdomain_kind == SUBDOMAIN_SERVICE:
        labels = "|".join(re.escape(label) for label in scheme.service_labels)
        regex = (
            rf"^(?:{CUSTOMER_TERM}\.)?(?:{labels})"
            rf"{region_part}\.{sld}\.?$"
        )
        patterns.append(
            DomainPattern(
                spec.key,
                regex,
                f"service labels ({', '.join(scheme.service_labels)}) under {scheme.second_level_domain}",
                suffix_hint=suffix_hint,
            )
        )
        return patterns

    # Customer-style subdomains: a unique identifier, optionally followed by the
    # documented service label(s), optionally followed by a region label.
    if scheme.service_labels:
        labels = "|".join(re.escape(label) for label in scheme.service_labels)
        regex = rf"^{CUSTOMER_TERM}\.(?:{labels}){region_part}\.{sld}\.?$"
        description = (
            f"customer id + service label ({', '.join(scheme.service_labels)}) "
            f"under {scheme.second_level_domain}"
        )
    else:
        regex = rf"^{CUSTOMER_TERM}{region_part}\.{sld}\.?$"
        description = f"customer id under {scheme.second_level_domain}"
    patterns.append(DomainPattern(spec.key, regex, description, suffix_hint=suffix_hint))
    return patterns


def dnsdb_flex_query(spec: ProviderSpec) -> str:
    """Return the DNSDB flexible-search regex for a provider (Appendix A style).

    DNSDB flexible search matches owner names written with a trailing dot, so the
    anchored ``$`` follows an escaped dot.
    """
    patterns = build_patterns(spec)
    # Re-anchor the first pattern for trailing-dot names, as DNSDB stores them.
    regex = patterns[0].regex
    if regex.endswith(r"\.?$"):
        regex = regex[: -len(r"\.?$")] + r"\.$"
    return regex + "/A"


def dnsdb_basic_queries(spec: ProviderSpec) -> List[str]:
    """Return DNSDB basic-search (left-hand wildcard) queries for a provider."""
    scheme = spec.naming
    if scheme.subdomain_kind == SUBDOMAIN_FIXED:
        return [f"rrset/name/{fqdn.rstrip('.')}./A" for fqdn in scheme.fixed_fqdns]
    return [f"rrset/name/*.{scheme.second_level_domain.rstrip('.')}./A"]


def censys_string_queries(spec: ProviderSpec, region_codes: Sequence[str] = ()) -> List[str]:
    """Return Censys certificate string-search queries for a provider.

    When the provider embeds region codes in names, one query per region is
    generated (as in Appendix A for Amazon); otherwise a single wildcard query on
    the second-level domain is returned.
    """
    scheme = spec.naming
    if scheme.subdomain_kind == SUBDOMAIN_FIXED:
        return list(scheme.fixed_fqdns)
    label = scheme.service_labels[0] if scheme.service_labels else None
    queries: List[str] = []
    if scheme.region_style == REGION_STYLE_CODE and region_codes and label:
        for region in region_codes:
            queries.append(f"*.{label}.{region}.{scheme.second_level_domain}")
    elif label and scheme.subdomain_kind == SUBDOMAIN_SERVICE:
        for service in scheme.service_labels:
            queries.append(f"*.{service}.{scheme.second_level_domain}")
    else:
        queries.append(f"*.{scheme.second_level_domain}")
    return queries


@dataclass
class PatternSet:
    """The full pattern collection of the study, indexed by provider.

    Names are matched through :meth:`engine`, a lazily built
    :class:`repro.core.matcher.CompiledPatternSet`: patterns are compiled once,
    indexed by registrable-suffix, and single lookups are LRU-cached.  The
    engine is rebuilt automatically when the ``patterns`` mapping changes.
    """

    patterns: Dict[str, List[DomainPattern]] = field(default_factory=dict)
    _engine: Optional["CompiledPatternSet"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _engine_fingerprint: Optional[Tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def for_providers(cls, providers: Iterable[ProviderSpec] = PROVIDERS) -> "PatternSet":
        """Build the pattern set for the given providers (all 16 by default)."""
        pattern_set = cls()
        for spec in providers:
            pattern_set.patterns[spec.key] = build_patterns(spec)
        return pattern_set

    def fingerprint(self) -> str:
        """A stable SHA-256 digest of the pattern collection.

        Covers every field that defines a pattern's matching behaviour (and its
        description, so a round-tripped set reproduces the digest).  The
        artifact store keys persisted discovery results on this fingerprint:
        results classified under one pattern set can never be served to a
        pipeline running a different one.
        """
        import hashlib

        payload = "\x1e".join(
            "\x1f".join(
                (
                    key,
                    pattern.regex,
                    pattern.description,
                    pattern.suffix_hint,
                    "1" if pattern.exact_hint else "0",
                )
            )
            for key in sorted(self.patterns)
            for pattern in self.patterns[key]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def engine(self) -> "CompiledPatternSet":
        """Return the compiled matching engine for the current patterns.

        The engine is cached; a cheap fingerprint over the pattern collection
        detects mutation of :attr:`patterns` and triggers a rebuild, so the
        public mutable mapping keeps working as before.
        """
        from repro.core.matcher import CompiledPatternSet

        fingerprint = tuple(
            (key, tuple(patterns)) for key, patterns in self.patterns.items()
        )
        if self._engine is None or fingerprint != self._engine_fingerprint:
            self._engine = CompiledPatternSet.from_patterns(self.patterns)
            self._engine_fingerprint = fingerprint
        return self._engine


def appendix_table(providers: Iterable[ProviderSpec] = PROVIDERS) -> List[Dict[str, str]]:
    """Return rows equivalent to Appendix A's Table 2 (provider, source, API, query)."""
    rows: List[Dict[str, str]] = []
    for spec in sorted(providers, key=lambda s: s.name):
        rows.append(
            {
                "provider": spec.name,
                "data_source": "DNSDB",
                "api_type": "Flexible Search",
                "query": dnsdb_flex_query(spec),
            }
        )
        for query in dnsdb_basic_queries(spec):
            rows.append(
                {
                    "provider": spec.name,
                    "data_source": "DNSDB",
                    "api_type": "Basic Search",
                    "query": query,
                }
            )
        for query in censys_string_queries(spec):
            rows.append(
                {
                    "provider": spec.name,
                    "data_source": "Censys",
                    "api_type": "String Search",
                    "query": query,
                }
            )
    return rows
