"""Multi-source discovery of IoT backend server IPs (Section 3.3).

Four complementary sources feed the discovery, mirroring Figure 2:

* **TLS certificates** from Internet-wide IPv4 scans (Censys snapshots): every
  certificate whose DNS names match a provider's domain patterns attributes the
  scanned address to that provider.
* **IPv6 scans** (ZGrab2-style probing of IPv6 hitlist addresses) contribute the
  IPv6 equivalent.
* **Passive DNS** contributes addresses observed in DNS answers: every distinct
  owner name is matched against all providers' regular expressions, with a
  time-range filter, which is the union of the per-provider DNSDB searches.
* **Active DNS** resolution of every domain identified via passive DNS, performed
  from multiple vantage points, contributes addresses the passive view missed.

Each discovered address keeps the set of sources that found it, which feeds the
per-source contribution analysis (Section 3.5 / Figure 3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.patterns import PatternSet
from repro.obs import metrics as obs_metrics
from repro.dns.passive_db import PassiveDnsDatabase, PassiveDnsRecord
from repro.dns.resolver import StubResolver, VantagePoint
from repro.dns.zone import RTYPE_A, RTYPE_AAAA
from repro.dns.authoritative import AuthoritativeNameServer
from repro.netmodel.addressing import is_ipv6
from repro.scan.censys import CensysSnapshot
from repro.scan.zgrab import ZGrabResult

#: Source labels (used for Figure 3).
SOURCE_TLS = "tls-certificates"
SOURCE_IPV6_SCAN = "ipv6-scan"
SOURCE_PASSIVE_DNS = "passive-dns"
SOURCE_ACTIVE_DNS = "active-dns"

ALL_SOURCES = (SOURCE_TLS, SOURCE_IPV6_SCAN, SOURCE_PASSIVE_DNS, SOURCE_ACTIVE_DNS)


@dataclass
class DiscoveredIP:
    """One backend address attributed to a provider, with provenance."""

    ip: str
    provider_key: str
    sources: Set[str] = field(default_factory=set)
    domains: Set[str] = field(default_factory=set)

    @functools.cached_property
    def is_ipv6(self) -> bool:
        """True for IPv6 addresses (parsed on first use, then remembered)."""
        return is_ipv6(self.ip)

    def merge(self, other: "DiscoveredIP") -> None:
        """Fold another observation of the same (ip, provider) into this one."""
        if other.ip != self.ip or other.provider_key != self.provider_key:
            raise ValueError("can only merge observations of the same ip and provider")
        self.sources.update(other.sources)
        self.domains.update(other.domains)


@dataclass
class DiscoveryResult:
    """The set of discovered backend addresses, per provider."""

    per_provider: Dict[str, Dict[str, DiscoveredIP]] = field(default_factory=dict)
    day: Optional[date] = None

    def add(self, record: DiscoveredIP) -> DiscoveredIP:
        """Add (or merge) one discovered address."""
        bucket = self.per_provider.setdefault(record.provider_key, {})
        existing = bucket.get(record.ip)
        if existing is None:
            bucket[record.ip] = record
            return record
        existing.merge(record)
        return existing

    def providers(self) -> List[str]:
        """Provider keys with at least one discovered address."""
        return sorted(self.per_provider)

    def records(self, provider_key: Optional[str] = None) -> List[DiscoveredIP]:
        """Return discovered records for one provider (or all providers)."""
        if provider_key is not None:
            return list(self.per_provider.get(provider_key, {}).values())
        result: List[DiscoveredIP] = []
        for key in self.providers():
            result.extend(self.per_provider[key].values())
        return result

    def ips(self, provider_key: Optional[str] = None) -> Set[str]:
        """Return the discovered addresses of one provider (or all)."""
        return {record.ip for record in self.records(provider_key)}

    def ipv4_ips(self, provider_key: Optional[str] = None) -> Set[str]:
        """IPv4 subset of :meth:`ips`."""
        return {r.ip for r in self.records(provider_key) if not r.is_ipv6}

    def ipv6_ips(self, provider_key: Optional[str] = None) -> Set[str]:
        """IPv6 subset of :meth:`ips`."""
        return {r.ip for r in self.records(provider_key) if r.is_ipv6}

    def domains(self, provider_key: Optional[str] = None) -> Set[str]:
        """Return every domain name associated with discovered addresses."""
        names: Set[str] = set()
        for record in self.records(provider_key):
            names.update(record.domains)
        return names

    def merge(self, other: "DiscoveryResult") -> "DiscoveryResult":
        """Merge another result into this one (in place); returns self."""
        for record in other.records():
            self.add(
                DiscoveredIP(
                    ip=record.ip,
                    provider_key=record.provider_key,
                    sources=set(record.sources),
                    domains=set(record.domains),
                )
            )
        return self

    def total_count(self) -> int:
        """Total number of discovered (provider, ip) attributions."""
        return sum(len(bucket) for bucket in self.per_provider.values())


class HostClassificationCache:
    """Per-host certificate-classification memo shared across daily snapshots.

    Daily Censys snapshots overlap heavily — most hosts present the same
    certificates on day N+1 as on day N — so re-classifying every certificate
    name every day is wasted work.  The cache keys each host observation on
    ``(ip, certificate identity)``, where the identity is the host's
    certificate tuple (:attr:`repro.scan.censys.CensysHostRecord.certificates`:
    comparing two days' tuples short-circuits on object identity for unchanged
    certificates and falls back to value equality, so a rotated certificate is
    always re-classified), and stores the *verdicts* of the classification: the
    ``(provider_key, domain)`` pairs the host contributes to a discovery
    result.  A host whose certificates changed gets a new key and is
    re-classified; everything else replays its verdicts with one dictionary
    probe.

    The cache is guarded by the **identity of the compiled pattern engine**: a
    verdict is only valid for the exact
    :class:`~repro.core.matcher.CompiledPatternSet` that produced it.
    :meth:`PatternSet.engine` rebuilds the engine whenever the pattern
    collection changes, so a changed pattern set yields a new engine object and
    :meth:`validate` drops every memoized verdict.
    """

    def __init__(self) -> None:
        # Keyed by address; the value pairs the certificate identity (the
        # host's certificate tuple) the verdicts were computed under with the
        # verdicts themselves, grouped per provider —
        # ((provider_key, (domain, ...)), ...) — so replay materializes one
        # record per (host, provider) without merge churn.  Keeping one slot
        # per address (rather than per (ip, identity) pair) means a rotated
        # certificate simply overwrites the stale entry.
        self.by_ip: Dict[
            str, Tuple[Tuple, Tuple[Tuple[str, Tuple[str, ...]], ...]]
        ] = {}
        self._engine_token: Optional[object] = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.by_ip)

    def validate(self, engine: object) -> None:
        """Drop all verdicts unless they were produced by this exact engine.

        Dropping a non-empty cache counts ``discovery.verdict_cache.drops``.
        """
        if engine is not self._engine_token:
            if self.by_ip:
                obs_metrics.inc("discovery.verdict_cache.drops")
            self.by_ip.clear()
            self._engine_token = engine

    def put(
        self,
        key: Tuple[str, Tuple],
        verdicts: Tuple[Tuple[str, Tuple[str, ...]], ...],
    ) -> None:
        """Memoize the verdicts of one host observation."""
        ip, identity = key
        self.by_ip[ip] = (identity, verdicts)


def _match_certificate_name(engine, name: str) -> Optional[str]:
    """Match a certificate DNS name (possibly a wildcard) with the compiled engine."""
    candidate = name.lower().rstrip(".")
    if candidate.startswith("*."):
        candidate = "wildcard." + candidate[2:]
    return engine.match(candidate)


class BackendDiscovery:
    """Implements the four discovery sources against the measurement services.

    All name classification goes through the pattern set's suffix-indexed
    compiled engine (:meth:`PatternSet.engine`), which memoizes single
    lookups; passive DNS iterates the database's *distinct* owner names, so
    each is classified once per database.

    Censys discovery is **incremental across days**: the instance owns a
    :class:`HostClassificationCache`, so consecutive snapshots only
    re-classify hosts whose certificate material changed.  Every other host
    replays the exact ``(provider, domain)`` verdicts its classification
    produced, so the result equals classifying every host afresh
    (``tests/test_discovery_cache.py`` keeps that per-host oracle).
    """

    def __init__(self, pattern_set: Optional[PatternSet] = None) -> None:
        self.pattern_set = pattern_set or PatternSet.for_providers()
        self.host_cache = HostClassificationCache()

    # -- TLS certificates (Censys, IPv4) ---------------------------------------------

    def discover_from_censys(self, snapshot: CensysSnapshot) -> DiscoveryResult:
        """Attribute scanned IPv4 hosts to providers via their certificates.

        Each host observation is keyed on ``(ip, certificate identity)`` in
        :attr:`host_cache`; overlapping daily snapshots then replay prior-day
        verdicts instead of re-classifying.
        """
        result = DiscoveryResult(day=snapshot.snapshot_date)
        engine = self.pattern_set.engine()
        cache = self.host_cache
        cache.validate(engine)
        per_provider = result.per_provider
        lookup = cache.by_ip
        make_record = DiscoveredIP
        hits = misses = 0
        # Snapshot records are keyed by address, so each host appears once
        # per day, and its verdicts hold one entry per provider; each
        # (provider, ip) record is therefore written once, in a single step
        # instead of add+merge per certificate name.  The hit path is one
        # dict probe plus a certificate-tuple compare (which short-circuits
        # on object identity for unchanged certificates), inline so that it
        # stays call-free per host.
        for ip, record in snapshot.records.items():
            identity = record.certificates
            cached = lookup.get(ip)
            if cached is not None and cached[0] == identity:
                hits += 1
                verdicts = cached[1]
            else:
                misses += 1
                grouped: Dict[str, List[str]] = {}
                for name in record.certificate_names():
                    provider_key = _match_certificate_name(engine, name)
                    if provider_key is not None:
                        grouped.setdefault(provider_key, []).append(
                            name.lower().rstrip(".")
                        )
                verdicts = tuple(
                    (provider_key, tuple(domains))
                    for provider_key, domains in grouped.items()
                )
                cache.put((ip, identity), verdicts)
            for provider_key, domains in verdicts:
                per_provider.setdefault(provider_key, {})[ip] = make_record(
                    ip, provider_key, {SOURCE_TLS}, set(domains)
                )
        cache.hits += hits
        cache.misses += misses
        obs_metrics.inc("discovery.verdict_cache.hits", float(hits))
        obs_metrics.inc("discovery.verdict_cache.misses", float(misses))
        return result

    # -- IPv6 application-layer scans --------------------------------------------------

    def discover_from_ipv6_scan(self, scan_results: Sequence[ZGrabResult]) -> DiscoveryResult:
        """Attribute IPv6 hitlist hosts to providers via scan certificates."""
        result = DiscoveryResult()
        engine = self.pattern_set.engine()
        for scan in scan_results:
            if scan.certificate is None:
                continue
            for name in scan.certificate.all_dns_names():
                provider_key = _match_certificate_name(engine, name)
                if provider_key is None:
                    continue
                result.add(
                    DiscoveredIP(
                        ip=scan.ip,
                        provider_key=provider_key,
                        sources={SOURCE_IPV6_SCAN},
                        domains={name.lower().rstrip(".")},
                    )
                )
        return result

    # -- passive DNS --------------------------------------------------------------------

    def passive_dns_observations(
        self,
        database: PassiveDnsDatabase,
        since: Optional[date] = None,
        until: Optional[date] = None,
    ) -> List[Tuple[str, PassiveDnsRecord]]:
        """Provider-attributed passive-DNS observations for a time window.

        Each distinct owner name in the database is classified once against the
        compiled pattern engine; every observation of a matching name that
        overlaps the window yields one ``(provider_key, record)`` pair (one per
        matching provider, as the per-provider DNSDB flexible searches would).
        The pairs can be re-filtered to any sub-window with
        :meth:`result_from_passive_observations` without re-matching names --
        the daily pipeline slices the period-wide result this way.
        """
        engine = self.pattern_set.engine()
        observations: List[Tuple[str, PassiveDnsRecord]] = []
        for name, records in database.iter_names():
            providers = engine.match_all(name)
            if not providers:
                continue
            for record in records:
                if not record.overlaps(since, until):
                    continue
                for provider_key in providers:
                    observations.append((provider_key, record))
        return observations

    def result_from_passive_observations(
        self,
        observations: Iterable[Tuple[str, PassiveDnsRecord]],
        since: Optional[date] = None,
        until: Optional[date] = None,
    ) -> DiscoveryResult:
        """Build a discovery result from attributed observations, optionally sliced."""
        result = DiscoveryResult()
        for provider_key, record in observations:
            if not record.overlaps(since, until):
                continue
            result.add(
                DiscoveredIP(
                    ip=record.rdata,
                    provider_key=provider_key,
                    sources={SOURCE_PASSIVE_DNS},
                    domains={record.rrname},
                )
            )
        return result

    def discover_from_passive_dns(
        self,
        database: PassiveDnsDatabase,
        since: Optional[date] = None,
        until: Optional[date] = None,
    ) -> DiscoveryResult:
        """Attribute addresses observed in passive DNS to providers."""
        return self.result_from_passive_observations(
            self.passive_dns_observations(database, since=since, until=until)
        )

    # -- active DNS ---------------------------------------------------------------------

    def discover_from_active_dns(
        self,
        authoritative: AuthoritativeNameServer,
        vantage_points: Sequence[VantagePoint],
        domains: Iterable[str],
        retries: int = 2,
    ) -> DiscoveryResult:
        """Resolve the given domains from every vantage point and attribute answers.

        Domains are resolved in sorted order, every vantage point in turn, A
        then AAAA.  The answers are folded into one domain set per
        ``(provider, address)`` in first-seen order, then one record is made
        per address, so the result holds the records and the insertion order
        that adding one record per answer gives.
        """
        engine = self.pattern_set.engine()
        resolvers = [StubResolver(authoritative, vp, retries=retries) for vp in vantage_points]
        # provider -> address -> domains; a provider enters at its first answer.
        folded: Dict[str, Dict[str, Set[str]]] = {}
        for domain in sorted(set(domains)):
            provider_key = engine.match(domain)
            if provider_key is None:
                continue
            bucket = None
            for resolver in resolvers:
                for rtype in (RTYPE_A, RTYPE_AAAA):
                    for address in resolver.resolve(domain, rtype).addresses:
                        if bucket is None:
                            bucket = folded.setdefault(provider_key, {})
                        names = bucket.get(address)
                        if names is None:
                            bucket[address] = {domain}
                        else:
                            names.add(domain)
        result = DiscoveryResult()
        for provider_key, bucket in folded.items():
            result.per_provider[provider_key] = {
                address: DiscoveredIP(address, provider_key, {SOURCE_ACTIVE_DNS}, names)
                for address, names in bucket.items()
            }
        return result

    # -- combined ------------------------------------------------------------------------

    def combine(self, results: Iterable[DiscoveryResult], day: Optional[date] = None) -> DiscoveryResult:
        """Union several per-source results into one."""
        combined = DiscoveryResult(day=day)
        for result in results:
            combined.merge(result)
        return combined
