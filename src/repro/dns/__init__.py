"""DNS substrate: address record types, provider naming schemes, authoritative
answering with vantage-point-dependent responses, a recursive stub resolver, and a
DNSDB-like passive DNS database."""

from repro.dns.zone import RTYPE_A, RTYPE_AAAA
from repro.dns.names import DomainNamingScheme, build_fqdn
from repro.dns.authoritative import AnswerPolicy, AuthoritativeNameServer, AuthoritativeRecord
from repro.dns.resolver import StubResolver, VantagePoint
from repro.dns.passive_db import PassiveDnsDatabase, PassiveDnsRecord

__all__ = [
    "RTYPE_A",
    "RTYPE_AAAA",
    "DomainNamingScheme",
    "build_fqdn",
    "AnswerPolicy",
    "AuthoritativeNameServer",
    "AuthoritativeRecord",
    "StubResolver",
    "VantagePoint",
    "PassiveDnsDatabase",
    "PassiveDnsRecord",
]
