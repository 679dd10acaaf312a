"""X.509-like certificate model.

The methodology extracts backend IPs from TLS certificates observed in scan data by
matching the certificates' DNS names (subject CN and subject-alternative names)
against the per-provider domain regular expressions (Section 3.3).  Only
certificates valid during the study period are used.  This module models exactly
the certificate attributes those steps consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, List, Tuple

_serial_counter = itertools.count(1)


def _next_serial() -> int:
    return next(_serial_counter)


@dataclass(frozen=True)
class Certificate:
    """A leaf certificate as seen by a TLS scanner.

    Attributes
    ----------
    subject_common_name:
        The subject CN, usually one of the covered DNS names.
    san_dns_names:
        Subject-alternative DNS names (may include wildcards such as
        ``*.iot.us-east-1.amazonaws.com``).
    issuer:
        Issuer organisation string (e.g. a public CA, or the provider itself for
        self-signed device-gateway certificates).
    not_before / not_after:
        Validity interval (inclusive of both end dates).
    self_signed:
        True when the certificate was not issued by a public CA.
    """

    subject_common_name: str
    san_dns_names: Tuple[str, ...] = ()
    issuer: str = "Example Trust CA"
    not_before: date = date(2021, 1, 1)
    not_after: date = date(2023, 1, 1)
    self_signed: bool = False
    serial: int = field(default_factory=_next_serial)

    def all_dns_names(self) -> Tuple[str, ...]:
        """Return the subject CN plus all SAN entries, de-duplicated, in order."""
        names: List[str] = []
        for name in (self.subject_common_name, *self.san_dns_names):
            if name and name not in names:
                names.append(name)
        return tuple(names)

    def is_valid_on(self, day: date) -> bool:
        """Return True when the certificate validity interval covers the day."""
        return self.not_before <= day <= self.not_after

    def covers_domain(self, fqdn: str) -> bool:
        """Return True when any certificate name covers the FQDN.

        Wildcard names match exactly one additional left-most label, as in RFC 6125.
        """
        fqdn = fqdn.rstrip(".").lower()
        for name in self.all_dns_names():
            if _name_matches(name.rstrip(".").lower(), fqdn):
                return True
        return False


def _name_matches(pattern: str, fqdn: str) -> bool:
    """Return True when a certificate name (possibly a wildcard) covers an FQDN."""
    if pattern == fqdn:
        return True
    if pattern.startswith("*."):
        suffix = pattern[2:]
        if not fqdn.endswith("." + suffix):
            return False
        # The wildcard must cover exactly one label.
        prefix = fqdn[: -(len(suffix) + 1)]
        return bool(prefix) and "." not in prefix
    return False


def make_certificate(
    names: Iterable[str],
    issuer: str = "Example Trust CA",
    not_before: date = date(2021, 6, 1),
    not_after: date = date(2023, 6, 1),
    self_signed: bool = False,
) -> Certificate:
    """Build a certificate whose subject CN is the first name and SANs are the rest."""
    names = [n for n in names if n]
    if not names:
        raise ValueError("a certificate needs at least one DNS name")
    return Certificate(
        subject_common_name=names[0],
        san_dns_names=tuple(names[1:]),
        issuer=issuer,
        not_before=not_before,
        not_after=not_after,
        self_signed=self_signed,
    )
