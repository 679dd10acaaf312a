"""DNS record types and owner-name normalisation.

The study resolves and observes only address records, so the authoritative
server, the stub resolver and the passive-DNS database share the two address
record types and one rule for normalising owner names.
"""

from __future__ import annotations

RTYPE_A = "A"
RTYPE_AAAA = "AAAA"


def normalize_name(name: str) -> str:
    """Normalise an owner name: lower-case, no trailing dot."""
    return name.strip().rstrip(".").lower()
