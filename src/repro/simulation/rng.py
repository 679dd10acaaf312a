"""Named, seeded random-number streams.

Every stochastic component of the simulation draws from a named stream obtained from
a single :class:`RngRegistry`.  Two registries created with the same seed produce
identical streams for identical names, which makes every experiment reproducible
bit-for-bit regardless of the order in which components request their streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(base_seed: int, name: str) -> int:
    """Derive a child seed from a base seed and a stream name.

    The derivation uses SHA-256 so that stream seeds are independent of each other
    and of the order in which streams are created.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory for named deterministic random streams.

    Parameters
    ----------
    seed:
        The base seed.  All derived streams are a pure function of this seed and
        the stream name.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it if needed.

        Repeated calls with the same name return the *same* generator object, so a
        component that consumes values advances the stream for later callers with
        the same name.  Components that need isolation should use distinct names.
        """
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self._seed, name))
        return self._streams[name]

    def fresh_stream(self, name: str) -> random.Random:
        """Return a new generator for ``name`` without registering it.

        Useful when the caller wants a stream whose state is not shared with any
        other component (e.g. per-day or per-provider sub-streams).
        """
        return random.Random(_derive_seed(self._seed, name))

    def spawn(self, name: str) -> "RngRegistry":
        """Return a child registry whose streams are independent of this one."""
        return RngRegistry(_derive_seed(self._seed, f"registry:{name}"))


def stable_hash(value: str, modulus: int = 2**32) -> int:
    """Return a stable (non-salted) integer hash of a string.

    Python's built-in :func:`hash` is salted per process; this helper provides a
    process-independent hash used for deterministic assignment decisions such as
    mapping a subscriber line to a device mix.
    """
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % modulus
