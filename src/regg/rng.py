"""Reproducible random streams.

Every experiment owns one explicit 64-bit seed.  Independent streams are
derived from (seed, path) where path is a tuple of small integers such as
a trial index; this makes Monte-Carlo trials order-independent and safe
to schedule concurrently.  The generator is Philox, a counter-based PRNG,
so distinct paths can never alias each other's state.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParametersError

__all__ = ["stream"]

_MASK64 = (1 << 64) - 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (seed, path).

    Equal arguments give bit-identical streams on every platform.
    """
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise InvalidParametersError(f"seed must fit in 64 bits, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))

