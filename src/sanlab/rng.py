"""Seeded random number streams.

All randomness in the package flows through `derive`, which builds an
independent PCG64 generator from an explicit 64-bit seed plus an integer
key path.  There is no global RNG state anywhere, so any computation can
be replayed bit-for-bit from its seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Key-path namespaces; kept distinct so unrelated consumers of the same
# user seed never share a stream.
STREAM_WEIGHTS = 0
STREAM_DATA = 1
STREAM_STEP = 2
STREAM_EVAL = 3


def derive(seed: int, *key: int) -> np.random.Generator:
    """Return a fresh generator for (seed, *key).

    Identical arguments always produce an identical stream, independent of
    call order or platform.  A negative seed is a ConfigError.
    """
    if int(seed) < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, key)])))
