"""Counter-based random-stream derivation from a single master seed.

Every stream of an experiment gets its own generator, derived from the
master seed plus a small integer key (role, index...). The Monte Carlo
runner keys its streams by role and index: index 0 holds what a plan pins
(its support, its pinned signal), and seed block b of trials draws all of
its sensing matrices, noise and redrawn signals from index b + 1 of the
matching role. Streams are therefore independent of execution order and
of the number of workers, which is what makes parallel Monte Carlo runs
reproducible byte for byte.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Seed = Union[int, np.random.SeedSequence, np.random.Generator]

# Role tags used as the first component of a derived key.
ROLE_SUPPORT = 1
ROLE_SIGNAL = 2
ROLE_MATRIX = 3
ROLE_NOISE = 4
ROLE_CHECK = 5


def as_rng(seed: Seed) -> np.random.Generator:
    """Return a Generator for an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, *key).

    The key components become the SeedSequence spawn key, so distinct keys
    yield statistically independent streams and the same key always yields
    the same stream.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(c) for c in key))
    return np.random.default_rng(ss)
