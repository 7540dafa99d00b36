"""Deterministic random-stream derivation.

Every stochastic component draws from its own named stream derived from the
run seed, so adding or removing one consumer never perturbs the draws seen
by another. Stage and epoch indices are folded into the stream key, which
is what makes warm-started stage trajectories reproducible in isolation.
"""

import hashlib

import numpy as np

__all__ = ["MAX_SEED", "rng_for"]

# an int key part, a seed among them, enters the key as its low 32 bits, so
# a seed above this would draw the streams of a smaller one
MAX_SEED = 2**32 - 1


def _key_to_ints(key) -> list[int]:
    out = []
    for part in key:
        if isinstance(part, (int, np.integer)):
            out.append(int(part) & MAX_SEED)
        else:
            digest = hashlib.sha256(str(part).encode("utf-8")).digest()
            out.append(int.from_bytes(digest[:4], "little"))
    return out


def rng_for(*key) -> np.random.Generator:
    """Return a Generator seeded by the hash of the given key parts.

    Parts may be ints or strings; strings are hashed stably so the stream
    does not depend on Python's per-process hash randomization.
    """
    return np.random.default_rng(np.random.SeedSequence(_key_to_ints(key)))
