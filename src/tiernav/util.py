"""Seeding and small shared helpers.

Every stochastic component draws from a substream derived from
(master_seed, *tags) so results do not depend on call order elsewhere
in the program.
"""

import hashlib

import numpy as np


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator for (master_seed, tags), stable across runs."""
    key = tuple(_tag_to_int(t) for t in tags)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=key)))


def stable_hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
