"""Deterministic random streams.

All randomized operations in this package draw from a Philox counter-based
generator whose 128-bit key is derived by hashing, so any (seed, tag) pair
reproduces the same sample stream on every platform:

    key = first 16 bytes of SHA-256(f"{seed}:{tag}".encode())
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, tag: str) -> np.random.Generator:
    """Return the Philox generator for this (seed, tag) substream."""
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()[:16]
    lo = int.from_bytes(digest[:8], "little")
    hi = int.from_bytes(digest[8:], "little")
    key = np.array([lo, hi], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
