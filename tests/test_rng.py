from __future__ import annotations

import hashlib

import numpy as np

from cat0ot.rng import substream


def test_a_substream_is_philox_keyed_by_the_hash_of_seed_and_tag():
    digest = hashlib.sha256(b"7:points").digest()
    key = np.array([int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little")], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key))
    assert substream(7, "points").random(5).tobytes() == ref.random(5).tobytes()
    assert substream(7, "points").random() != substream(7, "point").random()
