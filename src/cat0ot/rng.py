"""Deterministic random streams.

All randomized operations in this package draw from a Philox counter-based
generator whose 128-bit key is derived by hashing, so any (seed, tag) pair
reproduces the same sample stream on every platform:

    key = first 16 bytes of SHA-256(f"{seed}:{tag}".encode())
"""

from __future__ import annotations

import functools
import hashlib
from typing import NamedTuple

import numpy as np


def substream(seed: int, tag: str) -> np.random.Generator:
    """Return the Philox generator for this (seed, tag) substream."""
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()[:16]
    lo = int.from_bytes(digest[:8], "little")
    hi = int.from_bytes(digest[8:], "little")
    key = np.array([lo, hi], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# a word's low 32 bits; a random() double's 53 bits sit above its low 11, and
# a word's high half, or a bounded draw, above its low 32
_LOW = np.uint64(0xFFFFFFFF)
_DOUBLE_SHIFT, _HIGH_SHIFT = np.uint64(11), np.uint64(32)


class _Layout(NamedTuple):
    """Where `_paged_draws` reads each draw in its block: the block is the
    generator's buffered half, shifted up, and then the fresh words."""

    words: int  # fresh words the draws take
    doubles: np.ndarray  # draw positions of the random() doubles
    double_words: np.ndarray  # their words
    bounded: np.ndarray  # draw positions of the bounded draws
    bounded_words: np.ndarray  # the words that hold their 32 bits
    shifts: np.ndarray  # 0 where those are a word's low half, else 32
    held: int  # has_uint32 after the draws
    last_low: int  # the last word a bounded draw split, or -1


@functools.lru_cache(maxsize=16)
def _layout(pattern: str, n: int, held: int) -> _Layout:
    """The `_Layout` of n rows of pattern, from a generator whose has_uint32
    is held."""
    bounded = np.tile(np.array([c == "i" for c in pattern]), n)
    # a bounded draw splits a fresh word when no half is buffered, and
    # leaves its high half buffered for the next
    low = bounded & ((np.cumsum(bounded) - 1 + held) % 2 == 0)
    takes = ~bounded | low
    at = np.cumsum(takes)
    where = np.flatnonzero(bounded)
    own = low[where]
    src = at[where]
    # a buffered half is the high half of the word the bounded draw before
    # it split; the first bounded draw may read the generator's own half
    halves = np.flatnonzero(~own)
    src[halves] = np.where(halves > 0, src[halves - 1], 0)
    doubles = np.flatnonzero(~bounded)
    shifts = np.where(own, 0, 32).astype(np.uint64)
    last = int(src[own][-1]) if own.any() else -1
    return _Layout(int(at[-1]), doubles, at[doubles], where, src, shifts, (held + where.size) % 2, last)


def _paged_draws(rng: np.random.Generator, pages: int, pattern: str, n: int) -> np.ndarray:
    """n rows of draws, one column per letter of pattern: "i" an
    `rng.integers(0, pages)` draw, as a float, and "u" an `rng.random()`.

    The values are those of the draws made in turn, row by row, and `rng` is
    left in the same state. They come from one `random_raw` block of 64-bit
    words, replayed as numpy's Generator reads them: `random()` is
    `(word >> 11) * 2**-53`; a bounded draw is Lemire's `(x * pages) >> 32`
    on a 32-bit x that is the low half of a fresh word, or the high half that
    the bounded draw before it left buffered in the generator (Lemire, "Fast
    random integer generation in an interval", ACM TOMACS 2019). Where
    Lemire's method would reject an x and draw again, the state is restored
    and the draws are made in turn.
    """
    if pages > 0xFFFFFFFF:  # numpy draws these without Lemire's method
        return _drawn_in_turn(rng, pages, pattern, n)
    bitgen = rng.bit_generator
    state = bitgen.state
    lay = _layout(pattern, n, state["has_uint32"])
    block = np.empty(lay.words + 1, dtype=np.uint64)
    block[0] = state["uinteger"] << 32
    block[1:] = bitgen.random_raw(lay.words)
    out = np.empty(n * len(pattern))
    out[lay.doubles] = (block[lay.double_words] >> _DOUBLE_SHIFT) * 2.0**-53
    scaled = ((block[lay.bounded_words] >> lay.shifts) & _LOW) * np.uint64(pages)
    if int((scaled & _LOW).min()) < (2**32 - pages) % pages:
        bitgen.state = state
        return _drawn_in_turn(rng, pages, pattern, n)
    out[lay.bounded] = scaled >> _HIGH_SHIFT
    after = bitgen.state
    after["has_uint32"] = lay.held
    if lay.last_low >= 0:
        after["uinteger"] = int(block[lay.last_low] >> _HIGH_SHIFT)
    bitgen.state = after
    return out.reshape(n, len(pattern))


def _drawn_in_turn(rng: np.random.Generator, pages: int, pattern: str, n: int) -> np.ndarray:
    """`_paged_draws` from the draws made one at a time."""
    draw = {"i": lambda: rng.integers(0, pages), "u": rng.random}
    return np.array([[draw[c]() for c in pattern] for _ in range(n)], dtype=float).reshape(n, len(pattern))
