from __future__ import annotations

import numpy as np
import pytest

from cat0ot import rng as rng_module
from cat0ot.rng import _paged_draws, substream

# a book point's draws, and a geometry-suite sample's: three points, then
# three doubles
PATTERNS = ["iuu", "iuu" * 3 + "uuu"]
COUNTS = list(range(1, 18)) + [63, 64, 65, 500, 1000]


def _in_turn(rng, pages, pattern, n):
    return np.array(
        [[float(rng.integers(0, pages)) if c == "i" else rng.random() for c in pattern] for _ in range(n)]
    ).reshape(n, len(pattern))


def _state(rng):
    return repr(rng.bit_generator.state)


def _pair(seed, tag, buffered):
    # a bounded draw before the block leaves the high half of its word
    # buffered, which the block's first page draw then reads
    out = substream(seed, tag), substream(seed, tag)
    if buffered:
        for g in out:
            g.integers(0, 5)
    return out


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("pages", [3, 4, 7])
def test_paged_draws_replay_the_draws_in_turn(pages, pattern, buffered):
    for seed in range(3):
        for n in COUNTS:
            rng, ref = _pair(seed, f"paged:{pages}:{n}", buffered)
            got, want = _paged_draws(rng, pages, pattern, n), _in_turn(ref, pages, pattern, n)
            assert got.tobytes() == want.tobytes()
            assert _state(rng) == _state(ref)
            # the buffered half and the word position both carry on
            assert (rng.permutation(9) == ref.permutation(9)).all()
            assert rng.random() == ref.random()


@pytest.mark.parametrize("pages", [2**32, 2**40])
def test_pages_past_32_bits_take_the_draws_in_turn(pages):
    rng, ref = _pair(3, "wide", True)
    got, want = _paged_draws(rng, pages, "iuu", 9), _in_turn(ref, pages, "iuu", 9)
    assert got.tobytes() == want.tobytes()
    assert _state(rng) == _state(ref)


def test_a_rejected_draw_takes_the_draws_in_turn_from_the_first(monkeypatch):
    # with 2^31 + 1 pages, Lemire's method rejects about half of all draws;
    # the block must be dropped and the draws made from the state it met
    fallbacks = []
    in_turn = rng_module._drawn_in_turn

    def counted(*args):
        fallbacks.append(args[1:])
        return in_turn(*args)

    monkeypatch.setattr(rng_module, "_drawn_in_turn", counted)
    pages = 2**31 + 1
    for seed in range(8):
        for buffered in (False, True):
            rng, ref = _pair(seed, "rejected", buffered)
            got, want = _paged_draws(rng, pages, "iuu", 4), _in_turn(ref, pages, "iuu", 4)
            assert got.tobytes() == want.tobytes()
            assert _state(rng) == _state(ref)
            assert rng.random() == ref.random()
    assert fallbacks and all(args == (pages, "iuu", 4) for args in fallbacks)
