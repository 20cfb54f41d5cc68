"""Batched RNG draws must consume the seed stream bit-for-bit like the
per-call loop — seeds are part of the findings contract.  The reference
is the ``randrange`` comprehension that ``randrange_block`` replaces."""

from __future__ import annotations

import random

import pytest

from repro.common.rngblock import randrange_block
from repro.core.runner import _TrackedRandom

BOUNDS = (1, 2, 3, 30, 40, 100, 120, 128, 256, 1000, 7919)


def randrange_reference(rng, bound, count):
    """The per-call loop ``randrange_block`` batches."""
    return [rng.randrange(bound) for _ in range(count)]


class TestStreamEquality:
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_per_seed_stream_identical_fast_vs_legacy(self, bound):
        for seed in range(12):
            expected = randrange_reference(random.Random(seed), bound, 257)
            assert randrange_block(random.Random(seed), bound, 257) == expected

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_generator_position_identical_after_block(self, bound):
        """Draws *after* a block must match too: the block consumed
        exactly the same amount of the underlying stream."""
        reference = random.Random(42)
        head = randrange_reference(reference, bound, 100)
        tail = randrange_reference(reference, bound, 20)
        rng = random.Random(42)
        assert randrange_block(rng, bound, 100) == head
        assert randrange_reference(rng, bound, 20) == tail

    def test_matches_plain_randrange_loop(self):
        rng = random.Random(7)
        expected = [rng.randrange(100) for _ in range(500)]
        assert randrange_block(random.Random(7), 100, 500) == expected

    def test_tracked_random_marks_used(self):
        rng = _TrackedRandom(3)
        assert not rng.used
        randrange_block(rng, 256, 16)
        assert rng.used

    def test_tracked_random_stream_identical(self):
        rng = random.Random(9)
        expected = [rng.randrange(256) for _ in range(200)]
        assert randrange_block(_TrackedRandom(9), 256, 200) == expected

    def test_empty_and_invalid(self):
        assert randrange_block(random.Random(1), 10, 0) == []
        with pytest.raises(ValueError):
            randrange_block(random.Random(1), 0, 4)
