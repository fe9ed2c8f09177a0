"""Tests for seeded randomness helpers."""

from __future__ import annotations

import random

import pytest

from repro import rng as rng_module


class TestMakeRng:
    def test_int_seed_deterministic(self):
        assert rng_module.make_rng(7).random() == rng_module.make_rng(7).random()

    def test_random_instance_passthrough(self):
        instance = random.Random(1)
        assert rng_module.make_rng(instance) is instance

    def test_none_gives_generator(self):
        assert isinstance(rng_module.make_rng(None), random.Random)


class TestDeriveSeed:
    def test_deterministic_for_int_master(self):
        assert rng_module.derive_seed(5, 3) == rng_module.derive_seed(5, 3)

    def test_differs_across_indices(self):
        seeds = {rng_module.derive_seed(5, i) for i in range(100)}
        assert len(seeds) == 100

    def test_spawn_rngs_are_independent(self):
        values = {rng_module.spawn_rng(9, i).random() for i in range(50)}
        assert len(values) == 50


class TestSpawnRngs:
    """``spawn_rngs`` must equal ``[spawn_rng(m, i) ...]`` bit for bit.

    Both the small-count Python path and the batched numpy + C-seed path
    (count >= 1024) are pinned through ``getstate()``, which captures the
    full 624-word Mersenne state plus ``gauss_next`` — if the batched seed
    arithmetic or the direct C-layer construction ever diverged from
    ``random.Random(derive_seed(...))``, these comparisons would fail.
    """

    @pytest.mark.parametrize("master", [0, 9, -7, 2**80 + 123])
    @pytest.mark.parametrize("count", [0, 1, 50, 1500])
    def test_identical_to_spawn_rng_loop(self, master, count):
        batched = rng_module.spawn_rngs(master, count)
        reference = [rng_module.spawn_rng(master, i) for i in range(count)]
        assert len(batched) == count
        assert [r.getstate() for r in batched] == \
               [r.getstate() for r in reference]

    def test_batched_generators_draw_identically(self):
        batched = rng_module.spawn_rngs(3, 1500)
        reference = [rng_module.spawn_rng(3, i) for i in range(1500)]
        assert [r.randrange(2**62) for r in batched] == \
               [r.randrange(2**62) for r in reference]
        # gauss() exercises the gauss_next slot the fast path resets by hand.
        assert [r.gauss(0, 1) for r in batched[:32]] == \
               [r.gauss(0, 1) for r in reference[:32]]

    def test_random_master_keeps_per_index_draws(self):
        batched = rng_module.spawn_rngs(random.Random(42), 20)
        # A Random master draws a fresh base per index, so generator state
        # advances between spawns; replaying the same draws reproduces it.
        replay = random.Random(42)
        reference = [rng_module.spawn_rng(replay, i) for i in range(20)]
        assert [r.getstate() for r in batched] == \
               [r.getstate() for r in reference]

    def test_none_master_gives_distinct_generators(self):
        rngs = rng_module.spawn_rngs(None, 8)
        assert len(rngs) == 8
        assert all(isinstance(r, random.Random) for r in rngs)
        assert len({r.random() for r in rngs}) == 8


class TestRandomUniqueIds:
    def test_ids_are_unique_and_in_range(self):
        ids = rng_module.random_unique_ids(50, 1000, random.Random(1))
        assert len(set(ids)) == 50
        assert all(1 <= i <= 1000 for i in ids)

    def test_dense_space(self):
        ids = rng_module.random_unique_ids(10, 10, random.Random(2))
        assert sorted(ids) == list(range(1, 11))

    def test_impossible_request_rejected(self):
        with pytest.raises(ValueError):
            rng_module.random_unique_ids(11, 10)


class TestPythonMT19937:
    """The numpy bridge replays ``random.Random(seed)`` word for word."""

    # 2**40 + 3 needs two 32-bit words, exercising init_by_array's key loop.
    @pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, 2**40 + 3])
    def test_random_draws_match_stdlib(self, seed):
        reference = random.Random(seed)
        draws = rng_module.python_mt19937(seed).random(10_000).tolist()
        assert draws == [reference.random() for _ in range(10_000)]

    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    def test_uint32_words_match_getrandbits(self, seed):
        import numpy as np

        reference = random.Random(seed)
        words = rng_module.python_mt19937(seed).integers(
            0, 2**32, size=1000, dtype=np.uint32)
        assert words.tolist() == [reference.getrandbits(32)
                                  for _ in range(1000)]
