"""Tests for the pairwise-independent hash family and key packing."""

import random
import sys
import threading

import pytest

from repro.sketches.hashing import HashFamily, PairwiseHash, fold_key, unfold_key


class TestHashFamily:
    def test_draw_range(self):
        family = HashFamily(seed=1)
        h = family.draw(100)
        for key in range(1000):
            assert 0 <= h(key) < 100

    def test_deterministic_for_seed(self):
        a = HashFamily(seed=7).draw_many(3, 50)
        b = HashFamily(seed=7).draw_many(3, 50)
        for ha, hb in zip(a, b):
            for key in (0, 1, 12345, 2**32 - 1):
                assert ha(key) == hb(key)

    def test_different_seeds_differ(self):
        a = HashFamily(seed=1).draw(1 << 20)
        b = HashFamily(seed=2).draw(1 << 20)
        collisions = sum(1 for key in range(200) if a(key) == b(key))
        assert collisions < 10

    def test_distribution_roughly_uniform(self):
        h = HashFamily(seed=3).draw(10)
        counts = [0] * 10
        for key in range(10000):
            counts[h(key)] += 1
        assert min(counts) > 500
        assert max(counts) < 1500

    def test_invalid_range(self):
        family = HashFamily(seed=0)
        with pytest.raises(ValueError):
            family.draw(0)

    def test_invalid_prime(self):
        with pytest.raises(ValueError):
            HashFamily(seed=0, prime=1)

    def test_draw_many_count(self):
        family = HashFamily(seed=0)
        assert len(family.draw_many(5, 8)) == 5
        with pytest.raises(ValueError):
            family.draw_many(-1, 8)

    def test_with_range(self):
        h = HashFamily(seed=0).draw(100)
        h2 = h.with_range(10)
        assert isinstance(h2, PairwiseHash)
        assert 0 <= h2(12345) < 10

    def test_zero_range_rejected_at_construction(self):
        # The range is validated when the hash is built (construction or
        # with_range), not on every call in the data-plane hot path.
        with pytest.raises(ValueError):
            PairwiseHash(a=3, b=5, range_size=0)
        with pytest.raises(ValueError):
            HashFamily(seed=0).draw(100).with_range(0)


class TestHashFamilyMemo:
    """Families read their (a, b) pairs from a per-process memo."""

    PRIMES = ((1 << 61) - 1, (1 << 89) - 1, (1 << 127) - 1)

    @staticmethod
    def fresh_pairs(seed, prime, count):
        rng = random.Random(seed)
        return [(rng.randrange(1, prime), rng.randrange(0, prime)) for _ in range(count)]

    def test_interleaved_draws_match_a_fresh_random(self):
        rng = random.Random(5)
        families = {}
        drawn = {}
        # Several families per (seed, prime), sharing memo entries, with
        # interleaved draw / draw_many calls that outgrow the memo.
        for _ in range(300):
            seed = rng.choice([0, 1, 7, 0xC1A551F1, -3, 10**30])
            prime = rng.choice(self.PRIMES)
            copy = rng.randrange(3)
            key = (seed, prime, copy)
            family = families.setdefault(key, HashFamily(seed, prime=prime))
            if rng.random() < 0.5:
                hashes = [family.draw(rng.randrange(1, 1000))]
            else:
                hashes = family.draw_many(rng.randrange(0, 6), rng.randrange(1, 1000))
            drawn.setdefault(key, []).extend((h.a, h.b) for h in hashes)
            assert all(h.prime == prime for h in hashes)
        for (seed, prime, _), pairs in drawn.items():
            assert pairs == self.fresh_pairs(seed, prime, len(pairs))

    def test_invalid_draws_consume_nothing(self):
        family = HashFamily(seed=11)
        with pytest.raises(ValueError):
            family.draw(0)
        with pytest.raises(ValueError):
            family.draw_many(2, -1)
        assert family.draw_many(0, -1) == []
        h = family.draw(50)
        assert (h.a, h.b) == self.fresh_pairs(11, h.prime, 1)[0]

    def test_concurrent_families_agree(self):
        # More threads than cores, switching often, on fresh memo entries:
        # every family must still read its seed's own sequence.
        results = []

        def build(seed):
            family = HashFamily(seed)
            pairs = [(h.a, h.b) for h in family.draw_many(3, 64)]
            pairs += [(h.a, h.b) for h in family.draw_many(20, 64)]
            results.append((seed, pairs))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(0x5EED0000 + i % 5,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 16
        for seed, pairs in results:
            assert pairs == self.fresh_pairs(seed, (1 << 89) - 1, 23)


class TestKeyPacking:
    def test_roundtrip(self):
        widths = (32, 32, 16, 16, 8)
        parts = (0x0A000001, 0x0A000002, 1234, 80, 6)
        key = fold_key(parts, widths)
        assert unfold_key(key, widths) == parts

    def test_fold_rejects_overflow(self):
        with pytest.raises(ValueError):
            fold_key((256,), (8,))

    def test_fold_rejects_negative(self):
        with pytest.raises(ValueError):
            fold_key((-1,), (8,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fold_key((1, 2), (8,))

    def test_unfold_rejects_extra_bits(self):
        with pytest.raises(ValueError):
            unfold_key(1 << 20, (8, 8))

    def test_zero_key(self):
        widths = (32, 32, 16, 16, 8)
        assert unfold_key(fold_key((0, 0, 0, 0, 0), widths), widths) == (0, 0, 0, 0, 0)
