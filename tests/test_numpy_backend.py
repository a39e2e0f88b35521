"""Property tests: the vectorized NumPy backend is bit-identical to the scalar path.

Every batch API (``hash_array``, ``insert_batch``, ``query_batch``, and the
batched classifier) must produce exactly the same state and results as the
scalar reference loops, under random seeds, key widths up to 127 bits, and
both Mersenne primes used in the repository.  The classifier's per-flow walk
lives in ``tests/dataplane_reference.py``.
"""

import random

import numpy as np
import pytest

from repro.core.tower_fermat import TowerFermat
from repro.dataplane.classifier import FlowClassifier, classify_flows
from repro.dataplane.config import EncoderLayout, MonitoringConfig, SwitchResources
from repro.network.simulator import _hypergeometric_u, distribute_losses_uniform
from repro.dataplane.hierarchy import FlowHierarchy
from repro.sketches.cm import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.fermat import (
    MERSENNE_PRIME_61,
    MERSENNE_PRIME_127,
    FermatSketch,
)
from repro.sketches.hashing import HashFamily, KeyArray, PairwiseHash, modmul_array
from repro.sketches.tower import TowerSketch

from dataplane_reference import batch_segments, classify_flow_packets, tower_fermat_walk


def random_flows(seed, count=400, key_bits=32, max_size=300):
    rng = random.Random(seed)
    ids = [rng.randrange(1, 1 << key_bits) for _ in range(count)]
    sizes = [rng.randrange(1, max_size) for _ in range(count)]
    return ids, sizes


class TestHashArray:
    @pytest.mark.parametrize("key_bits", [8, 32, 63, 64, 89, 104, 127])
    @pytest.mark.parametrize("range_size", [2, 3, 100, 4096, 65536, 2500 // 3])
    def test_bit_identical_to_scalar(self, key_bits, range_size):
        rng = random.Random(key_bits * 1000 + range_size)
        family = HashFamily(seed=rng.randrange(1 << 30))
        h = family.draw(range_size)
        keys = [rng.randrange(0, 1 << key_bits) for _ in range(200)]
        keys += [0, 1, h.prime - 1, h.prime, h.prime + 1, (1 << key_bits) - 1]
        assert h.hash_array(keys).tolist() == [h(k) for k in keys]

    def test_accepts_numpy_arrays_and_keyarray(self):
        h = HashFamily(seed=5).draw(1000)
        keys = np.arange(0, 5000, 7, dtype=np.int64)
        expected = [h(int(k)) for k in keys]
        assert h.hash_array(keys).tolist() == expected
        shared = KeyArray(keys)
        assert h.hash_array(shared).tolist() == expected
        h2 = h.with_range(17)
        assert h2.hash_array(shared).tolist() == [h2(int(k)) for k in keys]

    def test_empty_batch(self):
        h = HashFamily(seed=1).draw(10)
        assert h.hash_array([]).size == 0

    @pytest.mark.parametrize("prime", [(1 << 61) - 1, (1 << 89) - 1, (1 << 127) - 1])
    def test_batches_longer_than_a_kernel_slice(self, prime):
        # The limb kernels run a slice of keys at a time; the slices must
        # join up to the scalar results across every boundary.
        rng = np.random.default_rng(prime % 1000)
        keys = rng.integers(0, 1 << 63, 2 * 65536 + 17, dtype=np.uint64)
        key_list = keys.tolist()
        h = HashFamily(seed=4, prime=prime).draw(1009)
        assert h.hash_array(keys).tolist() == [h(k) for k in key_list]
        factors = rng.integers(0, 1 << 31, keys.size, dtype=np.uint64)
        limbs = modmul_array(KeyArray(keys), factors, prime)
        products = [0] * keys.size
        for row in reversed(limbs.tolist()):
            products = [(value << 32) | limb for value, limb in zip(products, row)]
        assert products == [(k * f) % prime for k, f in zip(key_list, factors.tolist())]

    def test_rejects_negative_keys(self):
        h = HashFamily(seed=1).draw(10)
        with pytest.raises(ValueError):
            h.hash_array([3, -1])

    def test_invalid_range_rejected_at_construction(self):
        # Regression: the range used to be validated on every call and the
        # error surfaced only at first use; now construction fails fast.
        with pytest.raises(ValueError):
            PairwiseHash(a=3, b=5, range_size=0)
        h = HashFamily(seed=0).draw(100)
        with pytest.raises(ValueError):
            h.with_range(-2)


class TestSketchBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tower_insert_query(self, seed):
        ids, sizes = random_flows(seed, key_bits=104, max_size=400)
        scalar = TowerSketch([(8, 512), (16, 256)], seed=seed)
        batched = TowerSketch([(8, 512), (16, 256)], seed=seed)
        for flow_id, size in zip(ids, sizes):
            scalar.insert(flow_id, size)
        batched.insert_batch(ids, sizes)
        for level in range(2):
            assert np.array_equal(scalar.counter_array(level), batched.counter_array(level))
        queries = ids[:50] + [999999999]
        assert batched.query_batch(queries).tolist() == [
            scalar.query(f) for f in queries
        ]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cm_insert_query(self, seed):
        ids, sizes = random_flows(seed)
        scalar = CountMinSketch(277, depth=3, seed=seed)
        batched = CountMinSketch(277, depth=3, seed=seed)
        for flow_id, size in zip(ids, sizes):
            scalar.insert(flow_id, size)
        batched.insert_batch(ids, sizes)
        assert (scalar._counters == batched._counters).all()
        assert batched.query_batch(ids[:40]).tolist() == [
            scalar.query(f) for f in ids[:40]
        ]

    @pytest.mark.parametrize("seed", [5, 6])
    def test_countsketch_insert(self, seed):
        ids, sizes = random_flows(seed)
        scalar = CountSketch(301, depth=3, seed=seed)
        batched = CountSketch(301, depth=3, seed=seed)
        for flow_id, size in zip(ids, sizes):
            scalar.insert(flow_id, size)
        batched.insert_batch(ids, sizes)
        assert (scalar._counters == batched._counters).all()
        for flow_id in ids[:30]:
            assert scalar.query(flow_id) == batched.query(flow_id)

    @pytest.mark.parametrize(
        "prime,key_bits,fingerprint_bits",
        [
            (MERSENNE_PRIME_61, 32, 0),
            (MERSENNE_PRIME_61, 32, 20),
            (MERSENNE_PRIME_127, 104, 20),
        ],
    )
    def test_fermat_insert_and_decode(self, prime, key_bits, fingerprint_bits):
        ids, sizes = random_flows(11, count=300, key_bits=key_bits)
        ids = list(dict.fromkeys(ids))
        sizes = sizes[: len(ids)]
        kwargs = dict(
            num_arrays=3, prime=prime, seed=9, fingerprint_bits=fingerprint_bits
        )
        scalar = FermatSketch(220, **kwargs)
        batched = FermatSketch(220, **kwargs)
        for flow_id, size in zip(ids, sizes):
            scalar.insert(flow_id, size)
        batched.insert_batch(ids, sizes)
        for i in range(3):
            assert (scalar._counts[i] == batched._counts[i]).all()
            assert scalar._idsums[i].tolist() == batched._idsums[i].tolist()
        scalar_decode = scalar.decode_nondestructive()
        batched_decode = batched.decode_nondestructive()
        assert scalar_decode.flows == batched_decode.flows
        assert scalar_decode.success == batched_decode.success
        assert batched_decode.success
        assert batched_decode.flows == dict(zip(ids, sizes))

    @pytest.mark.parametrize(
        "prime,fingerprint_bits",
        [(101, 0), (1000003, 0), (MERSENNE_PRIME_61, 8), (MERSENNE_PRIME_127, 8)],
    )
    def test_fermat_batch_fallback_counts_match_scalar(self, prime, fingerprint_bits):
        # Negative counts, counts of 2**31 and non-Mersenne primes take the
        # per-element IDsum path of the batch encoder.
        rng = random.Random(prime % 97)
        top = min(prime >> fingerprint_bits, 1 << 40)
        ids = [rng.randrange(1, top) for _ in range(200)]
        counts = [rng.choice([-5, -1, 1, 3, 1 << 31, 7]) for _ in ids]
        scalar = FermatSketch(37, prime=prime, seed=3, fingerprint_bits=fingerprint_bits)
        batched = scalar.empty_like()
        for flow_id, count in zip(ids, counts):
            scalar.insert(flow_id, count)
        batched.insert_batch(ids, counts)
        for i in range(scalar.num_arrays):
            assert (scalar._counts[i] == batched._counts[i]).all()
            assert scalar._idsums[i].tolist() == batched._idsums[i].tolist()

    def test_fermat_batch_respects_prime_bound(self):
        sketch = FermatSketch(64, prime=MERSENNE_PRIME_61, fingerprint_bits=0)
        with pytest.raises(ValueError):
            sketch.insert_batch([MERSENNE_PRIME_61 + 1], [1])

    @pytest.mark.parametrize(
        "levels, threshold, max_size",
        [
            (((16, 512),), 50, 600),
            (((8, 1024), (16, 512)), 50, 600),
            (((8, 256), (12, 128), (16, 64)), 300, 900),
            # Narrow counters saturate mid-flow and soon for good; T_h lies
            # between the two saturations.
            (((3, 32), (5, 8)), 20, 40),
            # T_h lies above the only saturation: saturated flows' estimates
            # stay stuck below it and nothing reaches the Fermat part.
            (((4, 32),), 20, 60),
        ],
        ids=["1-level", "2-level", "3-level", "saturating", "stuck"],
    )
    def test_tower_fermat_matches_walk(self, levels, threshold, max_size):
        ids, sizes = random_flows(7, count=500, key_bits=32, max_size=max_size)
        # A flow seen again, and empty and negative sizes, which insert nothing.
        ids += ids[:25]
        sizes += sizes[:25]
        sizes[::31] = [0] * len(sizes[::31])
        sizes[5::43] = [-3] * len(sizes[5::43])

        def build():
            return TowerFermat(levels, fermat_buckets=600, threshold=threshold, seed=3)

        expected = build()
        for flow_id, size in zip(ids, sizes):
            promoted = tower_fermat_walk(expected.tower, flow_id, size, threshold)
            if promoted:
                expected.fermat.insert(flow_id, promoted)
        one_by_one = build()
        for flow_id, size in zip(ids, sizes):
            one_by_one.insert(flow_id, size)
        batched = build()
        batched.insert_batch(ids, sizes)
        for got in (one_by_one, batched):
            for level in range(len(levels)):
                assert np.array_equal(
                    expected.tower.counter_array(level), got.tower.counter_array(level)
                )
            for i in range(expected.fermat.num_arrays):
                assert (expected.fermat._counts[i] == got.fermat._counts[i]).all()
                assert expected.fermat._idsums[i].tolist() == got.fermat._idsums[i].tolist()
            assert got.flowset() == expected.flowset()


def walk_and_classify(resources, seed, config, ids, sizes, num_switches, owner_seed):
    """The per-flow walk on one classifier per switch, and the fabric pass.

    Returns ``(expected segments, walked classifiers, got segments, fabric
    classifiers)``; flow ``r`` enters at a random switch, and each switch
    sees its flows in batch order.
    """
    owners = random.Random(owner_seed).choices(range(num_switches), k=len(ids))
    walked = [FlowClassifier(resources, seed=seed) for _ in range(num_switches)]
    batched = [FlowClassifier(resources, seed=seed) for _ in range(num_switches)]
    expected = [
        classify_flow_packets(walked[owner], flow_id, size, config)
        for owner, flow_id, size in zip(owners, ids, sizes)
    ]
    got = batch_segments(
        classify_flows(batched, np.array(owners, dtype=np.int64), ids, sizes, config)
    )
    return expected, walked, got, batched


def assert_same_counters(walked, batched):
    for scalar, vectorized in zip(walked, batched):
        for level in range(len(scalar.tower.levels)):
            assert np.array_equal(
                scalar.tower.counter_array(level), vectorized.tower.counter_array(level)
            )


class TestClassifierBatch:
    @pytest.mark.parametrize("num_switches", [1, 4])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_segments_identical(self, seed, num_switches):
        resources = SwitchResources.scaled(0.05)
        config = MonitoringConfig(
            layout=resources.ill_layout,
            threshold_high=40,
            threshold_low=8,
            sample_rate=0.5,
        )
        ids, sizes = random_flows(seed, count=600, key_bits=32, max_size=120)
        expected, walked, got, batched = walk_and_classify(
            resources, seed, config, ids, sizes, num_switches, owner_seed=seed
        )
        assert got == expected
        assert_same_counters(walked, batched)


class TestClassifierSaturation:
    @pytest.mark.parametrize("num_switches", [1, 4])
    @pytest.mark.parametrize(
        "levels",
        [((4, 32), (6, 16)), ((4, 32),), ((4, 64), (6, 32), (8, 16))],
    )
    def test_saturation_heavy_batches_match_scalar(self, levels, num_switches):
        # Tiny, narrow counters saturate mid-flow all the time, on one, two
        # and three levels.  With one level, T_h = 20 lies above its
        # saturation 15: a saturated flow's estimate is stuck below T_h.
        resources = SwitchResources(
            upstream_buckets=48,
            downstream_buckets=36,
            classifier_levels=levels,
            min_hl_buckets=6,
            ill_layout=EncoderLayout(m_hh=12, m_hl=30, m_ll=6),
        )
        config = MonitoringConfig(
            layout=resources.ill_layout,
            threshold_high=20,
            threshold_low=5,
            sample_rate=0.5,
        )
        rng = random.Random(42)
        ids = [rng.randrange(1, 1 << 32) for _ in range(400)]
        sizes = [rng.randrange(1, 60) for _ in range(400)]
        expected, walked, got, batched = walk_and_classify(
            resources, 9, config, ids, sizes, num_switches, owner_seed=42
        )
        assert got == expected
        assert_same_counters(walked, batched)


class TestHypergeometricLosses:
    def test_total_delivered_preserved(self):
        rng = random.Random(0)
        for trial in range(300):
            num_segments = rng.randrange(1, 6)
            segments = [
                (FlowHierarchy.HL_CANDIDATE, rng.randrange(0, 200))
                for _ in range(num_segments)
            ]
            total = sum(c for _, c in segments)
            lost = rng.randrange(0, total + 3)
            uniforms = [rng.random() for _ in segments]
            delivered = distribute_losses_uniform(segments, lost, uniforms)
            assert len(delivered) == len(segments)
            assert sum(c for _, c in delivered) == total - min(lost, total)
            assert all(0 <= c_d <= c for (_, c_d), (_, c) in zip(delivered, segments))

    def test_hypergeometric_support(self):
        rng = random.Random(1)
        for _ in range(2000):
            population = rng.randrange(1, 500)
            successes = rng.randrange(0, population + 1)
            draws = rng.randrange(0, population + 1)
            k = _hypergeometric_u(rng.random(), population, successes, draws)
            assert max(0, draws - (population - successes)) <= k <= min(draws, successes)

    def test_hypergeometric_mean(self):
        rng = random.Random(2)
        population, successes, draws = 100, 30, 40
        samples = [
            _hypergeometric_u(rng.random(), population, successes, draws)
            for _ in range(4000)
        ]
        mean = sum(samples) / len(samples)
        expected = draws * successes / population
        assert abs(mean - expected) < 0.25
