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
from repro.dataplane.classifier import FlowClassifier
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
from repro.sketches.hashing import HashFamily, KeyArray, PairwiseHash
from repro.sketches.tower import TowerSketch

from dataplane_reference import batch_segments, classify_flow_packets


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

    def test_fermat_batch_respects_prime_bound(self):
        sketch = FermatSketch(64, prime=MERSENNE_PRIME_61, fingerprint_bits=0)
        with pytest.raises(ValueError):
            sketch.insert_batch([MERSENNE_PRIME_61 + 1], [1])

    @pytest.mark.parametrize("seed", [7, 8])
    def test_tower_fermat_insert(self, seed):
        ids, sizes = random_flows(seed, count=500, key_bits=32, max_size=600)
        scalar = TowerFermat([(8, 1024), (16, 512)], fermat_buckets=600,
                             threshold=50, seed=seed)
        batched = TowerFermat([(8, 1024), (16, 512)], fermat_buckets=600,
                              threshold=50, seed=seed)
        for flow_id, size in zip(ids, sizes):
            scalar.insert(flow_id, size)
        batched.insert_batch(ids, sizes)
        for level in range(2):
            assert np.array_equal(
                scalar.tower.counter_array(level), batched.tower.counter_array(level)
            )
        assert scalar.flowset() == batched.flowset()
        for flow_id in ids[:50]:
            assert scalar.query(flow_id) == batched.query(flow_id)


class TestClassifierBatch:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_segments_identical(self, seed):
        resources = SwitchResources.scaled(0.05)
        config = MonitoringConfig(
            layout=resources.ill_layout,
            threshold_high=40,
            threshold_low=8,
            sample_rate=0.5,
        )
        ids, sizes = random_flows(seed, count=600, key_bits=32, max_size=120)
        scalar = FlowClassifier(resources, seed=seed)
        batched = FlowClassifier(resources, seed=seed)
        expected = [
            classify_flow_packets(scalar, flow_id, size, config)
            for flow_id, size in zip(ids, sizes)
        ]
        got = batch_segments(batched.classify_flows_arrays(ids, sizes, config))
        assert got == expected
        for level in range(len(resources.classifier_levels)):
            assert np.array_equal(
                scalar.tower.counter_array(level), batched.tower.counter_array(level)
            )


class TestClassifierSaturationAndGenericPaths:
    @pytest.mark.parametrize(
        "levels",
        [((4, 32), (6, 16)), ((4, 32),), ((4, 64), (6, 32), (8, 16))],
    )
    def test_saturation_heavy_batches_match_scalar(self, levels):
        # Tiny, narrow counters force constant saturation crossings, which
        # exercises the vectorized classifier's sequential fallback (2 levels)
        # and the generic non-2-level walk.
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
        scalar = FlowClassifier(resources, seed=9)
        batched = FlowClassifier(resources, seed=9)
        expected = [
            classify_flow_packets(scalar, flow_id, size, config)
            for flow_id, size in zip(ids, sizes)
        ]
        got = batch_segments(batched.classify_flows_arrays(ids, sizes, config))
        assert got == expected
        for level in range(len(levels)):
            assert np.array_equal(
                scalar.tower.counter_array(level), batched.tower.counter_array(level)
            )


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
