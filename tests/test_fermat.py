"""Tests for FermatSketch: encode/decode, add/subtract, sizing, fingerprints."""

import random
from collections import Counter

import pytest

from repro.sketches.base import DecodeResult
from repro.sketches.fermat import (
    MERSENNE_PRIME_61,
    MERSENNE_PRIME_127,
    FermatSketch,
    minimum_memory_for_flows,
    packet_loss_sketch_pair,
    peeling_threshold,
)


def make_flows(count, seed=0, max_size=50):
    rng = random.Random(seed)
    flows = {}
    while len(flows) < count:
        flows[rng.randrange(1, 1 << 32)] = rng.randrange(1, max_size)
    return flows


class TestEncodeDecode:
    def test_single_flow(self):
        sketch = FermatSketch(16)
        sketch.insert(42, 7)
        result = sketch.decode()
        assert result.success
        assert result.flows == {42: 7}

    def test_many_flows_roundtrip(self):
        flows = make_flows(200, seed=1)
        sketch = FermatSketch.for_flow_count(200, load_factor=0.6, seed=1)
        for flow_id, size in flows.items():
            sketch.insert(flow_id, size)
        result = sketch.decode()
        assert result.success
        assert result.flows == flows

    def test_decode_empties_sketch(self):
        sketch = FermatSketch(32)
        sketch.insert(5, 3)
        sketch.insert(6, 4)
        result = sketch.decode()
        assert result.success
        assert sketch.is_empty()

    def test_nondestructive_decode(self):
        sketch = FermatSketch(32)
        sketch.insert(5, 3)
        result = sketch.decode_nondestructive()
        assert result.success
        assert not sketch.is_empty()
        # decoding again yields the same answer
        assert sketch.decode_nondestructive().flows == {5: 3}

    def test_empty_decode(self):
        result = FermatSketch(8).decode()
        assert result.success
        assert result.flows == {}

    def test_insert_zero_count_is_noop(self):
        sketch = FermatSketch(8)
        sketch.insert(1, 0)
        assert sketch.is_empty()

    def test_remove_cancels_insert(self):
        sketch = FermatSketch(8)
        sketch.insert(99, 5)
        sketch.remove(99, 5)
        assert sketch.is_empty()

    def test_overloaded_sketch_fails(self):
        flows = make_flows(500, seed=2)
        sketch = FermatSketch(64)  # 192 buckets for 500 flows: must fail
        for flow_id, size in flows.items():
            sketch.insert(flow_id, size)
        result = sketch.decode()
        assert not result.success
        assert result.remaining > 0

    def test_flow_id_must_fit_prime(self):
        sketch = FermatSketch(8, prime=101)
        with pytest.raises(ValueError):
            sketch.insert(500)

    def test_negative_flow_id_rejected(self):
        sketch = FermatSketch(8)
        with pytest.raises(ValueError):
            sketch.insert(-1)

    def test_large_flow_ids_with_large_prime(self):
        sketch = FermatSketch(32, prime=MERSENNE_PRIME_127)
        five_tuple_id = (1 << 100) + 12345
        sketch.insert(five_tuple_id, 9)
        assert sketch.decode().flows == {five_tuple_id: 9}

    def test_decode_result_repr(self):
        result = DecodeResult({1: 2}, True)
        assert "success=True" in repr(result)


class TestAdditionSubtraction:
    def test_subtract_gives_losses(self):
        flows = make_flows(100, seed=3)
        upstream, downstream = packet_loss_sketch_pair(100, seed=3)
        losses = {}
        rng = random.Random(3)
        for flow_id, size in flows.items():
            upstream.insert(flow_id, size)
            lost = rng.randrange(0, min(3, size + 1))
            if lost:
                losses[flow_id] = lost
            downstream.insert(flow_id, size - lost)
        delta = upstream - downstream
        result = delta.decode()
        assert result.success
        assert result.positive_flows() == losses

    def test_add_then_decode(self):
        a = FermatSketch(64, seed=5)
        b = a.empty_like()
        a.insert(1, 2)
        b.insert(2, 3)
        combined = a + b
        assert combined.decode().flows == {1: 2, 2: 3}

    def test_incompatible_sketches_rejected(self):
        a = FermatSketch(16, seed=1)
        b = FermatSketch(16, seed=2)
        with pytest.raises(ValueError):
            a.add(b)
        c = FermatSketch(32, seed=1)
        with pytest.raises(ValueError):
            a.subtract(c)

    def test_subtract_identical_is_empty(self):
        a = FermatSketch(16, seed=1)
        a.insert(7, 3)
        b = a.copy()
        assert (a - b).is_empty()

    def test_copy_is_independent(self):
        a = FermatSketch(16)
        a.insert(1)
        b = a.copy()
        b.insert(2)
        assert a.decode_nondestructive().flows == {1: 1}

    def test_empty_like_shares_hashes(self):
        a = FermatSketch(16, seed=9)
        b = a.empty_like()
        assert a.compatible_with(b)


class TestFingerprints:
    def test_fingerprint_roundtrip(self):
        sketch = FermatSketch(64, fingerprint_bits=8, seed=4)
        flows = make_flows(50, seed=4)
        for flow_id, size in flows.items():
            sketch.insert(flow_id, size)
        result = sketch.decode()
        assert result.success
        assert result.flows == flows

    def test_fingerprint_increases_memory(self):
        plain = FermatSketch(64)
        with_fp = FermatSketch(64, fingerprint_bits=8)
        assert with_fp.memory_bytes() > plain.memory_bytes()

    def test_fingerprint_pair_subtract(self):
        up = FermatSketch(64, fingerprint_bits=8, seed=6)
        down = up.empty_like()
        up.insert(10, 5)
        down.insert(10, 3)
        assert (up - down).decode().flows == {10: 2}


class TestSizingHelpers:
    def test_peeling_threshold_values(self):
        # Theorem 3.1: c_3 = 1.23, c_4 = 1.30, c_5 = 1.43 (to two decimals).
        assert peeling_threshold(3) == pytest.approx(1.22, abs=0.02)
        assert peeling_threshold(4) == pytest.approx(1.29, abs=0.02)
        assert peeling_threshold(5) == pytest.approx(1.42, abs=0.03)
        assert peeling_threshold(2) == 2.0

    def test_peeling_threshold_rejects_d1(self):
        with pytest.raises(ValueError):
            peeling_threshold(1)

    def test_for_flow_count_load(self):
        sketch = FermatSketch.for_flow_count(700, load_factor=0.7)
        assert sketch.total_buckets() >= 1000

    def test_for_flow_count_validation(self):
        with pytest.raises(ValueError):
            FermatSketch.for_flow_count(0)
        with pytest.raises(ValueError):
            FermatSketch.for_flow_count(10, load_factor=1.5)

    def test_minimum_memory_scales_linearly(self):
        small = minimum_memory_for_flows(1000)
        large = minimum_memory_for_flows(10000)
        assert 8 < large / small < 12

    def test_memory_bytes(self):
        sketch = FermatSketch(100, num_arrays=3)
        assert sketch.memory_bytes() == 100 * 3 * 8

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FermatSketch(0)
        with pytest.raises(ValueError):
            FermatSketch(8, num_arrays=1)
        with pytest.raises(ValueError):
            FermatSketch(8, prime=1)
        with pytest.raises(ValueError):
            FermatSketch(8, fingerprint_bits=-1)

    def test_load_factor(self):
        sketch = FermatSketch(100, num_arrays=3)
        assert sketch.load_factor(150) == pytest.approx(0.5)


class TestDecodeRobustness:
    def test_high_load_below_threshold_decodes(self):
        # 1000 flows in 1.3x buckets (load ~0.77 < 0.813) should usually decode.
        flows = make_flows(1000, seed=7)
        sketch = FermatSketch(434, num_arrays=3, seed=7)
        for flow_id, size in flows.items():
            sketch.insert(flow_id, size)
        assert sketch.decode().success

    def test_decoded_sizes_exact(self):
        flows = make_flows(300, seed=8, max_size=10_000)
        sketch = FermatSketch.for_flow_count(300, load_factor=0.5, seed=8)
        for flow_id, size in flows.items():
            sketch.insert(flow_id, size)
        assert sketch.decode().flows == flows

    def test_encode_trace(self):
        # A packet trace goes in as one insert_batch of its per-ID counts.
        counts = Counter([1, 1, 2, 3, 3, 3])
        sketch = FermatSketch(32)
        sketch.insert_batch(list(counts), list(counts.values()))
        assert sketch.decode().flows == {1: 2, 2: 1, 3: 3}
