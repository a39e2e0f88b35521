"""Tests for the Bloom filter, linear counting, and MRAC substrates."""

import random
from collections import Counter
from typing import Dict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketches.bloom import BloomFilter
from repro.sketches.linear_counting import (
    estimate_cardinality,
    linear_counting_estimate,
)
from repro.sketches.mrac import (
    counter_value_histogram,
    distribution_entropy,
    estimate_flow_size_distribution,
    merge_distributions,
)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(1000, 0.01, seed=1)
        keys = list(range(1000))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.for_capacity(1000, 0.01, seed=2)
        for key in range(1000):
            bloom.add(key)
        false_positives = sum(1 for key in range(10_000, 20_000) if key in bloom)
        assert false_positives < 500  # well below 5 %

    def test_add_if_new(self):
        bloom = BloomFilter.for_capacity(100, seed=3)
        assert bloom.add_if_new(42) is True
        assert bloom.add_if_new(42) is False

    def test_fill_ratio_and_clear(self):
        bloom = BloomFilter(1024, 4, seed=4)
        assert bloom.fill_ratio() == 0.0
        for key in range(100):
            bloom.add(key)
        assert bloom.fill_ratio() > 0.0
        bloom.clear()
        assert bloom.fill_ratio() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(0)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, 1.5)

    def test_memory_bytes(self):
        assert BloomFilter(800, 3).memory_bytes() == 100


class TestLinearCounting:
    def test_exact_when_sparse(self):
        assert linear_counting_estimate(1000, 1000) == 0.0

    def test_estimate_close_to_truth(self):
        rng = random.Random(5)
        slots = [0] * 4096
        distinct = 1500
        for key in range(distinct):
            slots[rng.randrange(4096)] += 1
        estimate = estimate_cardinality(slots)
        assert abs(estimate - distinct) / distinct < 0.1

    def test_saturated_returns_upper_bound(self):
        estimate = linear_counting_estimate(16, 0)
        assert estimate > 16

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_counting_estimate(0, 0)
        with pytest.raises(ValueError):
            linear_counting_estimate(10, 11)

    @settings(max_examples=50, deadline=None)
    @given(counters=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=300))
    def test_array_and_list_agree(self, counters):
        assert estimate_cardinality(np.array(counters)) == estimate_cardinality(counters)


def reference_flow_size_distribution(
    counters, max_size=None, iterations=20, saturation=None
) -> Dict[int, float]:
    """The dense MRAC EM: a Python loop over observed values, each doing
    O(M) array work over the whole size range 1..M.  The oracle for
    ``estimate_flow_size_distribution``, which runs on the observed values
    only and sums in another order."""
    num_slots = len(counters)
    if num_slots == 0:
        return {}
    observed = Counter(
        value for value in counters
        if value > 0 and (saturation is None or value < saturation)
    )
    if not observed:
        return {}
    largest = max(observed)
    if max_size is None:
        max_size = largest
    max_size = max(1, min(max_size, largest))

    estimate = np.zeros(max_size + 1, dtype=float)
    for value, slots in observed.items():
        if value <= max_size:
            estimate[value] += slots
    if estimate.sum() == 0:
        return {}

    observed_sizes = sorted(v for v in observed if v <= max_size)
    for _ in range(max(0, iterations)):
        lam = float(estimate.sum()) / num_slots
        p_no_collision = np.exp(-lam) if lam < 50 else 0.0
        new_estimate = np.zeros_like(estimate)
        probabilities = estimate / estimate.sum()
        collision_scaled = (1 - p_no_collision) * probabilities
        for value in observed_sizes:
            slots = observed[value]
            weights = np.zeros(max_size + 1, dtype=float)
            weights[value] = p_no_collision * probabilities[value]
            # Split s contributes w(s)/2 at s and at value - s.
            half = 0.5 * (collision_scaled[1:value] * probabilities[value - 1 : 0 : -1])
            weights[1:value] += half + half[::-1]
            weight_sum = weights.sum()
            if weight_sum <= 0:
                new_estimate[value] += slots
                continue
            new_estimate += slots * weights / weight_sum
        if new_estimate.sum() > 0:
            estimate = new_estimate

    return {size: float(estimate[size]) for size in range(1, max_size + 1) if estimate[size] > 1e-9}


#: Tolerance against the reference, fixed from float64 before the comparison:
#: the support-only EM sums the same terms in another order.
REL_TOL = 1e-12
CUTOFF = 1e-9


def assert_matches_reference(got: Dict[int, float], want: Dict[int, float]) -> None:
    assert list(got) == sorted(got)
    for only, side in ((set(got) - set(want), got), (set(want) - set(got), want)):
        for size in only:
            assert abs(side[size] - CUTOFF) <= REL_TOL * CUTOFF, (size, side[size])
    assert [s for s in got if s in want] == [s for s in want if s in got]
    for size in set(got) & set(want):
        assert abs(got[size] - want[size]) <= REL_TOL * abs(want[size]), (
            size, got[size], want[size])


@st.composite
def mrac_inputs(draw):
    """Counter arrays with the shapes the estimator must handle."""
    saturation = draw(st.sampled_from([None, 255, 65535]))
    top = draw(st.sampled_from([40, 600, 70_000]))
    value = st.one_of(st.integers(0, 30), st.integers(0, top))
    shape = draw(st.sampled_from(["mixed", "empty", "zeros", "saturated", "one_value"]))
    if shape == "empty":
        counters = []
    elif shape == "zeros":
        counters = [0] * draw(st.integers(1, 50))
    elif shape == "saturated":
        floor = saturation if saturation is not None else 1
        counters = draw(st.lists(st.integers(floor, floor + 500), min_size=1, max_size=50))
    elif shape == "one_value":
        repeated = draw(st.integers(1, top))
        counters = [repeated] * draw(st.integers(1, 20)) + [0] * draw(st.integers(0, 20))
    else:
        counters = draw(st.lists(value, max_size=250))
    max_size = draw(st.one_of(st.none(), st.integers(1, top)))
    iterations = draw(st.integers(0, 6))
    return counters, max_size, iterations, saturation


class TestMRAC:
    def test_histogram_skips_zero_and_saturated(self):
        histogram = counter_value_histogram([0, 1, 1, 2, 255], max_value=255)
        assert histogram == {1: 2, 2: 1}

    def test_distribution_recovers_sparse_counters(self):
        # With few collisions the distribution should be close to the truth.
        rng = random.Random(6)
        counters = [0] * 8192
        truth = {1: 600, 2: 250, 5: 100, 20: 30}
        for size, flows in truth.items():
            for _ in range(flows):
                counters[rng.randrange(8192)] += size
        estimate = estimate_flow_size_distribution(counters, iterations=5)
        for size, flows in truth.items():
            assert estimate.get(size, 0) == pytest.approx(flows, rel=0.35)

    def test_empty_input(self):
        assert estimate_flow_size_distribution([]) == {}
        assert estimate_flow_size_distribution([0, 0, 0]) == {}

    def test_negative_iterations_rejected(self):
        for counters in ([3, 1, 2, 1, 0, 7], []):
            with pytest.raises(ValueError, match="iterations must be non-negative"):
                estimate_flow_size_distribution(counters, iterations=-1)
        # Zero iterations is the initial guess: one flow per counter value.
        assert estimate_flow_size_distribution([3, 1, 2, 1, 0, 7], iterations=0) == {
            1: 2.0, 2: 1.0, 3: 1.0, 7: 1.0,
        }

    @settings(max_examples=150, deadline=None)
    @given(case=mrac_inputs())
    @example(case=([5, 0, 5, 300, 1000, 255, 300], 299, 3, 255))
    @example(case=([3, 1, 2, 1, 0, 7], 2, 6, None))
    @example(case=([65535, 70000], None, 4, 65535))
    @example(case=([9, 9, 9], None, 0, 65535))
    @example(case=([1, 1, 2, 0, 3], 0, 2, None))
    def test_matches_dense_reference(self, case):
        counters, max_size, iterations, saturation = case
        got = estimate_flow_size_distribution(
            counters, max_size=max_size, iterations=iterations, saturation=saturation
        )
        want = reference_flow_size_distribution(
            counters, max_size=max_size, iterations=iterations, saturation=saturation
        )
        assert_matches_reference(got, want)
        # The EM never leaves the observed counter values.
        assert set(got) <= set(counters)
        # An array input gives the same estimate as a list.
        assert estimate_flow_size_distribution(
            np.array(counters, dtype=np.int64),
            max_size=max_size, iterations=iterations, saturation=saturation,
        ) == got

    def test_matches_dense_reference_at_benchmark_shape(self):
        # One 16-bit Tower level of 819 counters holding ~1000 heavy-tailed
        # flows, the shape of the benchmark's overloaded switches.
        rng = np.random.default_rng(1)
        sizes = np.minimum((rng.pareto(1.0, 1000) * 30 + 1).astype(np.int64), 20_000)
        counters = np.bincount(
            rng.integers(0, 819, sizes.size), weights=sizes, minlength=819
        ).astype(np.int64)
        observed = np.unique(counters[counters > 0])
        assert 250 <= observed.size <= 350 and 15_000 <= observed[-1] <= 25_000
        got = estimate_flow_size_distribution(counters, iterations=2, saturation=65535)
        want = reference_flow_size_distribution(
            counters.tolist(), iterations=2, saturation=65535
        )
        assert_matches_reference(got, want)
        assert set(got) <= set(observed.tolist())

    def test_merge_distributions(self):
        merged = merge_distributions([{1: 2.0, 3: 1.0}, {1: 1.0, 5: 4.0}])
        assert merged == {1: 3.0, 3: 1.0, 5: 4.0}

    def test_entropy_of_uniform_sizes(self):
        # All flows the same size: each flow contributes -size/N*log2(size/N)...
        # entropy of {1: N} equals log2(N).
        entropy = distribution_entropy({1: 16.0})
        assert entropy == pytest.approx(4.0)

    def test_entropy_empty(self):
        assert distribution_entropy({}) == 0.0
