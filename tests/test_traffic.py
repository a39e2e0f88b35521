"""Tests for the traffic substrate: flow keys, distributions, workload generation."""

import random

import pytest

from repro.traffic.distributions import (
    WORKLOAD_NAMES,
    empirical_cdf,
    get_distribution,
    zipf_sizes_array,
)
from repro.traffic.flow import FlowKey, FlowRecord, Trace
from repro.traffic.generator import (
    generate_caida_like_trace,
    generate_workload,
    ground_truth_heavy_changes,
    ground_truth_heavy_hitters,
    largest_flows,
    restrict_to_flows,
    sample_binomial,
)


class TestFlowKey:
    def test_pack_unpack_roundtrip(self):
        key = FlowKey(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=1234, dst_port=80, protocol=6)
        assert FlowKey.from_packed(key.packed()) == key

    def test_packed_fits_104_bits(self):
        key = FlowKey(src_ip=(1 << 32) - 1, dst_ip=(1 << 32) - 1, src_port=65535, dst_port=65535, protocol=255)
        assert key.packed() < (1 << 104)

    def test_int_conversion(self):
        key = FlowKey(1, 2, 3, 4, 5)
        assert int(key) == key.packed()

    def test_ordering_defined(self):
        assert FlowKey(1, 0) < FlowKey(2, 0)


class TestDistributions:
    def test_all_workloads_available(self):
        assert set(WORKLOAD_NAMES) == {"CACHE", "DCTCP", "HADOOP", "VL2"}

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="unknown workload 'NOPE'"):
            get_distribution("NOPE")

    def test_samples_positive_and_bounded(self):
        rng = random.Random(1)
        for name in WORKLOAD_NAMES:
            distribution = get_distribution(name)
            sizes = distribution.sample_many(2000, rng)
            assert min(sizes) >= 1
            assert max(sizes) <= 100_000

    def test_cache_more_skewed_than_dctcp(self):
        # CACHE is dominated by single-packet flows; DCTCP is not.
        rng = random.Random(2)
        cache = get_distribution("CACHE").sample_many(5000, rng)
        dctcp = get_distribution("DCTCP").sample_many(5000, rng)
        cache_singletons = sum(1 for size in cache if size == 1) / len(cache)
        dctcp_singletons = sum(1 for size in dctcp if size == 1) / len(dctcp)
        assert cache_singletons > dctcp_singletons + 0.2

    def test_case_insensitive_lookup(self):
        assert get_distribution("dctcp").name == "DCTCP"

    def test_mean_estimate_positive(self):
        assert get_distribution("VL2").mean_estimate(samples=2000) > 1.0

    def test_zipf_sizes_total(self):
        sizes = zipf_sizes_array(1000, total_packets=53_000)
        assert len(sizes) == 1000
        assert abs(sum(sizes) - 53_000) / 53_000 < 0.2

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_sizes_array(0)
        with pytest.raises(ValueError):
            zipf_sizes_array(10, alpha=0)

    def test_empirical_cdf(self):
        cdf = empirical_cdf([1, 1, 2, 4])
        assert cdf[-1] == (4, 1.0)
        assert cdf[0][0] == 1
        assert empirical_cdf([]) == []


class TestTrace:
    def test_counters(self):
        trace = Trace(
            flows=[
                FlowRecord(flow_id=1, size=10, is_victim=True, lost_packets=2),
                FlowRecord(flow_id=2, size=5),
            ]
        )
        assert len(trace) == 2
        assert trace.num_packets() == 15
        assert trace.num_victims() == 1
        assert trace.total_losses() == 2
        assert trace.loss_map() == {1: 2}
        assert trace.flow_sizes() == {1: 10, 2: 5}
        assert trace.size_distribution() == {10: 1, 5: 1}


class TestGenerators:
    def test_caida_like_scale(self):
        trace = generate_caida_like_trace(num_flows=1000, seed=1)
        assert len(trace) == 1000
        mean = trace.num_packets() / len(trace)
        assert 30 < mean < 80  # calibrated to ~53 packets/flow

    def test_caida_victims_largest(self):
        trace = generate_caida_like_trace(
            num_flows=500, victim_flows=50, loss_rate=0.05, victim_selection="largest", seed=2
        )
        assert trace.num_victims() == 50
        victims = {f.flow_id for f in trace.flows if f.is_victim}
        top50 = {f.flow_id for f in largest_flows(trace, 50)}
        assert victims == top50

    def test_victims_always_lose_at_least_one_packet(self):
        trace = generate_caida_like_trace(
            num_flows=200, victim_flows=20, loss_rate=0.001, seed=3
        )
        assert all(f.lost_packets >= 1 for f in trace.flows if f.is_victim)

    def test_workload_flow_ids_unique(self):
        trace = generate_workload("DCTCP", num_flows=2000, seed=4)
        ids = [f.flow_id for f in trace.flows]
        assert len(set(ids)) == len(ids)

    def test_workload_host_assignment(self):
        trace = generate_workload("VL2", num_flows=500, num_hosts=8, seed=5)
        assert all(0 <= f.src_host < 8 and 0 <= f.dst_host < 8 for f in trace.flows)
        assert all(f.src_host != f.dst_host for f in trace.flows)

    def test_workload_victim_ratio(self):
        trace = generate_workload("HADOOP", num_flows=1000, victim_ratio=0.1, seed=6)
        assert trace.num_victims() == 100

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            generate_workload("DCTCP", num_flows=0)
        with pytest.raises(ValueError):
            generate_workload("DCTCP", num_flows=10, victim_ratio=2.0)
        with pytest.raises(ValueError):
            generate_caida_like_trace(num_flows=10, victim_flows=20)
        with pytest.raises(ValueError):
            generate_caida_like_trace(num_flows=10, victim_flows=2, victim_selection="weird")

    def test_deterministic_for_seed(self):
        a = generate_workload("DCTCP", num_flows=100, victim_ratio=0.1, seed=7)
        b = generate_workload("DCTCP", num_flows=100, victim_ratio=0.1, seed=7)
        assert a.flow_sizes() == b.flow_sizes()
        assert a.loss_map() == b.loss_map()


class TestSampleBinomial:
    """One exact binomial draw per flow (replacing the per-packet coin flips)."""

    def test_edge_cases(self):
        rng = random.Random(0)
        assert sample_binomial(rng, 0, 0.5) == 0
        assert sample_binomial(rng, 10, 0.0) == 0
        assert sample_binomial(rng, 10, 1.0) == 10
        assert sample_binomial(rng, -3, 0.5) == 0

    def test_support_bounds(self):
        rng = random.Random(1)
        for n, p in ((1, 0.5), (7, 0.01), (40, 0.99)):
            draws = [sample_binomial(rng, n, p) for _ in range(300)]
            assert all(0 <= draw <= n for draw in draws)

    def test_moments_match_binomial(self):
        rng = random.Random(2)
        for n, p in ((50, 0.1), (1000, 0.05), (5000, 0.5)):
            draws = [sample_binomial(rng, n, p) for _ in range(2000)]
            mean = sum(draws) / len(draws)
            variance = sum((draw - mean) ** 2 for draw in draws) / len(draws)
            assert mean == pytest.approx(n * p, rel=0.05)
            assert variance == pytest.approx(n * p * (1 - p), rel=0.15)

    def test_large_population_does_not_underflow(self):
        # pmf(0) underflows to 0.0 for these (n, p); the mean-centred scan
        # origin must keep the draw in the bulk of the distribution.
        rng = random.Random(3)
        draws = [sample_binomial(rng, 200_000, 0.5) for _ in range(50)]
        assert all(99_000 < draw < 101_000 for draw in draws)

    def test_single_uniform_variate_consumed(self):
        rng = random.Random(4)
        sample_binomial(rng, 1000, 0.3)
        follower = rng.random()
        rng = random.Random(4)
        rng.random()
        assert follower == rng.random()

    def test_victim_losses_scale_with_flow_sizes(self):
        trace = generate_caida_like_trace(
            num_flows=300, victim_flows=300, loss_rate=0.2, seed=8
        )
        total = trace.num_packets()
        assert trace.total_losses() == pytest.approx(0.2 * total, rel=0.1)

    def test_ground_truth_helpers(self):
        first = Trace(flows=[FlowRecord(1, 100), FlowRecord(2, 5)])
        second = Trace(flows=[FlowRecord(1, 10), FlowRecord(3, 50)])
        assert ground_truth_heavy_hitters(first, 50) == {1: 100}
        changes = ground_truth_heavy_changes(first, second, 40)
        assert changes == {1: 90, 3: 50}

    def test_restrict_to_flows(self):
        trace = generate_caida_like_trace(num_flows=100, seed=8)
        top = largest_flows(trace, 10)
        restricted = restrict_to_flows(trace, top)
        assert len(restricted) == 10
