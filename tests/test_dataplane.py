"""Tests for the ChameleMon data plane: config, classifier, encoders, edge switch."""

import pytest

from repro.dataplane.classifier import FlowClassifier
from repro.dataplane.config import EncoderLayout, MonitoringConfig, SwitchResources
from repro.dataplane.encoder import DownstreamFlowEncoder, UpstreamFlowEncoder, accumulate_parts
from repro.dataplane.hierarchy import FlowHierarchy
from repro.dataplane.switch import EdgeSwitch
from repro.sketches.fermat import MERSENNE_PRIME_61

from dataplane_reference import batch_segments, classify_packet, is_sampled


def small_resources():
    return SwitchResources.scaled(0.05)


class TestConfig:
    def test_layout_invariants(self):
        resources = SwitchResources()
        layout = EncoderLayout(m_hh=1024, m_hl=2560, m_ll=512)
        layout.validate(resources)
        assert layout.m_uf == 4096

    def test_layout_must_fill_upstream(self):
        resources = SwitchResources()
        with pytest.raises(ValueError):
            EncoderLayout(m_hh=100, m_hl=100, m_ll=100).validate(resources)

    def test_layout_must_fit_downstream(self):
        resources = SwitchResources()
        with pytest.raises(ValueError):
            EncoderLayout(m_hh=0, m_hl=4000, m_ll=96).validate(resources)

    def test_layout_requires_hl(self):
        resources = SwitchResources()
        with pytest.raises(ValueError):
            EncoderLayout(m_hh=4096, m_hl=0, m_ll=0).validate(resources)

    def test_monitoring_config_validation(self):
        layout = SwitchResources().healthy_initial_layout()
        with pytest.raises(ValueError):
            MonitoringConfig(layout=layout, threshold_high=0)
        with pytest.raises(ValueError):
            MonitoringConfig(layout=layout, threshold_high=1, threshold_low=2)
        with pytest.raises(ValueError):
            MonitoringConfig(layout=layout, sample_rate=1.5)

    def test_initial_config_is_healthy(self):
        resources = SwitchResources()
        config = resources.initial_config()
        assert config.layout.m_ll == 0
        assert config.threshold_low == 1
        assert config.sample_rate == 1.0
        assert config.layout.m_hl == resources.min_hl_buckets

    def test_ill_layout_valid(self):
        resources = SwitchResources()
        resources.validate_layout(resources.ill_layout)

    def test_scaled_resources_valid(self):
        for scale in (0.05, 0.1, 0.5, 1.0):
            resources = SwitchResources.scaled(scale)
            resources.validate_layout(resources.ill_layout)
            resources.validate_layout(resources.healthy_initial_layout())

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            SwitchResources.scaled(0)

    def test_describe_contains_thresholds(self):
        config = SwitchResources().initial_config()
        assert "T_h=1" in config.describe()


class TestClassifier:
    def test_hierarchy_by_thresholds(self):
        resources = small_resources()
        classifier = FlowClassifier(resources, seed=1)
        config = MonitoringConfig(
            layout=resources.healthy_initial_layout(),
            threshold_high=100,
            threshold_low=10,
            sample_rate=1.0,
        )
        flow = 12345
        segments = batch_segments(classifier.classify_flows_arrays([flow], [150], config))[0]
        hierarchy_counts = {h: c for h, c in segments}
        assert hierarchy_counts[FlowHierarchy.SAMPLED_LL] == 9
        assert hierarchy_counts[FlowHierarchy.HL_CANDIDATE] == 90
        assert hierarchy_counts[FlowHierarchy.HH_CANDIDATE] == 51
        assert sum(hierarchy_counts.values()) == 150

    def test_segments_match_per_packet_classification(self):
        resources = small_resources()
        config = MonitoringConfig(
            layout=resources.healthy_initial_layout(),
            threshold_high=20,
            threshold_low=5,
            sample_rate=1.0,
        )
        chunked = FlowClassifier(resources, seed=2)
        per_packet = FlowClassifier(resources, seed=2)
        flow = 777
        segments = batch_segments(chunked.classify_flows_arrays([flow], [40], config))[0]
        expanded = [h for h, count in segments for _ in range(count)]
        singles = [classify_packet(per_packet, flow, config) for _ in range(40)]
        assert expanded == singles

    def test_thresholds_of_one_make_everything_hh(self):
        resources = small_resources()
        classifier = FlowClassifier(resources, seed=3)
        config = resources.initial_config()
        segments = batch_segments(classifier.classify_flows_arrays([1], [10], config))
        assert segments == [[(FlowHierarchy.HH_CANDIDATE, 10)]]

    def test_sampling_is_deterministic_per_flow(self):
        resources = small_resources()
        classifier = FlowClassifier(resources, seed=4)
        config = MonitoringConfig(
            layout=resources.healthy_initial_layout(),
            threshold_high=1000,
            threshold_low=1000,
            sample_rate=0.5,
        )
        batch = classifier.classify_flows_arrays([42, 42], [1, 1], config)
        assert batch.sampled.tolist() == [is_sampled(classifier, 42, config)] * 2

    def test_sampling_rate_roughly_respected(self):
        resources = small_resources()
        classifier = FlowClassifier(resources, seed=5)
        config = MonitoringConfig(
            layout=resources.healthy_initial_layout(),
            threshold_high=1000,
            threshold_low=1000,
            sample_rate=0.25,
        )
        flows = list(range(4000))
        sampled = classifier.classify_flows_arrays(flows, [1] * 4000, config).sampled
        assert sampled.tolist() == [is_sampled(classifier, flow, config) for flow in flows]
        assert 0.18 < sampled.sum() / 4000 < 0.32

    def test_sample_rate_zero_and_one(self):
        resources = small_resources()
        classifier = FlowClassifier(resources, seed=6)
        low = MonitoringConfig(layout=resources.healthy_initial_layout(),
                               threshold_high=10, threshold_low=10, sample_rate=0.0)
        high = MonitoringConfig(layout=resources.healthy_initial_layout(),
                                threshold_high=10, threshold_low=10, sample_rate=1.0)
        flows, sizes = list(range(100)), [1] * 100
        assert not classifier.classify_flows_arrays(flows, sizes, low).sampled.any()
        assert classifier.classify_flows_arrays(flows, sizes, high).sampled.all()

    def test_empty_flow(self):
        resources = small_resources()
        classifier = FlowClassifier(resources, seed=7)
        batch = classifier.classify_flows_arrays([1], [0], resources.initial_config())
        assert batch_segments(batch) == [[]]
        assert batch.flows_seen == 0


class TestEncoders:
    def test_upstream_routing_by_hierarchy(self):
        resources = small_resources()
        layout = resources.ill_layout
        encoder = UpstreamFlowEncoder(layout, resources, base_seed=1, prime=MERSENNE_PRIME_61)
        encoder.encode(1, 5, FlowHierarchy.HH_CANDIDATE)
        encoder.encode(2, 3, FlowHierarchy.HL_CANDIDATE)
        encoder.encode(3, 2, FlowHierarchy.SAMPLED_LL)
        encoder.encode(4, 9, FlowHierarchy.NON_SAMPLED_LL)
        assert encoder.parts.hh.decode_nondestructive().flows == {1: 5}
        assert encoder.parts.hl.decode_nondestructive().flows == {2: 3}
        assert encoder.parts.ll.decode_nondestructive().flows == {3: 2}

    def test_downstream_merges_hh_into_hl(self):
        resources = small_resources()
        layout = resources.ill_layout
        encoder = DownstreamFlowEncoder(layout, resources, base_seed=1, prime=MERSENNE_PRIME_61)
        encoder.encode(1, 5, FlowHierarchy.HH_CANDIDATE)
        encoder.encode(2, 3, FlowHierarchy.HL_CANDIDATE)
        assert encoder.parts.hh is None
        assert encoder.parts.hl.decode_nondestructive().flows == {1: 5, 2: 3}

    def test_upstream_downstream_hl_are_compatible(self):
        resources = small_resources()
        layout = resources.ill_layout
        up = UpstreamFlowEncoder(layout, resources, base_seed=3, prime=MERSENNE_PRIME_61)
        down = DownstreamFlowEncoder(layout, resources, base_seed=3, prime=MERSENNE_PRIME_61)
        assert up.parts.hl.compatible_with(down.parts.hl)
        assert up.parts.ll.compatible_with(down.parts.ll)

    def test_zero_size_parts_are_none(self):
        resources = small_resources()
        layout = resources.healthy_initial_layout()  # no LL encoder
        encoder = UpstreamFlowEncoder(layout, resources, base_seed=1)
        assert encoder.parts.ll is None
        # Encoding into a missing part must not raise.
        encoder.encode(9, 2, FlowHierarchy.SAMPLED_LL)

    def test_accumulate_parts(self):
        resources = small_resources()
        layout = resources.ill_layout
        a = UpstreamFlowEncoder(layout, resources, base_seed=5, prime=MERSENNE_PRIME_61)
        b = UpstreamFlowEncoder(layout, resources, base_seed=5, prime=MERSENNE_PRIME_61)
        a.encode(1, 2, FlowHierarchy.HL_CANDIDATE)
        b.encode(2, 4, FlowHierarchy.HL_CANDIDATE)
        total = accumulate_parts([a.parts.hl, b.parts.hl, None])
        assert total.decode_nondestructive().flows == {1: 2, 2: 4}
        assert accumulate_parts([None, None]) is None


class TestEdgeSwitch:
    def test_upstream_segments_total(self):
        switch = EdgeSwitch("e0", resources=small_resources(), base_seed=1)
        batch = switch.process_flows_upstream_arrays([123], [40])
        assert sum(count for _, count in batch_segments(batch)[0]) == 40
        assert switch.stats.packets_upstream == 40

    def test_downstream_encoding(self):
        switch = EdgeSwitch("e0", resources=small_resources(), base_seed=2)
        batch = switch.process_flows_upstream_arrays([55], [10])
        switch.process_flows_downstream_arrays(batch.grouped_arrays(), batch.packets)
        assert switch.stats.packets_downstream == 10

    def test_config_staging_applies_next_epoch(self):
        resources = small_resources()
        switch = EdgeSwitch("e0", resources=resources, base_seed=3)
        new_config = MonitoringConfig(
            layout=resources.ill_layout, threshold_high=50, threshold_low=5, sample_rate=0.5
        )
        switch.apply_config(new_config)
        assert switch.config != new_config  # still the old epoch
        switch.rotate_epoch()
        assert switch.config == new_config

    def test_rotate_returns_finished_group(self):
        switch = EdgeSwitch("e0", resources=small_resources(), base_seed=4)
        switch.process_flows_upstream_arrays([9], [5])
        finished = switch.rotate_epoch()
        assert finished.upstream.parts.hh.decode_nondestructive().flows == {9: 5}
        # the new group is empty
        assert switch.stats.packets_upstream == 0

    def test_apply_config_validates_layout(self):
        resources = small_resources()
        switch = EdgeSwitch("e0", resources=resources)
        bad = MonitoringConfig(
            layout=EncoderLayout(m_hh=1, m_hl=1, m_ll=1), threshold_high=1, threshold_low=1
        )
        with pytest.raises(ValueError):
            switch.apply_config(bad)

    def test_memory_accounting_positive(self):
        switch = EdgeSwitch("e0", resources=small_resources())
        assert switch.memory_bytes() > 0

    def test_query_flow_size(self):
        switch = EdgeSwitch("e0", resources=small_resources(), base_seed=5)
        switch.process_flows_upstream_arrays([77], [12])
        assert switch.query_flow_size(77) >= 12
