"""Tests for network-wide analysis: loss detection and the accumulation tasks."""

import random

import pytest

from repro.controlplane.analysis import (
    HHDecode,
    compute_delta_encoders,
    decode_hh_encoders,
    packet_loss_detection,
)
from repro.controlplane.tasks import (
    build_views,
    cardinality_estimate,
    flow_size_estimate,
    heavy_change_detection,
    heavy_hitter_detection,
    network_cardinality,
    network_flow_size,
    network_flow_sizes,
    network_heavy_hitters,
)
from repro.dataplane.config import MonitoringConfig, SwitchResources
from repro.dataplane.switch import EdgeSwitch
from repro.network.simulator import build_testbed_simulator
from repro.sketches.fermat import MERSENNE_PRIME_61, MERSENNE_PRIME_127
from repro.traffic.generator import generate_workload


def run_one_epoch(num_flows=400, victim_ratio=0.1, seed=1, scale=0.05,
                  prime=None, use_five_tuple=True):
    resources = SwitchResources.scaled(scale)
    simulator = build_testbed_simulator(resources=resources, seed=seed, prime=prime)
    trace = generate_workload(
        "DCTCP", num_flows=num_flows, victim_ratio=victim_ratio, loss_rate=0.05,
        num_hosts=simulator.topology.num_hosts, seed=seed,
        use_five_tuple=use_five_tuple,
    )
    truth = simulator.run_epoch(trace)
    groups = {node: switch.end_epoch() for node, switch in simulator.switches.items()}
    return groups, truth, trace


class TestPacketLossDetection:
    def test_detects_all_victims_when_healthy(self):
        groups, truth, _ = run_one_epoch(num_flows=300, victim_ratio=0.1, seed=2)
        report = packet_loss_detection(groups)
        assert report.analysis_completed
        assert report.all_losses() == truth.losses

    def test_no_false_positives_without_losses(self):
        groups, truth, _ = run_one_epoch(num_flows=300, victim_ratio=0.0, seed=3)
        report = packet_loss_detection(groups)
        assert report.analysis_completed
        assert report.all_losses() == {}

    def test_loss_counts_exact(self):
        groups, truth, _ = run_one_epoch(num_flows=200, victim_ratio=0.2, seed=4)
        report = packet_loss_detection(groups)
        for flow_id, lost in truth.losses.items():
            assert report.all_losses().get(flow_id) == lost

    def test_hh_decodes_present_for_every_switch(self):
        groups, _, _ = run_one_epoch(seed=5)
        report = packet_loss_detection(groups)
        assert set(report.hh_decodes) == set(groups)

    def test_overload_reports_failure_not_garbage(self):
        # Far more flows than the tiny switches can record: the HH decoding
        # must fail and the analysis must stop rather than report nonsense.
        groups, truth, _ = run_one_epoch(num_flows=4000, victim_ratio=0.2, seed=6, scale=0.02)
        report = packet_loss_detection(groups)
        assert not all(d.success for d in report.hh_decodes.values())
        assert not report.analysis_completed
        assert report.all_losses() == {}


def per_flow_delta_hl(groups, hh_decodes):
    """The delta HL built with one ``insert`` per HH flow (the reference)."""
    upstream = downstream = None
    for group in groups.values():
        up, down = group.upstream.parts.hl, group.downstream.parts.hl
        upstream = up.copy() if upstream is None else upstream.add(up)
        downstream = down.copy() if downstream is None else downstream.add(down)
    for decode in hh_decodes.values():
        for flow_id, size in decode.flowset.items():
            upstream.insert(flow_id, size)
    return upstream.subtract(downstream)


def assert_same_state(got, want):
    for i in range(want.num_arrays):
        assert got._counts[i].dtype == want._counts[i].dtype
        assert got._counts[i].tolist() == want._counts[i].tolist()
        assert got._idsums[i].dtype == want._idsums[i].dtype
        assert [int(v) for v in got._idsums[i]] == [int(v) for v in want._idsums[i]]


class TestDeltaEncoders:
    """``compute_delta_encoders`` re-inserts every HH flowset in one batch."""

    @pytest.mark.parametrize(
        "prime, use_five_tuple",
        [(MERSENNE_PRIME_61, False), (MERSENNE_PRIME_127, True)],
        ids=["uint64-p61", "five-tuple-p127"],
    )
    def test_batch_matches_per_flow_inserts(self, prime, use_five_tuple):
        groups, _, _ = run_one_epoch(
            num_flows=600, seed=9, prime=prime, use_five_tuple=use_five_tuple
        )
        hh_decodes = decode_hh_encoders(groups)
        flow_ids = [f for d in hh_decodes.values() for f in d.flowset]
        assert flow_ids
        assert (max(flow_ids) >= 1 << 64) == use_five_tuple
        delta_hl, _ = compute_delta_encoders(groups, hh_decodes)
        assert_same_state(delta_hl, per_flow_delta_hl(groups, hh_decodes))

    def test_empty_flowsets(self):
        groups, _, _ = run_one_epoch(num_flows=600, seed=10)
        hh_decodes = decode_hh_encoders(groups)
        empty = HHDecode(flowset={}, success=True, num_candidates=0)
        first = next(iter(hh_decodes))
        one_empty = {
            switch: empty if switch == first else decode
            for switch, decode in hh_decodes.items()
        }
        assert any(d.flowset for d in one_empty.values())
        all_empty = {switch: empty for switch in hh_decodes}
        for decodes in (one_empty, all_empty):
            delta_hl, _ = compute_delta_encoders(groups, decodes)
            assert_same_state(delta_hl, per_flow_delta_hl(groups, decodes))


class TestAccumulationTasks:
    def test_flow_size_estimates_reasonable(self):
        groups, _, trace = run_one_epoch(num_flows=300, victim_ratio=0.0, seed=7)
        report = packet_loss_detection(groups)
        views = build_views(groups, {k: d.flowset for k, d in report.hh_decodes.items()})
        errors = []
        for flow in trace.flows[:100]:
            estimate = network_flow_size(views, flow.flow_id)
            errors.append(abs(estimate - flow.size) / flow.size)
        assert sum(errors) / len(errors) < 0.5

    def test_heavy_hitters_found(self):
        groups, _, trace = run_one_epoch(num_flows=300, victim_ratio=0.0, seed=8)
        report = packet_loss_detection(groups)
        views = build_views(groups, {k: d.flowset for k, d in report.hh_decodes.items()})
        threshold = 500
        truth_hh = {f.flow_id for f in trace.flows if f.size > threshold}
        reported = network_heavy_hitters(views, threshold)
        found = sum(1 for flow in truth_hh if flow in reported)
        assert not truth_hh or found / len(truth_hh) > 0.8

    def test_cardinality_close_to_truth(self):
        groups, _, trace = run_one_epoch(num_flows=400, victim_ratio=0.0, seed=9)
        report = packet_loss_detection(groups)
        views = build_views(groups, {k: d.flowset for k, d in report.hh_decodes.items()})
        estimate = network_cardinality(views)
        assert abs(estimate - len(trace)) / len(trace) < 0.15

    def test_per_switch_cardinality_positive(self):
        groups, _, _ = run_one_epoch(seed=10)
        report = packet_loss_detection(groups)
        views = build_views(groups, {k: d.flowset for k, d in report.hh_decodes.items()})
        for view in views.values():
            assert cardinality_estimate(view) >= 0

    def test_heavy_change_detection_between_epochs(self):
        resources = SwitchResources.scaled(0.05)
        simulator = build_testbed_simulator(resources=resources, seed=11)
        hosts = simulator.topology.num_hosts
        first = generate_workload("DCTCP", num_flows=200, num_hosts=hosts, seed=11)
        simulator.run_epoch(first)
        groups1 = {node: s.end_epoch() for node, s in simulator.switches.items()}
        report1 = packet_loss_detection(groups1)
        views1 = build_views(groups1, {k: d.flowset for k, d in report1.hh_decodes.items()})

        for switch in simulator.switches.values():
            switch.begin_epoch()
        second = generate_workload("DCTCP", num_flows=200, num_hosts=hosts, seed=12)
        simulator.run_epoch(second)
        groups2 = {node: s.end_epoch() for node, s in simulator.switches.items()}
        report2 = packet_loss_detection(groups2)
        views2 = build_views(groups2, {k: d.flowset for k, d in report2.hh_decodes.items()})

        changes = {}
        for key in views1:
            changes.update(heavy_change_detection(views1[key], views2[key], threshold=400))
        # The two epochs have disjoint flows, so every large flow is a change.
        big_flows = [f for f in first.flows + second.flows if f.size > 800]
        found = sum(1 for f in big_flows if f.flow_id in changes)
        assert not big_flows or found / len(big_flows) > 0.7

    def test_flow_size_estimate_uses_hh_flowset(self):
        groups, _, _ = run_one_epoch(seed=13)
        report = packet_loss_detection(groups)
        views = build_views(groups, {k: d.flowset for k, d in report.hh_decodes.items()})
        for view in views.values():
            for flow_id, size in list(view.hh_flowset.items())[:5]:
                assert flow_size_estimate(view, flow_id) == view.threshold_high + size

    def test_heavy_hitter_detection_respects_threshold(self):
        groups, _, _ = run_one_epoch(seed=14)
        report = packet_loss_detection(groups)
        views = build_views(groups, {k: d.flowset for k, d in report.hh_decodes.items()})
        for view in views.values():
            for flow_id, estimate in heavy_hitter_detection(view, 100).items():
                assert estimate > 100


class TestNetworkFlowSizes:
    """The batched snapshot query against per-view scalar Tower queries."""

    @staticmethod
    def random_views(rng, resources, flow_ids):
        groups, flowsets = {}, {}
        for index in range(6):
            # The last view comes from another deployment (other hashes).
            seed = 3 if index < 5 else 4
            config = MonitoringConfig(
                layout=resources.healthy_initial_layout(),
                threshold_high=rng.randrange(1, 300),
            )
            group = EdgeSwitch(index, resources=resources, config=config,
                               base_seed=seed).end_epoch()
            for level, counters in zip(group.classifier.tower.levels,
                                       group.classifier.tower._counters):
                # Mostly empty counters, some values, some saturated.
                counters[:] = [
                    rng.choice([0, 0, rng.randrange(level.saturation), level.saturation])
                    for _ in range(counters.size)
                ]
            groups[index] = group
            flowsets[index] = {
                flow_id: rng.randrange(1, 500)
                for flow_id in rng.sample(flow_ids, k=len(flow_ids) // 5)
            }
        return build_views(groups, flowsets)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_per_flow_queries(self, seed):
        rng = random.Random(seed)
        resources = SwitchResources(classifier_levels=((4, 64), (8, 32)))
        flow_ids = [rng.randrange(1 << 40) for _ in range(60)] + [1 << 100, 0]
        flow_ids += flow_ids[:5]  # duplicates answer twice
        views = self.random_views(rng, resources, flow_ids)
        expected = [
            max(flow_size_estimate(view, flow_id) for view in views.values())
            for flow_id in flow_ids
        ]
        assert network_flow_sizes(views, flow_ids) == expected
        assert [network_flow_size(views, flow_id) for flow_id in flow_ids] == expected

    def test_empty_inputs(self):
        rng = random.Random(3)
        views = self.random_views(rng, SwitchResources.scaled(0.05), [1, 2, 3, 4, 5])
        assert network_flow_sizes(views, []) == []
        assert network_flow_sizes({}, [7, 8]) == [0, 0]
        assert network_flow_size({}, 7) == 0
