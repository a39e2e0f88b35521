"""Tests for the fat-tree topology, ECMP routing, and the packet-level simulator."""

import random

import numpy as np
import pytest

from repro.dataplane.config import SwitchResources
from repro.dataplane.hierarchy import FlowHierarchy
from repro.dataplane.switch import EdgeSwitch
from repro.network.routing import EcmpRouter
from repro.network.simulator import NetworkSimulator, build_testbed_simulator, distribute_losses
from repro.network.topology import FatTreeSpec, FatTreeTopology
from repro.traffic.flow import FlowRecord, Trace


class TestTopology:
    def test_testbed_geometry(self):
        topo = FatTreeTopology.testbed()
        # 2 pods of a k=4 fat-tree: 4 core + 4 agg + 4 edge switches, 8 hosts.
        assert len(topo.core_switches) == 4
        assert len(topo.agg_switches) == 4
        assert len(topo.edge_switches) == 4
        assert topo.num_hosts == 8
        assert topo.num_switches == 12

    def test_full_fat_tree_k4(self):
        topo = FatTreeTopology(FatTreeSpec(k=4))
        assert len(topo.edge_switches) == 8
        assert topo.num_hosts == 16

    def test_host_edge_mapping(self):
        topo = FatTreeTopology.testbed()
        for index in range(topo.num_hosts):
            edge = topo.edge_switch_of_host(index)
            assert edge in topo.edge_switches
            assert topo.host(index) in topo.hosts_of_edge(edge)

    def test_paths_exist_between_all_hosts(self):
        topo = FatTreeTopology.testbed()
        for src in range(topo.num_hosts):
            for dst in range(topo.num_hosts):
                paths = topo.candidate_paths(src, dst)
                assert len(paths) >= 1

    def test_inter_pod_paths_are_multiple(self):
        topo = FatTreeTopology.testbed()
        # Hosts 0 and 7 are in different pods: several equal-cost paths exist.
        assert len(topo.candidate_paths(0, 7)) >= 2

    def test_diameter_at_most_six_hops(self):
        topo = FatTreeTopology.testbed()
        assert topo.diameter_hops() <= 6

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            FatTreeTopology(FatTreeSpec(k=3))
        with pytest.raises(ValueError):
            FatTreeTopology(FatTreeSpec(k=4, num_pods=9))


class TestRouting:
    def test_path_endpoints(self):
        topo = FatTreeTopology.testbed()
        router = EcmpRouter(topo)
        path = router.path_for_flow(12345, 0, 5)
        assert path[0] == topo.host(0)
        assert path[-1] == topo.host(5)

    def test_flow_sticks_to_one_path(self):
        topo = FatTreeTopology.testbed()
        router = EcmpRouter(topo)
        assert router.path_for_flow(99, 0, 7) == router.path_for_flow(99, 0, 7)

    def test_flows_spread_over_paths(self):
        topo = FatTreeTopology.testbed()
        router = EcmpRouter(topo, seed=1)
        paths = {tuple(router.path_for_flow(flow, 0, 7)) for flow in range(200)}
        assert len(paths) >= 2

    def test_edge_lookup(self):
        topo = FatTreeTopology.testbed()
        router = EcmpRouter(topo)
        assert router.ingress_edge(0) == topo.edge_switch_of_host(0)
        assert router.path_hops(1, 0, 1) >= 2


class TestDistributeLosses:
    def test_total_losses_removed(self):
        rng = random.Random(1)
        segments = [(FlowHierarchy.SAMPLED_LL, 10), (FlowHierarchy.HL_CANDIDATE, 20)]
        delivered = distribute_losses(segments, 5, rng)
        assert sum(count for _, count in delivered) == 25
        assert all(count >= 0 for _, count in delivered)

    def test_zero_losses(self):
        segments = [(FlowHierarchy.HH_CANDIDATE, 7)]
        assert distribute_losses(segments, 0, random.Random(0)) == segments

    def test_losses_capped_at_total(self):
        segments = [(FlowHierarchy.HL_CANDIDATE, 3)]
        delivered = distribute_losses(segments, 10, random.Random(0))
        assert sum(count for _, count in delivered) == 0


class TestSimulator:
    def test_build_testbed_simulator(self):
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.05))
        assert len(simulator.switches) == 4

    def test_attach_rejects_non_edge(self):
        simulator = NetworkSimulator()
        switch = EdgeSwitch("x", resources=SwitchResources.scaled(0.05))
        with pytest.raises(ValueError):
            simulator.attach_switch(("core", 0), switch)

    def test_run_epoch_truth(self):
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.05), seed=2)
        trace = Trace(
            flows=[
                FlowRecord(flow_id=11, size=20, src_host=0, dst_host=4, is_victim=True, lost_packets=3),
                FlowRecord(flow_id=22, size=10, src_host=1, dst_host=5),
            ]
        )
        truth = simulator.run_epoch(trace)
        assert truth.num_flows() == 2
        assert truth.losses == {11: 3}
        assert truth.total_lost_packets() == 3

    def test_upstream_and_downstream_counts(self):
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.05), seed=3)
        trace = Trace(flows=[FlowRecord(flow_id=5, size=30, src_host=0, dst_host=7,
                                        is_victim=True, lost_packets=4)])
        simulator.run_epoch(trace)
        ingress = simulator.edge_switch_for_host(0)
        egress = simulator.edge_switch_for_host(7)
        assert ingress.stats.packets_upstream == 30
        assert egress.stats.packets_downstream == 26

    def test_missing_dataplane_raises(self):
        simulator = NetworkSimulator()
        with pytest.raises(KeyError):
            simulator.edge_switch_for_host(0)

    @pytest.mark.parametrize("batched", [False, True])
    def test_duplicate_flow_ids_accumulate_in_truth(self, batched):
        # Regression: a flow ID appearing twice used to overwrite
        # truth.flow_sizes / truth.losses instead of accumulating.
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.05), seed=4)
        trace = Trace(
            flows=[
                FlowRecord(flow_id=7, size=12, src_host=0, dst_host=4,
                           is_victim=True, lost_packets=2),
                FlowRecord(flow_id=7, size=30, src_host=2, dst_host=6,
                           is_victim=True, lost_packets=5),
                FlowRecord(flow_id=9, size=4, src_host=1, dst_host=5),
            ]
        )
        truth = simulator.run_epoch(trace, batched=batched)
        assert truth.flow_sizes == {7: 42, 9: 4}
        assert truth.losses == {7: 7}
        assert truth.total_lost_packets() == 7

    def test_batched_epoch_matches_scalar(self):
        trace = Trace(
            flows=[
                FlowRecord(flow_id=100 + i, size=(i * 13) % 40 + 1,
                           src_host=i % 8, dst_host=(i + 3) % 8,
                           is_victim=(i % 5 == 0), lost_packets=(i % 5 == 0) * 2)
                for i in range(200)
            ]
        )
        resources = SwitchResources.scaled(0.05)
        scalar = build_testbed_simulator(resources=resources, seed=11)
        batched = build_testbed_simulator(resources=resources, seed=11)
        truth_a = scalar.run_epoch(trace, batched=False)
        truth_b = batched.run_epoch(trace, batched=True)
        assert truth_a.flow_sizes == truth_b.flow_sizes
        assert truth_a.losses == truth_b.losses
        assert truth_a.per_switch_flows == truth_b.per_switch_flows
        for node in scalar.switches:
            group_a = scalar.switches[node].end_epoch()
            group_b = batched.switches[node].end_epoch()
            assert np.array_equal(
                group_a.classifier.tower.counter_array(0),
                group_b.classifier.tower.counter_array(0),
            )
            for name in ("hh", "hl", "ll"):
                part_a = group_a.upstream.parts.part(name)
                part_b = group_b.upstream.parts.part(name)
                if part_a is None:
                    assert part_b is None
                    continue
                decode_a = part_a.decode_nondestructive()
                decode_b = part_b.decode_nondestructive()
                assert decode_a.flows == decode_b.flows
            assert group_a.upstream.memory_bytes() == group_b.upstream.memory_bytes()
            stats_a = scalar.switches[node].stats
            stats_b = batched.switches[node].stats
            assert stats_a.packets_upstream == stats_b.packets_upstream
            assert stats_a.packets_downstream == stats_b.packets_downstream
            assert stats_a.flows_seen == stats_b.flows_seen
            assert stats_a.per_hierarchy_packets == stats_b.per_hierarchy_packets
