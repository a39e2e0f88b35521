"""Tests for the fat-tree topology, ECMP routing, and the packet-level simulator."""

import random
import re

import numpy as np
import pytest

from repro.dataplane.config import MonitoringConfig, SwitchResources
from repro.dataplane.hierarchy import FlowHierarchy
from repro.dataplane.switch import EdgeSwitch
from repro.network.routing import EcmpRouter
from repro.network.simulator import (
    MAX_LOSS_SEGMENTS,
    NetworkSimulator,
    build_testbed_simulator,
    distribute_losses_uniform,
    epoch_loss_key,
    loss_uniforms,
)
from repro.network.topology import FatTreeSpec, FatTreeTopology
from repro.traffic.flow import FlowRecord, Trace, TraceColumns
from repro.traffic.generator import generate_workload

from dataplane_reference import loss_uniform


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


def _uniforms(seed):
    rng = random.Random(seed)
    return [rng.random() for _ in range(MAX_LOSS_SEGMENTS)]


class TestDistributeLosses:
    def test_total_losses_removed(self):
        segments = [(FlowHierarchy.SAMPLED_LL, 10), (FlowHierarchy.HL_CANDIDATE, 20)]
        delivered = distribute_losses_uniform(segments, 5, _uniforms(1))
        assert sum(count for _, count in delivered) == 25
        assert all(count >= 0 for _, count in delivered)

    def test_zero_losses(self):
        segments = [(FlowHierarchy.HH_CANDIDATE, 7)]
        assert distribute_losses_uniform(segments, 0, _uniforms(0)) == segments

    def test_losses_capped_at_total(self):
        segments = [(FlowHierarchy.HL_CANDIDATE, 3)]
        delivered = distribute_losses_uniform(segments, 10, _uniforms(0))
        assert sum(count for _, count in delivered) == 0


class TestLossSubStreams:
    """The counter-based uniforms every loss draw comes from."""

    def test_vectorized_uniforms_match_scalar(self):
        key = epoch_loss_key(seed=42, epoch=7)
        positions = np.array([0, 1, 17, 999, 2**31, 2**63 - 1], dtype=np.uint64)
        grid = loss_uniforms(key, positions)
        assert grid.shape == (len(positions), MAX_LOSS_SEGMENTS)
        for row, position in enumerate(positions.tolist()):
            for slot in range(MAX_LOSS_SEGMENTS):
                assert grid[row, slot] == loss_uniform(key, position, slot)

    def test_uniforms_in_unit_interval(self):
        key = epoch_loss_key(seed=0, epoch=0)
        grid = loss_uniforms(key, np.arange(1000))
        assert float(grid.min()) >= 0.0
        assert float(grid.max()) < 1.0

    def test_epoch_keys_distinct(self):
        keys = {epoch_loss_key(seed, epoch) for seed in range(8) for epoch in range(8)}
        assert len(keys) == 64

    def test_distribute_losses_uniform_conserves_totals(self):
        key = epoch_loss_key(seed=3, epoch=1)
        segments = [
            (FlowHierarchy.NON_SAMPLED_LL, 40),
            (FlowHierarchy.HL_CANDIDATE, 25),
            (FlowHierarchy.HH_CANDIDATE, 60),
        ]
        for position in range(50):
            uniforms = [loss_uniform(key, position, s) for s in range(MAX_LOSS_SEGMENTS)]
            for lost in (0, 1, 60, 125, 999):
                delivered = distribute_losses_uniform(segments, lost, uniforms)
                assert [h for h, _ in delivered] == [h for h, _ in segments]
                assert all(count >= 0 for _, count in delivered)
                total = sum(count for _, count in segments)
                assert sum(count for _, count in delivered) == total - min(lost, total)


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

    @pytest.mark.parametrize("differs", ["resources", "base_seed", "prime", "config"])
    def test_mixed_deployment_rejected(self, differs):
        resources = SwitchResources.scaled(0.05)
        simulator = build_testbed_simulator(resources=resources, seed=2)
        node = simulator.edge_nodes[2]
        kwargs = dict(resources=resources, base_seed=2,
                      prime=simulator.switches[node]._prime)
        if differs == "resources":
            kwargs["resources"] = SwitchResources.scaled(0.06)
        elif differs == "base_seed":
            kwargs["base_seed"] = 3
        elif differs == "prime":
            kwargs["prime"] = (1 << 61) - 1
        else:
            kwargs["config"] = MonitoringConfig(
                layout=resources.ill_layout, threshold_high=9, threshold_low=3,
                sample_rate=0.5,
            )
        simulator.switches[node] = EdgeSwitch(node, **kwargs)
        trace = Trace(flows=[FlowRecord(flow_id=5, size=3, src_host=0, dst_host=7)])
        with pytest.raises(ValueError, match=re.escape(f"edge switch {node} differs")):
            simulator.run_epoch(trace)

    def test_mixed_deployment_names_first_differing_switch(self):
        resources = SwitchResources.scaled(0.05)
        simulator = build_testbed_simulator(resources=resources, seed=2)
        ill = MonitoringConfig(layout=resources.ill_layout, threshold_high=9,
                               threshold_low=3, sample_rate=0.5)
        for node in simulator.edge_nodes[1:]:
            simulator.switches[node].apply_config(ill)
        simulator.switches[simulator.edge_nodes[3]].begin_epoch()
        simulator.switches[simulator.edge_nodes[1]].begin_epoch()
        trace = Trace(flows=[FlowRecord(flow_id=5, size=3, src_host=0, dst_host=7)])
        with pytest.raises(ValueError, match=re.escape(
            f"edge switch {simulator.edge_nodes[1]} differs from "
            f"{simulator.edge_nodes[0]} in its configuration"
        )):
            simulator.run_epoch(trace)

    def test_missing_dataplane_raises(self):
        simulator = NetworkSimulator()
        with pytest.raises(KeyError):
            simulator.edge_switch_for_host(0)

    def test_run_epoch_without_dataplane_raises(self):
        trace = generate_workload("DCTCP", num_flows=100, victim_ratio=0.1, seed=2)
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.05), seed=2)
        del simulator.switches[simulator.edge_nodes[0]]
        with pytest.raises(KeyError, match="no ChameleMon data plane"):
            simulator.run_epoch(trace)

    def test_empty_trace_yields_empty_truth(self):
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.05), seed=0)
        truth = simulator.run_epoch(Trace(columns=TraceColumns.empty()))
        assert truth.num_flows() == 0
        assert all(s.stats.flows_seen == 0 for s in simulator.switches.values())

    def test_duplicate_flow_ids_accumulate_in_truth(self):
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
        truth = simulator.run_epoch(trace)
        assert truth.flow_sizes == {7: 42, 9: 4}
        assert truth.losses == {7: 7}
        assert truth.total_lost_packets() == 7
