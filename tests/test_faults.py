"""Failure-injection tests: fault models and end-to-end loss attribution."""

import pytest

from repro.controlplane.analysis import packet_loss_detection
from repro.dataplane.config import SwitchResources
from repro.network.faults import LinkFailure, RandomBlackhole, SwitchDrop, apply_faults, victims_by_cause
from repro.network.routing import EcmpRouter
from repro.network.simulator import build_testbed_simulator
from repro.network.topology import FatTreeTopology
from repro.traffic.generator import generate_workload


@pytest.fixture(scope="module")
def topology():
    return FatTreeTopology.testbed()


def make_trace(topology, num_flows=300, seed=1):
    return generate_workload(
        "DCTCP", num_flows=num_flows, victim_ratio=0.0, num_hosts=topology.num_hosts, seed=seed
    )


class TestFaultModels:
    def test_link_failure_affects_only_crossing_flows(self, topology):
        trace = make_trace(topology, seed=2)
        router = EcmpRouter(topology, seed=0)
        edge = topology.edge_switch_of_host(0)
        host = topology.host(0)
        fault = LinkFailure(edge, host, loss_rate=0.5)
        faulty = apply_faults(trace, topology, [fault], seed=2, router=router)
        for original, new in zip(trace.flows, faulty.flows):
            crosses = original.src_host == 0 or original.dst_host == 0
            assert new.is_victim == crosses

    def test_hard_link_failure_loses_everything(self, topology):
        trace = make_trace(topology, seed=3)
        edge = topology.edge_switch_of_host(1)
        host = topology.host(1)
        faulty = apply_faults(trace, topology, [LinkFailure(edge, host, 1.0)], seed=3)
        for flow in faulty.flows:
            if flow.is_victim and (flow.src_host == 1 or flow.dst_host == 1):
                assert flow.lost_packets == flow.size

    def test_switch_drop_affects_transit_traffic(self, topology):
        trace = make_trace(topology, seed=4)
        router = EcmpRouter(topology, seed=0)
        core = topology.core_switches[0]
        fault = SwitchDrop(core, loss_rate=0.3)
        faulty = apply_faults(trace, topology, [fault], seed=4, router=router)
        victims = {flow.flow_id for flow in faulty.flows if flow.is_victim}
        expected = set(victims_by_cause(trace, topology, [fault], router=router)[0])
        assert victims == expected

    def test_blackhole_hits_a_fraction_of_flows(self, topology):
        trace = make_trace(topology, num_flows=1000, seed=5)
        fault = RandomBlackhole(flow_fraction=0.1, seed=7)
        faulty = apply_faults(trace, topology, [fault], seed=5)
        ratio = faulty.num_victims() / len(faulty)
        assert 0.05 < ratio < 0.2

    def test_no_faults_no_victims(self, topology):
        trace = make_trace(topology, seed=6)
        faulty = apply_faults(trace, topology, [], seed=6)
        assert faulty.num_victims() == 0

    def test_multiple_faults_compose(self, topology):
        trace = make_trace(topology, seed=7)
        edge0 = topology.edge_switch_of_host(0)
        faults = [
            LinkFailure(edge0, topology.host(0), loss_rate=0.5),
            RandomBlackhole(flow_fraction=0.05, loss_rate=1.0, seed=9),
        ]
        faulty = apply_faults(trace, topology, faults, seed=7)
        causes = victims_by_cause(trace, topology, faults)
        affected = set(causes[0]) | set(causes[1])
        assert {f.flow_id for f in faulty.flows if f.is_victim} == affected


class TestLinkFailureAffectsEcmpPaths:
    """LinkFailure.affects against the router's actual ECMP paths."""

    def test_affects_is_endpoint_order_insensitive(self, topology):
        router = EcmpRouter(topology, seed=0)
        path = router.path_for_flow(1234, 0, 5)
        for left, right in zip(path, path[1:]):
            assert LinkFailure(left, right).affects(path)
            assert LinkFailure(right, left).affects(path)

    def test_affects_rejects_non_adjacent_node_pairs(self, topology):
        router = EcmpRouter(topology, seed=0)
        path = router.path_for_flow(99, 0, 5)
        # The path's two endpoints are on it but never adjacent (host-to-host
        # always crosses at least one switch), so that "link" never matches.
        assert not LinkFailure(path[0], path[-1]).affects(path)

    def test_core_link_failure_affects_exactly_the_crossing_paths(self, topology):
        router = EcmpRouter(topology, seed=0)
        core = topology.core_switches[0]
        agg = next(iter(topology.graph[core]))
        fault = LinkFailure(core, agg)
        trace = make_trace(topology, num_flows=400, seed=10)
        crossing = set()
        for flow in trace.flows:
            path = router.path_for_flow(flow.flow_id, flow.src_host, flow.dst_host)
            edges = {frozenset(pair) for pair in zip(path, path[1:])}
            if frozenset((core, agg)) in edges:
                crossing.add(flow.flow_id)
                assert fault.affects(path)
            else:
                assert not fault.affects(path)
        # ECMP spreads inter-pod flows over both cores: some (not all) cross.
        assert 0 < len(crossing) < len(trace)
        victims = set(victims_by_cause(trace, topology, [fault], router=router)[0])
        assert victims == crossing

    def test_intra_rack_flows_never_cross_fabric_links(self, topology):
        router = EcmpRouter(topology, seed=0)
        core = topology.core_switches[0]
        agg = next(iter(topology.graph[core]))
        fault = LinkFailure(core, agg)
        rack_hosts = [
            index
            for index in range(topology.num_hosts)
            if topology.edge_switch_of_host(index) == topology.edge_switch_of_host(0)
        ]
        assert len(rack_hosts) >= 2
        path = router.path_for_flow(7, rack_hosts[0], rack_hosts[1])
        assert not fault.affects(path)


class TestFaultedEpochSurvival:
    """Fault-rewritten victim sets must survive a simulated epoch intact."""

    @pytest.mark.parametrize("loss_rate", [0.3, 1.0])
    def test_epoch_truth_matches_fault_assignment(self, topology, loss_rate):
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.1), seed=11)
        trace = make_trace(topology, num_flows=200, seed=11)
        edge = simulator.topology.edge_switch_of_host(4)
        fault = LinkFailure(edge, simulator.topology.host(4), loss_rate=loss_rate)
        faulty = apply_faults(trace, simulator.topology, [fault], seed=11)
        truth = simulator.run_epoch(faulty)
        # The simulator's ground truth reproduces the fault model's victim
        # set and per-flow loss counts exactly.
        assert truth.losses == faulty.loss_map()
        assert set(truth.losses) == {f.flow_id for f in faulty.flows if f.is_victim}

    def test_ecmp_core_fault_attribution_through_an_epoch(self, topology):
        simulator = build_testbed_simulator(resources=SwitchResources.scaled(0.1), seed=12)
        trace = make_trace(topology, num_flows=200, seed=12)
        core = simulator.topology.core_switches[1]
        agg = next(iter(simulator.topology.graph[core]))
        fault = LinkFailure(core, agg, loss_rate=0.4)
        faulty = apply_faults(trace, simulator.topology, [fault], seed=12)
        expected = set(victims_by_cause(trace, simulator.topology, [fault], seed=12)[0])
        assert {f.flow_id for f in faulty.flows if f.is_victim} == expected

        simulator.run_epoch(faulty)
        groups = {node: s.end_epoch() for node, s in simulator.switches.items()}
        report = packet_loss_detection(groups)
        assert report.analysis_completed
        assert set(report.all_losses()) == set(faulty.loss_map())
        # Loss counts are attributed exactly (Fermat decodes are lossless
        # when the encoders are sized for the epoch's victim count).
        assert report.all_losses() == faulty.loss_map()


class TestEndToEndAttribution:
    def test_chamelemon_reports_the_faulted_flows(self, topology):
        """Inject a grey link failure and check ChameleMon's loss report."""
        resources = SwitchResources.scaled(0.1)
        simulator = build_testbed_simulator(resources=resources, seed=8)
        trace = make_trace(topology, num_flows=250, seed=8)
        edge = simulator.topology.edge_switch_of_host(2)
        fault = LinkFailure(edge, simulator.topology.host(2), loss_rate=0.2)
        faulty = apply_faults(trace, simulator.topology, [fault], seed=8)

        simulator.run_epoch(faulty)
        groups = {node: s.end_epoch() for node, s in simulator.switches.items()}
        report = packet_loss_detection(groups)
        assert report.analysis_completed
        reported = set(report.all_losses())
        truth = set(faulty.loss_map())
        assert reported == truth
