"""The whole data plane against a flow-by-flow oracle.

``run_epoch`` classifies and encodes all switches' flows in one pass per
side.  ``reference_epoch`` (``tests/dataplane_reference.py``) walks the same
trace one flow at a time: the per-flow classifier walk at the ingress
switch, the per-segment loss draw, and one scalar ``FermatSketch.insert``
per segment at each end.  Every switch's classifier counters, encoder parts
and statistics, and the ``EpochTruth``, must come out equal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.config import EncoderLayout, MonitoringConfig, SwitchResources
from repro.dataplane.switch import EdgeSwitch
from repro.network.simulator import NetworkSimulator, build_testbed_simulator
from repro.network.topology import FatTreeSpec, FatTreeTopology
from repro.sketches.fermat import MERSENNE_PRIME_61, MERSENNE_PRIME_127
from repro.traffic.flow import FlowRecord, Trace

from dataplane_reference import collect_dataplane_state, reference_epoch

TESTBED = FatTreeTopology.testbed()
FABRIC = FatTreeTopology(FatTreeSpec(k=8))

#: Two and three narrow levels that saturate within a few flows, so the
#: classifier's walk steps past saturated counters mid-flow.
TINY_LEVELS = {"tiny": ((4, 32), (6, 16)), "tiny3": ((4, 64), (6, 32), (8, 16))}


def _resources(kind: str) -> SwitchResources:
    if kind == "scaled":
        return SwitchResources.scaled(0.05)
    return SwitchResources(
        upstream_buckets=48,
        downstream_buckets=36,
        classifier_levels=TINY_LEVELS[kind],
        min_hl_buckets=6,
        ill_layout=EncoderLayout(m_hh=12, m_hl=24, m_ll=12),
    )


def _simulator(shape: str, resources, config, seed: int, prime: int) -> NetworkSimulator:
    if shape == "one":
        # One data plane: every flow stays between the two hosts of one edge switch.
        simulator = NetworkSimulator(TESTBED, seed=seed)
        node = TESTBED.edge_switch_of_host(0)
        simulator.attach_switch(
            node,
            EdgeSwitch(node, resources=resources, config=config, base_seed=seed, prime=prime),
        )
        return simulator
    return build_testbed_simulator(
        resources=resources,
        config=config,
        seed=seed,
        prime=prime,
        topology=TESTBED if shape == "testbed" else FABRIC,
    )


def _hosts(shape: str) -> int:
    return {"one": 2, "testbed": TESTBED.num_hosts, "fabric": FABRIC.num_hosts}[shape]


@st.composite
def epochs(draw):
    shape = draw(st.sampled_from(["one", "testbed", "fabric"]))
    prime = draw(st.sampled_from([MERSENNE_PRIME_61, MERSENNE_PRIME_127]))
    # 20 fingerprint bits: 2**61 - 1 holds IDs below 2**41, 2**127 - 1 below 2**107.
    id_bits = 41 if prime == MERSENNE_PRIME_61 else draw(st.sampled_from([64, 104]))
    kind = draw(st.sampled_from(["scaled", "tiny", "tiny3"]))
    resources = _resources(kind)
    if draw(st.booleans()):
        config = resources.initial_config()
    else:
        low = draw(st.integers(min_value=1, max_value=12))
        config = MonitoringConfig(
            layout=resources.ill_layout,
            threshold_high=draw(st.integers(min_value=low, max_value=40)),
            threshold_low=low,
            sample_rate=draw(st.sampled_from([0.0, 0.3, 0.75, 1.0])),
        )
    hosts = _hosts(shape)
    pool = draw(st.lists(st.integers(min_value=0, max_value=(1 << id_bits) - 1),
                         min_size=1, max_size=40))
    endpoint = st.one_of(st.none(), st.integers(min_value=0, max_value=hosts - 1))
    if shape == "one":
        endpoint = st.integers(min_value=0, max_value=1)
    flows = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        size = draw(st.integers(min_value=0, max_value=80))
        victim = draw(st.booleans())
        flows.append(FlowRecord(
            flow_id=draw(st.sampled_from(pool)),
            size=size,
            src_host=draw(endpoint),
            dst_host=draw(endpoint),
            is_victim=victim,
            lost_packets=draw(st.integers(min_value=0, max_value=size)) if victim else 0,
        ))
    seed = draw(st.integers(min_value=0, max_value=50))
    return shape, resources, config, seed, prime, Trace(flows=flows)


def _truth_dict(truth):
    return {
        "flow_sizes": truth.flow_sizes,
        "losses": truth.losses,
        "per_switch_flows": truth.per_switch_flows,
    }


def _run_and_compare(simulator, trace):
    expected_state, expected_truth = reference_epoch(simulator, trace)
    truth = simulator.run_epoch(trace)
    state = collect_dataplane_state(simulator)
    assert _truth_dict(truth) == expected_truth
    assert state == expected_state


@settings(max_examples=60, deadline=None)
@given(epochs())
def test_run_epoch_matches_flow_by_flow_oracle(epoch):
    shape, resources, config, seed, prime, trace = epoch
    _run_and_compare(_simulator(shape, resources, config, seed, prime), trace)


def test_too_large_id_raises_only_where_encoded():
    # 2**41 does not fit 2**61 - 1 after 20 fingerprint bits.  As a
    # non-sampled LL flow it is never encoded, so the epoch runs; as an HH
    # flow it is, and the epoch raises.
    resources = SwitchResources.scaled(0.05)
    big = 1 << 41
    never_sampled = MonitoringConfig(
        layout=resources.ill_layout, threshold_high=50, threshold_low=50, sample_rate=0.0
    )
    trace = Trace(flows=[FlowRecord(flow_id=big, size=3, src_host=0, dst_host=5)])
    simulator = _simulator("testbed", resources, never_sampled, 1, MERSENNE_PRIME_61)
    _run_and_compare(simulator, trace)
    simulator = _simulator("testbed", resources, resources.initial_config(), 1, MERSENNE_PRIME_61)
    with pytest.raises(ValueError, match="smaller than the Fermat prime"):
        simulator.run_epoch(trace)
    # The upstream HH part raised, so the downstream pass never ran.
    assert all(switch.stats.packets_downstream == 0 for switch in simulator.switches.values())
