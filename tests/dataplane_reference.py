"""Per-flow data-plane walks, kept as oracles for the vectorized data plane.

``classify_flow_packets`` is the flow classifier's per-flow walk: it inserts
one flow's packets into the Tower classifier a chunk at a time and returns
the flow's ordered hierarchy segments, exactly as classifying the packets one
by one would (``classify_packet``).  ``classify_flows`` must give every flow
the same LL/HL/HH split and leave the same counters as calling it flow by
flow, switch by switch, in batch order; ``tests/test_numpy_backend.py`` and
``tests/test_dataplane.py`` check that on random inputs, reading the batch
back as segments with ``batch_segments``.  ``loss_uniform`` is one loss-draw
uniform computed on Python ints, the oracle of the vectorized
``loss_uniforms`` (``tests/test_network.py``).

``tower_fermat_walk`` is Tower+Fermat's per-flow walk (appendix C), the
oracle of ``TowerFermat.insert`` and ``insert_batch``
(``tests/test_numpy_backend.py``).

``reference_epoch`` is an oracle for a whole ``run_epoch``: it walks the
trace flow by flow with ``classify_flow_packets`` at the ingress switch,
draws losses with ``distribute_losses_uniform`` on ``loss_uniform``s, and
encodes each segment with ``encode_segment``: one scalar
``FermatSketch.insert`` into the part ``UPSTREAM_PART`` or
``DOWNSTREAM_PART`` routes its hierarchy to
(``tests/test_dataplane_oracle.py``).  ``collect_dataplane_state`` reads the
same shape back from a simulator that ran the epoch; the golden digests hash
it too.

The walks are the classifier and Tower+Fermat methods as they stood in
``src/``, written as functions of the classifier or the Tower.
"""

from typing import Any, Dict, List, Optional, Tuple

from repro.dataplane.classifier import SAMPLE_HASH_RANGE, ClassifiedBatch, FlowClassifier
from repro.dataplane.config import MonitoringConfig
from repro.dataplane.encoder import DownstreamFlowEncoder, UpstreamFlowEncoder
from repro.dataplane.hierarchy import FlowHierarchy
from repro.network.simulator import (
    _INV_2_53,
    _POS_STRIDE,
    _SLOT_STRIDE,
    _U64,
    MAX_LOSS_SEGMENTS,
    distribute_losses_uniform,
    epoch_loss_key,
    mix64,
)
from repro.sketches.tower import TowerSketch


def is_sampled(classifier: FlowClassifier, flow_id: int, config: MonitoringConfig) -> bool:
    """Flow-level sampling decision for LL candidates.

    The decision depends only on the flow ID and the configured rate, so
    the upstream and downstream encoders agree on it without extra state.
    """
    threshold = int(round(config.sample_rate * SAMPLE_HASH_RANGE))
    return classifier._sample_hash(flow_id) < threshold


def classify_estimate(
    classifier: FlowClassifier, estimate: int, flow_id: int, config: MonitoringConfig
) -> FlowHierarchy:
    """Hierarchy of a packet whose flow has the given post-insert estimate."""
    if estimate >= config.threshold_high:
        return FlowHierarchy.HH_CANDIDATE
    if estimate >= config.threshold_low:
        return FlowHierarchy.HL_CANDIDATE
    if is_sampled(classifier, flow_id, config):
        return FlowHierarchy.SAMPLED_LL
    return FlowHierarchy.NON_SAMPLED_LL


def classify_packet(
    classifier: FlowClassifier, flow_id: int, config: MonitoringConfig
) -> FlowHierarchy:
    """Insert one packet into the classifier and return its hierarchy."""
    estimate = classifier.tower.insert(flow_id, 1)
    return classify_estimate(classifier, estimate, flow_id, config)


def classify_flow_packets(
    classifier: FlowClassifier, flow_id: int, num_packets: int, config: MonitoringConfig
) -> List[Tuple[FlowHierarchy, int]]:
    """Insert ``num_packets`` of one flow and return its hierarchy segments.

    The result is an ordered list of ``(hierarchy, packet_count)`` segments
    equivalent to classifying the packets one at a time.  Because the
    classifier estimate for a flow grows by exactly one per inserted packet
    (until saturation) while no other flow's packets interleave, the
    segment boundaries can be computed in closed form, which keeps the
    simulation fast without changing any classification decision.
    """
    if num_packets <= 0:
        return []
    segments: List[Tuple[FlowHierarchy, int]] = []
    remaining = num_packets
    sampled = is_sampled(classifier, flow_id, config)
    while remaining > 0:
        estimate = classifier.tower.query(flow_id)
        next_estimate = estimate + 1
        if next_estimate >= config.threshold_high:
            hierarchy = FlowHierarchy.HH_CANDIDATE
            chunk = remaining
        elif next_estimate >= config.threshold_low:
            hierarchy = FlowHierarchy.HL_CANDIDATE
            chunk = min(remaining, config.threshold_high - 1 - estimate)
        else:
            hierarchy = (
                FlowHierarchy.SAMPLED_LL if sampled else FlowHierarchy.NON_SAMPLED_LL
            )
            chunk = min(remaining, config.threshold_low - 1 - estimate)
        chunk = max(1, chunk)
        classifier.tower.insert(flow_id, chunk)
        if segments and segments[-1][0] is hierarchy:
            segments[-1] = (hierarchy, segments[-1][1] + chunk)
        else:
            segments.append((hierarchy, chunk))
        remaining -= chunk
    return segments


def tower_fermat_walk(tower: TowerSketch, flow_id: int, count: int, threshold: int) -> int:
    """Insert ``count`` packets of one flow into Tower+Fermat's Tower part.

    Returns how many of them the Fermat part records: the first packet whose
    post-insert estimate reaches ``threshold`` and every later one (appendix C).
    Tower+Fermat's ``insert`` and ``insert_batch`` must leave the Tower as
    this walk does, flow by flow, and the Fermat part as one scalar
    ``FermatSketch.insert`` of the returned count per flow.
    """
    remaining = count
    while remaining > 0:
        estimate = tower.query(flow_id)
        if estimate + 1 >= threshold:
            # Every further packet of this flow is an HH-candidate packet.
            tower.insert(flow_id, remaining)
            return remaining
        chunk = max(1, min(remaining, threshold - 1 - estimate))
        tower.insert(flow_id, chunk)
        remaining -= chunk
    return 0


def batch_segments(batch: ClassifiedBatch) -> List[List[Tuple[FlowHierarchy, int]]]:
    """Each flow's ordered segments as a :class:`ClassifiedBatch` encodes them.

    A flow's estimate only grows, so its segments run LL, HL, HH; the
    batch's per-tier totals (zeros omitted) are that list.
    """
    segments = []
    for ll, hl, hh, sampled in zip(
        batch.ll.tolist(), batch.hl.tolist(), batch.hh.tolist(), batch.sampled.tolist()
    ):
        flow = []
        if ll:
            tier = FlowHierarchy.SAMPLED_LL if sampled else FlowHierarchy.NON_SAMPLED_LL
            flow.append((tier, ll))
        if hl:
            flow.append((FlowHierarchy.HL_CANDIDATE, hl))
        if hh:
            flow.append((FlowHierarchy.HH_CANDIDATE, hh))
        segments.append(flow)
    return segments


def loss_uniform(key: int, position: int, slot: int) -> float:
    """One uniform in [0, 1) keyed by (epoch key, trace position, segment slot)."""
    z = mix64((key + position * _POS_STRIDE + slot * _SLOT_STRIDE) & _U64)
    return (z >> 11) * _INV_2_53


def _part_fingerprint(part) -> Optional[Tuple[Any, Any]]:
    if part is None:
        return None
    return (
        [row.tolist() for row in part._counts],
        [[int(value) for value in row] for row in part._idsums],
    )


def collect_dataplane_state(simulator) -> Dict[Any, Dict[str, Any]]:
    """A pure-Python, ``==``-comparable snapshot of every switch's epoch state.

    Used by the oracle tests and the golden digests to compare sketches and
    statistics bit for bit.
    """
    state: Dict[Any, Dict[str, Any]] = {}
    for node in sorted(simulator.switches, key=str):
        switch = simulator.switches[node]
        group = switch.end_epoch()
        stats = switch.stats
        state[node] = {
            "classifier": [row.tolist() for row in group.classifier.tower._counters],
            "upstream": {
                name: _part_fingerprint(group.upstream.parts.part(name))
                for name in ("hh", "hl", "ll")
            },
            "downstream": {
                name: _part_fingerprint(group.downstream.parts.part(name))
                for name in ("hl", "ll")
            },
            "stats": (
                stats.packets_upstream,
                stats.packets_downstream,
                stats.flows_seen,
                tuple(
                    sorted(
                        (hierarchy.name, count)
                        for hierarchy, count in stats.per_hierarchy_packets.items()
                    )
                ),
            ),
        }
    return state


#: The encoder part each hierarchy's packets go to on either side; a
#: non-sampled LL segment is not encoded, and the downstream HL part takes
#: the HH packets too.
UPSTREAM_PART = {
    FlowHierarchy.HH_CANDIDATE: "hh",
    FlowHierarchy.HL_CANDIDATE: "hl",
    FlowHierarchy.SAMPLED_LL: "ll",
}
DOWNSTREAM_PART = {
    FlowHierarchy.HH_CANDIDATE: "hl",
    FlowHierarchy.HL_CANDIDATE: "hl",
    FlowHierarchy.SAMPLED_LL: "ll",
}


def encode_segment(parts, routes, flow_id: int, count: int, hierarchy: FlowHierarchy) -> None:
    """Insert ``count`` packets of a flow into the part ``routes`` maps its
    hierarchy to; an unrouted hierarchy, an unallocated part or an empty
    segment records nothing."""
    name = routes.get(hierarchy)
    part = parts.part(name) if name else None
    if part is not None and count > 0:
        part.insert(flow_id, count)


def reference_epoch(simulator, trace) -> Tuple[Dict[Any, Dict[str, Any]], Dict[str, Any]]:
    """What ``simulator.run_epoch(trace)`` must leave behind, one flow at a time.

    Call it on a simulator whose switches have not run the epoch yet; it
    reads only their deployment (resources, seeds, prime, configuration) and
    the simulator's seed and epoch counter.  Returns ``(state, truth)``:
    ``state`` in the shape of ``collect_dataplane_state`` and ``truth`` the
    ``EpochTruth`` fields as a dict.
    """
    topology = simulator.topology
    num_hosts = topology.num_hosts
    key = epoch_loss_key(simulator._seed, simulator._epoch_counter)
    planes = {}
    for node, switch in simulator.switches.items():
        config = switch.config
        args = (config.layout, switch.resources)
        planes[node] = {
            "config": config,
            "classifier": FlowClassifier(switch.resources, seed=switch._base_seed),
            "upstream": UpstreamFlowEncoder(
                *args, base_seed=switch._base_seed, prime=switch._prime
            ).parts,
            "downstream": DownstreamFlowEncoder(
                *args, base_seed=switch._base_seed, prime=switch._prime
            ).parts,
            "stats": [0, 0, 0, {hierarchy.name: 0 for hierarchy in FlowHierarchy}],
        }
    truth = {"flow_sizes": {}, "losses": {}, "per_switch_flows": {}}
    for position, flow in enumerate(trace.flows):
        flow_id, size = int(flow.flow_id), int(flow.size)
        src = flow.src_host if flow.src_host is not None else 0
        dst = flow.dst_host if flow.dst_host is not None else (src + 1) % num_hosts
        ingress = topology.edge_switch_of_host(src)
        egress = topology.edge_switch_of_host(dst)
        truth["flow_sizes"][flow_id] = truth["flow_sizes"].get(flow_id, 0) + size
        truth["per_switch_flows"][ingress] = truth["per_switch_flows"].get(ingress, 0) + 1
        lost = int(flow.lost_packets) if flow.is_victim else 0
        if lost > 0:
            truth["losses"][flow_id] = truth["losses"].get(flow_id, 0) + lost
        plane = planes[ingress]
        segments = classify_flow_packets(plane["classifier"], flow_id, size, plane["config"])
        stats = plane["stats"]
        if size > 0:
            stats[0] += size
            stats[2] += 1
        for hierarchy, count in segments:
            stats[3][hierarchy.name] += count
            encode_segment(plane["upstream"], UPSTREAM_PART, flow_id, count, hierarchy)
        if lost > 0:
            uniforms = [loss_uniform(key, position, slot) for slot in range(MAX_LOSS_SEGMENTS)]
            segments = distribute_losses_uniform(segments, lost, uniforms)
        plane = planes[egress]
        plane["stats"][1] += sum(count for _, count in segments)
        for hierarchy, count in segments:
            encode_segment(plane["downstream"], DOWNSTREAM_PART, flow_id, count, hierarchy)
    state = {}
    for node in sorted(planes, key=str):
        plane = planes[node]
        up, down, flows_seen, per_hierarchy = plane["stats"]
        state[node] = {
            "classifier": [row.tolist() for row in plane["classifier"].tower._counters],
            "upstream": {
                name: _part_fingerprint(plane["upstream"].part(name)) for name in ("hh", "hl", "ll")
            },
            "downstream": {
                name: _part_fingerprint(plane["downstream"].part(name)) for name in ("hl", "ll")
            },
            "stats": (up, down, flows_seen, tuple(sorted(per_hierarchy.items()))),
        }
    return state, truth
