"""Packet-level simulation of one epoch of traffic over the fat-tree testbed.

The simulator replays a :class:`~repro.traffic.flow.Trace` through the
ChameleMon data planes deployed on the edge switches: every flow's packets are
classified and encoded at its ingress edge switch, a controlled subset of
packets is dropped in the fabric (mirroring the testbed's proactive ECN-based
drops), and the surviving packets are encoded at the egress edge switch with
the hierarchy assigned at the ingress (carried in packet headers on the
testbed).

The simulator is epoch-synchronous: all of an epoch's packets are delivered or
dropped before the controller collects the epoch's sketches, matching the
"additional waiting time" the paper introduces before collection (appendix B).

An epoch is two passes over all edge switches at once:
:func:`~repro.dataplane.switch.process_upstream` classifies and
encodes every flow at its ingress switch, and
:func:`~repro.dataplane.switch.process_downstream` encodes the delivered
packets at the egress switches.  Every switch runs the same hash functions,
so each runs once per epoch over all flows; the switches must therefore be
one deployment (same resources, base seed, prime and active configuration),
and ``run_epoch`` raises ``ValueError`` otherwise.

Loss draws use *counter-based* RNG sub-streams: every victim flow's draws are
a pure function of ``(simulator seed, epoch index, trace position)``, never of
the order the flows are processed in, so a resumed service redraws exactly
the losses of the uninterrupted run.  This is the same derive-before-dispatch
seeding discipline ``SweepRunner`` uses for sweep points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dataplane.hierarchy import FlowHierarchy
from ..dataplane.switch import (
    EdgeSwitch,
    HierarchySegments,
    process_downstream,
    process_upstream,
)
from ..obs.tracing import NULL_TRACER
from ..traffic.flow import Trace, TraceColumns
from .topology import FatTreeTopology, NodeId


@dataclass
class EpochTruth:
    """Ground truth of one simulated epoch, for accuracy evaluation."""

    flow_sizes: Dict[int, int] = field(default_factory=dict)
    losses: Dict[int, int] = field(default_factory=dict)
    per_switch_flows: Dict[NodeId, int] = field(default_factory=dict)

    def num_flows(self) -> int:
        return len(self.flow_sizes)

    def num_victims(self) -> int:
        return len(self.losses)

    def total_lost_packets(self) -> int:
        return sum(self.losses.values())


# --------------------------------------------------------------------------- #
# counter-based loss-draw sub-streams
# --------------------------------------------------------------------------- #
#: Upper bound on per-flow hierarchy segments (LL, HL, HH — in that order; the
#: classifier estimate only grows, so a flow never revisits a lower tier).
MAX_LOSS_SEGMENTS = 3

_U64 = (1 << 64) - 1
_KEY_GAMMA = 0x9E3779B97F4A7C15
_POS_STRIDE = 0xC2B2AE3D27D4EB4F
_SLOT_STRIDE = 0x165667B19E3779F9
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def mix64(value: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    value &= _U64
    value = ((value ^ (value >> 30)) * _MIX_1) & _U64
    value = ((value ^ (value >> 27)) * _MIX_2) & _U64
    return value ^ (value >> 31)


def epoch_loss_key(seed: int, epoch: int) -> int:
    """The 64-bit key of one epoch's loss-draw sub-stream."""
    return mix64((mix64(seed & _U64) + (epoch + 1) * _KEY_GAMMA) & _U64)


def loss_uniforms(key: int, positions: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1), shape ``(len(positions), MAX_LOSS_SEGMENTS)``.

    Entry ``[r, slot]`` is keyed by (epoch key, trace position
    ``positions[r]``, segment slot): the SplitMix64 finalizer of
    ``key + position * _POS_STRIDE + slot * _SLOT_STRIDE``, whose top 53
    bits become the uniform.  The uint64 array arithmetic wraps mod 2**64.
    """
    positions = np.asarray(positions, dtype=np.uint64).reshape(-1, 1)
    slots = np.arange(MAX_LOSS_SEGMENTS, dtype=np.uint64).reshape(1, -1)
    with np.errstate(over="ignore"):
        z = np.uint64(key) + positions * np.uint64(_POS_STRIDE)
        z = z + slots * np.uint64(_SLOT_STRIDE)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _hypergeometric_u(u: float, population: int, successes: int, draws: int) -> int:
    """Exact hypergeometric sample from one pre-drawn uniform ``u``.

    Inverse-CDF sampling: the pmf at the lower support bound comes from
    ``lgamma`` and subsequent terms from the ratio recurrence, so the cost is
    O(support width) with no per-packet work.  Degenerate supports ignore
    ``u`` entirely (the draw is forced), which keeps the uniform indexing
    positional — partition-independent — rather than consumption-ordered.
    """
    lower = max(0, draws - (population - successes))
    upper = min(draws, successes)
    if lower >= upper:
        return lower
    # log pmf(lower) = log [C(successes, lower) C(population-successes, draws-lower) / C(population, draws)]
    log_pmf = (
        _log_comb(successes, lower)
        + _log_comb(population - successes, draws - lower)
        - _log_comb(population, draws)
    )
    pmf = math.exp(log_pmf)
    cumulative = pmf
    k = lower
    while cumulative < u and k < upper:
        pmf *= (
            (successes - k)
            * (draws - k)
            / ((k + 1.0) * (population - successes - draws + k + 1.0))
        )
        k += 1
        cumulative += pmf
    return k


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def distribute_losses_uniform(
    segments: HierarchySegments,
    lost_packets: int,
    uniforms: Sequence[float],
) -> HierarchySegments:
    """Remove ``lost_packets`` packets uniformly at random from the segments.

    Returns the *delivered* segments (same hierarchy order, reduced counts).
    Losses land on packets uniformly, so each segment loses a hypergeometric
    share, drawn per segment rather than per packet: the cost follows the
    number of segments (at most :data:`MAX_LOSS_SEGMENTS`), not the flow's
    packet count.  ``uniforms[j]`` feeds segment ``j``'s draw.  The total
    delivered is always exactly ``total - lost_packets``: the last segment's
    draw is forced by its degenerate support.  Because every uniform is
    indexed by its slot, never consumed from a stateful RNG, any partition
    of the trace draws identical losses for identical flows.
    """
    total = sum(count for _, count in segments)
    lost_packets = max(0, min(lost_packets, total))
    if lost_packets == 0:
        return list(segments)
    remaining_total = total
    remaining_losses = lost_packets
    delivered: HierarchySegments = []
    for slot, (hierarchy, count) in enumerate(segments):
        losses_here = _hypergeometric_u(
            uniforms[slot], remaining_total, remaining_losses, count
        )
        delivered.append((hierarchy, count - losses_here))
        remaining_total -= count
        remaining_losses -= losses_here
    return delivered


# --------------------------------------------------------------------------- #
# column-level epoch helpers
# --------------------------------------------------------------------------- #
def endpoint_switch_indices(
    columns: TraceColumns, num_hosts: int, host_edge: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-flow (ingress, egress) edge-switch indices for a column batch."""
    srcs = np.where(columns.src_hosts < 0, 0, columns.src_hosts)
    dsts = np.where(columns.dst_hosts < 0, (srcs + 1) % num_hosts, columns.dst_hosts)
    return host_edge[srcs], host_edge[dsts]


def accumulate_truth(
    truth: EpochTruth,
    columns: TraceColumns,
    ingress: np.ndarray,
    edge_nodes: Sequence[NodeId],
) -> None:
    """Fill ``truth`` from trace columns (RNG-independent, duplicate-safe)."""
    flow_ids = columns.flow_ids
    unique_ids, inverse = np.unique(flow_ids, return_inverse=True)
    size_sums = np.zeros(len(unique_ids), dtype=np.int64)
    np.add.at(size_sums, inverse, columns.sizes)
    truth.flow_sizes.update(zip(unique_ids.tolist(), size_sums.tolist()))
    per_switch_counts = np.bincount(ingress, minlength=len(edge_nodes))
    for index, node in enumerate(edge_nodes):
        count = int(per_switch_counts[index])
        if count:
            truth.per_switch_flows[node] = count
    losses = truth.losses
    victim_positions = np.nonzero(columns.is_victim & (columns.lost_packets > 0))[0]
    lost_list = columns.lost_packets[victim_positions].tolist()
    for position, lost in zip(victim_positions.tolist(), lost_list):
        flow_id = int(flow_ids[position])
        losses[flow_id] = losses.get(flow_id, 0) + lost


def apply_victim_losses(
    key: int,
    victim_positions: np.ndarray,
    lost_values: np.ndarray,
    ll_all: np.ndarray,
    hl_all: np.ndarray,
    hh_all: np.ndarray,
    sampled_all: np.ndarray,
) -> None:
    """Reduce the per-flow hierarchy counts of victims by their loss draws.

    ``victim_positions`` are *global trace positions* (the loss sub-stream is
    keyed on them), and the count arrays are indexed by the same positions.
    Victims are independent — each one's draws touch only its own row — so any
    partition of the victim set applies identical losses.
    """
    if not len(victim_positions):
        return
    uniforms = loss_uniforms(key, victim_positions)
    s_ll = FlowHierarchy.SAMPLED_LL
    ns_ll = FlowHierarchy.NON_SAMPLED_LL
    hl_h = FlowHierarchy.HL_CANDIDATE
    hh_h = FlowHierarchy.HH_CANDIDATE
    lost_list = np.asarray(lost_values).tolist()
    for row, position in enumerate(np.asarray(victim_positions).tolist()):
        segments: HierarchySegments = []
        ll_count = int(ll_all[position])
        if ll_count:
            segments.append((s_ll if sampled_all[position] else ns_ll, ll_count))
        hl_count = int(hl_all[position])
        if hl_count:
            segments.append((hl_h, hl_count))
        hh_count = int(hh_all[position])
        if hh_count:
            segments.append((hh_h, hh_count))
        for hierarchy, count in distribute_losses_uniform(
            segments, int(lost_list[row]), uniforms[row]
        ):
            if hierarchy is hh_h:
                hh_all[position] = count
            elif hierarchy is hl_h:
                hl_all[position] = count
            else:
                ll_all[position] = count


def switches_by_index(
    node_indices: np.ndarray, switch_at: Callable[[int], EdgeSwitch]
) -> Tuple[List[EdgeSwitch], np.ndarray]:
    """The switches the flows touch, in node order, and each flow's position there.

    ``node_indices`` are per-flow edge-switch indices; ``switch_at(index)``
    returns the switch at one of them (or raises).  The pair feeds
    :func:`~repro.dataplane.switch.process_upstream` and
    :func:`~repro.dataplane.switch.process_downstream`.
    """
    present = np.flatnonzero(np.bincount(node_indices))
    local = np.zeros(present[-1] + 1, dtype=np.int64)
    local[present] = np.arange(present.size)
    return [switch_at(index) for index in present.tolist()], local[node_indices]


class NetworkSimulator:
    """Replays traffic over the fat-tree and drives the edge-switch data planes."""

    def __init__(
        self,
        topology: Optional[FatTreeTopology] = None,
        switches: Optional[Dict[NodeId, EdgeSwitch]] = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology or FatTreeTopology.testbed()
        self.switches: Dict[NodeId, EdgeSwitch] = switches or {}
        self._seed = seed
        self._rng = random.Random(seed)
        self._epoch_counter = 0
        # Per-topology host -> edge-switch maps, built once (the topology is
        # immutable for the simulator's lifetime).
        num_hosts = self.topology.num_hosts
        self.edge_nodes: List[NodeId] = sorted(
            {self.topology.edge_switch_of_host(host) for host in range(num_hosts)}
        )
        self.node_index: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self.edge_nodes)
        }
        self.host_edge: np.ndarray = np.array(
            [
                self.node_index[self.topology.edge_switch_of_host(host)]
                for host in range(num_hosts)
            ],
            dtype=np.int64,
        )

    def attach_switch(self, node: NodeId, switch: EdgeSwitch) -> None:
        if node not in self.topology.edge_switches:
            raise ValueError(f"{node} is not an edge switch of the topology")
        self.switches[node] = switch

    def edge_switch_for_host(self, host: int) -> EdgeSwitch:
        node = self.topology.edge_switch_of_host(host)
        if node not in self.switches:
            raise KeyError(f"no ChameleMon data plane attached to edge switch {node}")
        return self.switches[node]

    # ------------------------------------------------------------------ #
    def run_epoch(self, trace: Trace, tracer: Optional[object] = None) -> EpochTruth:
        """Replay a whole trace as one epoch and return its ground truth.

        One pass per side: the upstream pass classifies and encodes every
        flow at its ingress switch (each switch's flows keep their trace
        order, so every classification decision is preserved); loss draws
        are keyed on (seed, epoch, trace position), never on execution
        order; the downstream pass encodes every flow at its egress switch,
        reusing the upstream pass's hashes.

        A flow ID that appears several times in the trace accumulates into the
        ground truth (sizes and losses are summed), matching what the sketches
        record.
        """
        key = epoch_loss_key(self._seed, self._epoch_counter)
        self._epoch_counter += 1
        tracer = tracer if tracer is not None else NULL_TRACER
        truth = EpochTruth()
        columns = trace.columns()
        if len(columns) == 0:
            return truth
        self._require_one_deployment()
        ingress, egress = endpoint_switch_indices(
            columns, self.topology.num_hosts, self.host_edge
        )
        accumulate_truth(truth, columns, ingress, self.edge_nodes)
        with tracer.span("classify_encode"):
            switches, owner = switches_by_index(ingress, self._switch_at)
            batch = process_upstream(switches, owner, columns.flow_ids, columns.sizes)
        victim_positions = np.nonzero(columns.is_victim & (columns.lost_packets > 0))[0]
        with tracer.span("loss_apply"):
            apply_victim_losses(
                key,
                victim_positions,
                columns.lost_packets[victim_positions],
                batch.ll,
                batch.hl,
                batch.hh,
                batch.sampled,
            )
        with tracer.span("downstream_encode"):
            switches, owner = switches_by_index(egress, self._switch_at)
            process_downstream(switches, owner, batch)
        return truth

    def _switch_at(self, index: int) -> EdgeSwitch:
        node = self.edge_nodes[index]
        switch = self.switches.get(node)
        if switch is None:
            raise KeyError(f"no ChameleMon data plane attached to edge switch {node}")
        return switch

    def _require_one_deployment(self) -> None:
        """Raise ``ValueError`` unless every attached switch is one deployment.

        The epoch passes evaluate each hash once for all switches, so every
        switch must share resources, base seed, prime and active
        configuration (the controller's add/subtract needs the same).  The
        error names the first switch, in node order, that differs from the
        first one.
        """
        nodes = [node for node in self.edge_nodes if node in self.switches]
        if not nodes:
            return
        first = self.switches[nodes[0]]
        for node in nodes[1:]:
            switch = self.switches[node]
            for name, mine, theirs in (
                ("resources", switch.resources, first.resources),
                ("base seed", switch._base_seed, first._base_seed),
                ("prime", switch._prime, first._prime),
                ("configuration", switch.config, first.config),
            ):
                if mine is not theirs and mine != theirs:
                    raise ValueError(
                        f"edge switch {node} differs from {nodes[0]} in its {name}; "
                        f"the simulator runs one deployment, so every switch must "
                        f"share resources, base seed, prime and configuration"
                    )

    # ------------------------------------------------------------------ #
    # service checkpoints
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """The simulator state a service checkpoint must capture.

        The epoch counter keys the counter-based loss sub-streams
        (:func:`epoch_loss_key`), so restoring it makes every post-resume
        loss draw identical to the uninterrupted run's.
        """
        version, internal, gauss = self._rng.getstate()
        return {
            "epoch_counter": self._epoch_counter,
            "rng": {"version": version, "state": list(internal), "gauss": gauss},
        }

    def restore_state(self, state: Dict) -> None:
        """Restore a boundary snapshot onto a freshly constructed simulator."""
        self._epoch_counter = int(state["epoch_counter"])
        rng = state["rng"]
        self._rng.setstate((rng["version"], tuple(rng["state"]), rng["gauss"]))


def build_testbed_simulator(
    resources=None,
    config=None,
    seed: int = 0,
    prime: Optional[int] = None,
    topology: Optional[FatTreeTopology] = None,
) -> NetworkSimulator:
    """Convenience constructor: a fat-tree (the testbed's by default) with a
    ChameleMon data plane on every edge switch, all sharing hash seeds (so
    encoders can be summed)."""
    from ..dataplane.config import SwitchResources
    from ..sketches.fermat import MERSENNE_PRIME_127

    topology = topology or FatTreeTopology.testbed()
    simulator = NetworkSimulator(topology, seed=seed)
    resources = resources or SwitchResources()
    prime = prime or MERSENNE_PRIME_127
    for node in topology.edge_switches:
        switch = EdgeSwitch(
            node, resources=resources, config=config, base_seed=seed, prime=prime
        )
        simulator.attach_switch(node, switch)
    return simulator
