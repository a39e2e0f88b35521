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

Loss draws use *counter-based* RNG sub-streams: every victim flow's draws are
a pure function of ``(simulator seed, epoch index, trace position)``, so any
partition of the trace — one batch per switch, or sharded across worker
processes — produces bit-identical loss placement.  This is the same
derive-before-dispatch seeding discipline ``SweepRunner`` uses for sweep
points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dataplane.hierarchy import FlowHierarchy
from ..dataplane.switch import EdgeSwitch, HierarchySegments
from ..obs.tracing import NULL_TRACER
from ..traffic.flow import Trace, TraceColumns
from .routing import EcmpRouter
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
# column-level epoch helpers (shared by the serial epoch and the shard workers)
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


def downstream_groups(
    flow_ids: np.ndarray,
    ll_all: np.ndarray,
    hl_all: np.ndarray,
    hh_all: np.ndarray,
    sampled_all: np.ndarray,
    egress_mask: np.ndarray,
) -> Tuple[list, int]:
    """Pre-grouped (hierarchy, ids, counts) for one egress switch.

    Groups come in a fixed order (HH, HL, sampled-LL, non-sampled-LL), so
    every partition of the egress switches inserts identically.
    """
    s_ll = FlowHierarchy.SAMPLED_LL
    ns_ll = FlowHierarchy.NON_SAMPLED_LL
    hl_h = FlowHierarchy.HL_CANDIDATE
    hh_h = FlowHierarchy.HH_CANDIDATE
    groups = []
    packets = 0
    for hierarchy, mask, counts in (
        (hh_h, egress_mask & (hh_all > 0), hh_all),
        (hl_h, egress_mask & (hl_all > 0), hl_all),
        (s_ll, egress_mask & sampled_all & (ll_all > 0), ll_all),
        (ns_ll, egress_mask & ~sampled_all & (ll_all > 0), ll_all),
    ):
        if mask.any():
            selected = counts[mask]
            groups.append((hierarchy, flow_ids[mask], selected))
            packets += int(selected.sum())
    return groups, packets


class NetworkSimulator:
    """Replays traffic over the fat-tree and drives the edge-switch data planes."""

    def __init__(
        self,
        topology: Optional[FatTreeTopology] = None,
        switches: Optional[Dict[NodeId, EdgeSwitch]] = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology or FatTreeTopology.testbed()
        self.router = EcmpRouter(self.topology, seed=seed)
        self.switches: Dict[NodeId, EdgeSwitch] = switches or {}
        self._seed = seed
        self._rng = random.Random(seed)
        self._epoch_counter = 0
        self._shard_pool = None
        #: Chaos wiring (set by the engine): a FaultInjector arming shard
        #: faults, the shared ChaosMonitor, and the pool SupervisionPolicy.
        #: All three default to None — the fault-free fast path is unchanged.
        self.chaos = None
        self.monitor = None
        self.supervision = None
        #: Sketch-delta bytes merged centrally in the last sharded epoch
        #: (0 for serial epochs); read by the engine's metrics instruments.
        self.last_merge_bytes = 0
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
    def run_epoch(
        self,
        trace: Trace,
        shards: Optional[int] = None,
        tracer: Optional[object] = None,
    ) -> EpochTruth:
        """Replay a whole trace as one epoch and return its ground truth.

        Flows are grouped per ingress/egress edge switch, classified and
        encoded with the NumPy sketch backend, and losses are drawn per
        segment.  ``shards=N`` fans the epoch out over a persistent worker
        pool (one shard owns a set of edge switches) and merges the
        shard-local sketches centrally.  Both produce bit-identical sketch
        state and ground truth: loss draws are keyed on (seed, epoch, trace
        position), never on execution order.

        A flow ID that appears several times in the trace accumulates into the
        ground truth (sizes and losses are summed), matching what the sketches
        record.
        """
        epoch = self._epoch_counter
        key = epoch_loss_key(self._seed, epoch)
        self._epoch_counter += 1
        self.last_merge_bytes = 0
        if shards is not None and shards > 0:
            return self._run_epoch_sharded(trace, int(shards), key, tracer, epoch)
        return self._run_epoch_batched(trace, key, tracer)

    def _run_epoch_batched(
        self, trace: Trace, key: int, tracer: Optional[object] = None
    ) -> EpochTruth:
        """Vectorized epoch replay in this process.

        Upstream processing is grouped per ingress switch (each switch's flows
        keep their trace order, and switches do not share classifier state, so
        the grouping preserves every classification decision); loss draws are
        keyed on each victim's trace position; downstream processing is
        grouped per egress switch.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        truth = EpochTruth()
        columns = trace.columns()
        num_flows = len(columns)
        if num_flows == 0:
            return truth
        ingress, egress = endpoint_switch_indices(
            columns, self.topology.num_hosts, self.host_edge
        )
        accumulate_truth(truth, columns, ingress, self.edge_nodes)
        flow_ids = columns.flow_ids
        sizes = columns.sizes
        # Upstream: one batch per ingress switch; each switch's flows keep
        # their trace order, so every classification decision is preserved.
        ll_all = np.zeros(num_flows, dtype=np.int64)
        hl_all = np.zeros(num_flows, dtype=np.int64)
        hh_all = np.zeros(num_flows, dtype=np.int64)
        sampled_all = np.zeros(num_flows, dtype=bool)
        with tracer.span("classify_encode"):
            for index, node in enumerate(self.edge_nodes):
                positions = np.nonzero(ingress == index)[0]
                if not positions.size:
                    continue
                switch = self.switches.get(node)
                if switch is None:
                    raise KeyError(
                        f"no ChameleMon data plane attached to edge switch {node}"
                    )
                batch = switch.process_flows_upstream_arrays(
                    flow_ids[positions], sizes[positions]
                )
                ll_all[positions] = batch.ll
                hl_all[positions] = batch.hl
                hh_all[positions] = batch.hh
                sampled_all[positions] = batch.sampled
        victim_positions = np.nonzero(columns.is_victim & (columns.lost_packets > 0))[0]
        with tracer.span("loss_apply"):
            apply_victim_losses(
                key,
                victim_positions,
                columns.lost_packets[victim_positions],
                ll_all,
                hl_all,
                hh_all,
                sampled_all,
            )
        # Downstream: one batch per egress switch, pre-grouped per hierarchy.
        with tracer.span("downstream_encode"):
            for index, node in enumerate(self.edge_nodes):
                egress_mask = egress == index
                if not egress_mask.any():
                    continue
                switch = self.switches.get(node)
                if switch is None:
                    raise KeyError(
                        f"no ChameleMon data plane attached to edge switch {node}"
                    )
                groups, packets = downstream_groups(
                    flow_ids, ll_all, hl_all, hh_all, sampled_all, egress_mask
                )
                switch.process_flows_downstream_arrays(groups, packets)
        return truth

    # ------------------------------------------------------------------ #
    # sharded execution
    # ------------------------------------------------------------------ #
    def _run_epoch_sharded(
        self,
        trace: Trace,
        shards: int,
        key: int,
        tracer: Optional[object] = None,
        epoch: int = 0,
    ) -> EpochTruth:
        """Fan one epoch out over the persistent shard pool and merge centrally."""
        tracer = tracer if tracer is not None else NULL_TRACER
        truth = EpochTruth()
        columns = trace.columns()
        if len(columns) == 0:
            return truth
        self._require_fresh_switches()
        from ..dataplane.sharded import merge_node_deltas

        pool = self._ensure_shard_pool(shards)
        ingress, _ = endpoint_switch_indices(
            columns, self.topology.num_hosts, self.host_edge
        )
        accumulate_truth(truth, columns, ingress, self.edge_nodes)
        configs = {node: switch.config for node, switch in self.switches.items()}
        faults = (
            self.chaos.shard_faults(epoch, shards) if self.chaos is not None else ()
        )
        try:
            up_deltas, down_deltas, shard_spans = pool.run_epoch(
                columns, key, configs, with_spans=tracer.enabled,
                epoch=epoch, faults=faults,
            )
        except Exception:
            # A failed sharded epoch leaves workers/buffers in an undefined
            # state; tear the pool down so the next run starts clean.
            self.close()
            raise
        if shard_spans:
            # Workers timed their phases on their own monotonic clocks and
            # shipped plain span dicts with the deltas; adopt them here.
            tracer.ingest(shard_spans)
        with tracer.span("merge"):
            self.last_merge_bytes = merge_node_deltas(
                self.switches, up_deltas, down_deltas
            )
        return truth

    def _require_fresh_switches(self) -> None:
        """Sharded epochs rebuild each switch's sketches from scratch in the
        workers and merge into the central (empty) groups; state carried over
        from an unrotated epoch would silently diverge from the serial path."""
        for node, switch in self.switches.items():
            stats = switch.stats
            if stats.packets_upstream or stats.packets_downstream or stats.flows_seen:
                raise ValueError(
                    f"sharded run_epoch needs freshly rotated switches, but "
                    f"{node} already has traffic this epoch; call rotate_all() "
                    f"(or begin_epoch()) first, or run without shards"
                )

    def _ensure_shard_pool(self, shards: int):
        if self._shard_pool is not None and self._shard_pool.num_shards != shards:
            self.close()
        if self._shard_pool is None:
            from ..dataplane.sharded import ShardPool

            self._shard_pool = ShardPool.for_simulator(
                self, shards, supervision=self.supervision, monitor=self.monitor
            )
        return self._shard_pool

    @property
    def shard_pool(self):
        """The persistent shard pool, if a sharded epoch has run (else None)."""
        return self._shard_pool

    # ------------------------------------------------------------------ #
    # service checkpoints
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """The simulator state a service checkpoint must capture.

        The epoch counter keys the counter-based loss sub-streams
        (:func:`epoch_loss_key`), so restoring it makes every post-resume
        loss draw identical to the uninterrupted run's — for any shard
        count, since the draws are partition-independent by construction.
        The shard pool itself is *not* checkpointed: workers are stateless
        between epochs and the pool is rebuilt lazily on the next epoch.
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

    def close(self) -> None:
        """Shut down the shard pool (workers and shared-memory buffers)."""
        if self._shard_pool is not None:
            try:
                self._shard_pool.close()
            finally:
                self._shard_pool = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    def rotate_all(self) -> Dict[NodeId, "object"]:
        """Rotate every edge switch to a new epoch; return the finished groups."""
        return {node: switch.rotate_epoch() for node, switch in self.switches.items()}


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
