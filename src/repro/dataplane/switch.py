"""The ChameleMon data plane of one edge switch.

An edge switch runs three components in sequence for every packet entering the
network — the flow classifier, then the upstream flow encoder — and one
component for every packet exiting the network — the downstream flow encoder.
Two groups of sketches alternate between epochs (the 1-bit flipping timestamp
of appendix B): while one group monitors the current epoch, the other is
collected by the controller and then rebuilt with whatever configuration the
controller staged for the next epoch.

Packets are processed for many switches at once: :func:`process_upstream`
and :func:`process_downstream` take a sequence of switches of one deployment
and a per-flow switch index, and evaluate every classifier and encoder hash
once for all of them.  A single switch is the one-element case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..sketches.fermat import MERSENNE_PRIME_127
from ..sketches.hashing import KeyArray
from .classifier import ClassifiedBatch, FlowClassifier, classify_flows
from .config import MonitoringConfig, SwitchResources
from .encoder import DownstreamFlowEncoder, PartHashes, UpstreamFlowEncoder, encode_part
from .hierarchy import FlowHierarchy

#: A flow's per-epoch hierarchy breakdown: ordered (hierarchy, packet count)
#: segments, as computed at the ingress switch and carried in packet headers.
HierarchySegments = List[Tuple[FlowHierarchy, int]]


@dataclass
class SketchGroup:
    """One group of sketches (classifier + both encoders) for one timestamp value."""

    classifier: FlowClassifier
    upstream: UpstreamFlowEncoder
    downstream: DownstreamFlowEncoder
    config: MonitoringConfig
    epoch_index: Optional[int] = None

    def memory_bytes(self) -> int:
        return (
            self.classifier.memory_bytes()
            + self.upstream.memory_bytes()
            + self.downstream.memory_bytes()
        )


@dataclass
class EpochStatistics:
    """Light bookkeeping the switch keeps per epoch (for reporting only)."""

    packets_upstream: int = 0
    packets_downstream: int = 0
    flows_seen: int = 0
    per_hierarchy_packets: Dict[FlowHierarchy, int] = field(
        default_factory=lambda: {hierarchy: 0 for hierarchy in FlowHierarchy}
    )


class EdgeSwitch:
    """One edge switch of the testbed running the ChameleMon data plane."""

    def __init__(
        self,
        switch_id,
        resources: Optional[SwitchResources] = None,
        config: Optional[MonitoringConfig] = None,
        base_seed: int = 0,
        prime: int = MERSENNE_PRIME_127,
    ) -> None:
        self.switch_id = switch_id
        self.resources = resources or SwitchResources()
        self._base_seed = base_seed
        self._prime = prime
        initial = config or self.resources.initial_config()
        self._pending_config: MonitoringConfig = initial
        self._active: SketchGroup = self._build_group(initial)
        self._active.epoch_index = 0
        self._epoch_index = 0
        self.stats = EpochStatistics()

    # ------------------------------------------------------------------ #
    # construction / rotation
    # ------------------------------------------------------------------ #
    def _build_group(self, config: MonitoringConfig) -> SketchGroup:
        classifier = FlowClassifier(self.resources, seed=self._base_seed)
        upstream = UpstreamFlowEncoder(
            config.layout, self.resources, base_seed=self._base_seed, prime=self._prime
        )
        downstream = DownstreamFlowEncoder(
            config.layout, self.resources, base_seed=self._base_seed, prime=self._prime
        )
        return SketchGroup(classifier, upstream, downstream, config)

    @property
    def config(self) -> MonitoringConfig:
        """The configuration governing the epoch currently being monitored."""
        return self._active.config

    @property
    def pending_config(self) -> MonitoringConfig:
        """The configuration that will govern the next epoch."""
        return self._pending_config

    @property
    def epoch_index(self) -> int:
        return self._epoch_index

    def apply_config(self, config: MonitoringConfig) -> None:
        """Stage a reconfiguration; it takes effect at the next epoch rotation.

        Mirrors the testbed behaviour: reconfiguration packets update
        match-action entries keyed on the *other* timestamp value, so they only
        influence the next epoch, never the one currently being monitored.
        """
        self.resources.validate_layout(config.layout)
        self._pending_config = config

    def end_epoch(self) -> SketchGroup:
        """End the current epoch and return its sketch group for collection.

        The switch keeps running with a stale group until :meth:`begin_epoch`
        installs the pending configuration; callers that want the combined
        behaviour can use :meth:`rotate_epoch`.
        """
        return self._active

    def begin_epoch(self) -> None:
        """Start a new epoch with whatever configuration is currently staged."""
        self._epoch_index += 1
        self._active = self._build_group(self._pending_config)
        self._active.epoch_index = self._epoch_index
        self.stats = EpochStatistics()

    def rotate_epoch(self) -> SketchGroup:
        """End the current epoch: return its sketch group and start a fresh one."""
        finished = self.end_epoch()
        self.begin_epoch()
        return finished

    # ------------------------------------------------------------------ #
    # service checkpoints
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """The switch state a service checkpoint must capture.

        Taken at an epoch boundary (after collection and ``apply_config``),
        the live sketch group is about to be discarded by the next
        :meth:`begin_epoch` rotation, so the pending configuration and the
        epoch counter fully determine the switch's future behaviour — groups
        are rebuilt deterministically from ``(_base_seed, config)``.
        """
        return {
            "epoch_index": self._epoch_index,
            "pending_config": self._pending_config.to_dict(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a boundary snapshot onto a freshly constructed switch."""
        config = MonitoringConfig.from_dict(state["pending_config"])
        self.resources.validate_layout(config.layout)
        self._pending_config = config
        self._epoch_index = int(state["epoch_index"])

    def memory_bytes(self) -> int:
        """Memory of the active group (the standby group mirrors it)."""
        return self._active.memory_bytes()

    def query_flow_size(self, flow_id: int) -> int:
        """Online per-flow size query against the active classifier."""
        return self._active.classifier.query(flow_id)


# --------------------------------------------------------------------------- #
# packet processing: one pass over all switches
# --------------------------------------------------------------------------- #
def _per_switch(owner: np.ndarray, values: np.ndarray, num: int) -> List[int]:
    """``values`` summed per switch (exact: packet counts stay far below 2**53)."""
    return np.bincount(owner, weights=values, minlength=num).astype(np.int64).tolist()


def process_upstream(
    switches: Sequence[EdgeSwitch],
    owner: np.ndarray,
    flow_ids: Union[Sequence[int], np.ndarray, KeyArray],
    sizes: Union[Sequence[int], np.ndarray],
) -> ClassifiedBatch:
    """Classify and upstream-encode flows entering the network, all switches at once.

    Flow ``r`` enters at ``switches[owner[r]]``, and each switch sees its
    flows in batch order.  The switches must be one deployment (same
    resources, seed, prime and active configuration), so every hash runs
    once over all flows: the classifier levels and the sample hash here, and
    each encoder part's fingerprint and bucket hashes over the flows that
    part encodes.  The result is bit-identical to sending each switch's
    packets through its classifier and upstream encoder one at a time.  The
    returned batch holds each flow's hierarchy split, which the simulator
    carries to the egress switch (the testbed carries the hierarchy in ToS
    bits / INT metadata), and the HL and LL parts' hashes for
    :func:`process_downstream`.
    """
    groups = [switch._active for switch in switches]
    owner = np.asarray(owner, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    batch = classify_flows(
        [group.classifier for group in groups], owner, flow_ids, sizes, groups[0].config
    )
    num = len(switches)
    active = sizes > 0
    ll_sampled = np.where(batch.sampled, batch.ll, 0)
    totals = zip(
        _per_switch(owner[active], sizes[active], num),
        np.bincount(owner[active], minlength=num).tolist(),
        _per_switch(owner, batch.hh, num),
        _per_switch(owner, batch.hl, num),
        _per_switch(owner, ll_sampled, num),
        _per_switch(owner, batch.ll - ll_sampled, num),
    )
    for switch, (packets, flows, hh, hl, sampled_ll, non_sampled_ll) in zip(switches, totals):
        stats = switch.stats
        stats.packets_upstream += packets
        stats.flows_seen += flows
        per_hierarchy = stats.per_hierarchy_packets
        per_hierarchy[FlowHierarchy.HH_CANDIDATE] += hh
        per_hierarchy[FlowHierarchy.HL_CANDIDATE] += hl
        per_hierarchy[FlowHierarchy.SAMPLED_LL] += sampled_ll
        per_hierarchy[FlowHierarchy.NON_SAMPLED_LL] += non_sampled_ll
    # The HL part also takes HH packets downstream, so it hashes both tiers.
    for name, counts, hashed in (
        ("hh", batch.hh, batch.hh > 0),
        ("hl", batch.hl, (batch.hl > 0) | (batch.hh > 0)),
        ("ll", ll_sampled, ll_sampled > 0),
    ):
        parts = [group.upstream.parts.part(name) for group in groups]
        if parts[0] is None:
            continue
        hashes = PartHashes.of(parts[0], batch.keys, np.flatnonzero(hashed))
        if name != "hh":
            batch.hashes[name] = hashes
        rows = np.flatnonzero(counts > 0)
        encode_part(parts, owner[rows], rows, counts[rows], hashes)
    return batch


def process_downstream(
    switches: Sequence[EdgeSwitch], owner: np.ndarray, batch: ClassifiedBatch
) -> None:
    """Downstream-encode delivered packets, all egress switches at once.

    Flow ``r`` exits at ``switches[owner[r]]`` with the (loss-reduced)
    hierarchy split ``batch`` carries from its ingress switch.  HH and HL
    packets go to the HL part as one count per flow, sampled LL packets to
    the LL part; non-sampled LL packets are counted but not encoded.  The
    parts reuse the hashes ``batch`` carries from :func:`process_upstream`.
    """
    groups = [switch._active for switch in switches]
    owner = np.asarray(owner, dtype=np.int64)
    delivered = batch.ll + batch.hl + batch.hh
    packets = _per_switch(owner, delivered, len(switches))
    for switch, count in zip(switches, packets):
        switch.stats.packets_downstream += count
    for name, counts in (
        ("hl", batch.hl + batch.hh),
        ("ll", np.where(batch.sampled, batch.ll, 0)),
    ):
        parts = [group.downstream.parts.part(name) for group in groups]
        if parts[0] is None:
            continue
        rows = np.flatnonzero(counts > 0)
        encode_part(parts, owner[rows], rows, counts[rows], batch.hashes[name])
