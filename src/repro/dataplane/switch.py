"""The ChameleMon data plane of one edge switch.

An edge switch runs three components in sequence for every packet entering the
network — the flow classifier, then the upstream flow encoder — and one
component for every packet exiting the network — the downstream flow encoder.
Two groups of sketches alternate between epochs (the 1-bit flipping timestamp
of appendix B): while one group monitors the current epoch, the other is
collected by the controller and then rebuilt with whatever configuration the
controller staged for the next epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sketches.fermat import MERSENNE_PRIME_127
from .classifier import FlowClassifier
from .config import MonitoringConfig, SwitchResources
from .encoder import DownstreamFlowEncoder, UpstreamFlowEncoder
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

    # ------------------------------------------------------------------ #
    # packet processing
    # ------------------------------------------------------------------ #
    def process_flows_upstream_arrays(self, flow_ids, sizes) -> "ClassifiedBatch":
        """Process a batch of flows entering the network here, in array form.

        Equivalent to sending each flow's packets through the classifier and
        the upstream encoder one at a time, in batch order: the classifier
        resolves order-dependence with grouped prefix sums, and the
        per-hierarchy Fermat encoders ingest each hierarchy's segments in one
        vectorized insert (Fermat encoding is commutative).  The returned
        batch holds each flow's hierarchy split, which the simulator carries
        to the egress switch (the testbed carries the hierarchy in ToS bits /
        INT metadata).
        """
        group = self._active
        batch = group.classifier.classify_flows_arrays(flow_ids, sizes, group.config)
        self.stats.packets_upstream += batch.packets
        self.stats.flows_seen += batch.flows_seen
        per_hierarchy = self.stats.per_hierarchy_packets
        for hierarchy, total in batch.totals().items():
            per_hierarchy[hierarchy] += total
        for hierarchy, ids, counts in batch.grouped_arrays():
            group.upstream.encode_batch(hierarchy, ids, counts)
        return batch

    def process_flows_downstream_arrays(
        self,
        groups: List[Tuple[FlowHierarchy, "np.ndarray", "np.ndarray"]],
        packets: int,
    ) -> None:
        """Process packets exiting the network here, pre-grouped as
        ``(hierarchy, ids, counts)`` from the loss-reduced hierarchy split
        carried from the ingress switch.

        ``packets`` is the total delivered packet count across the groups
        (including non-sampled LL, which is counted but never encoded).
        """
        group = self._active
        self.stats.packets_downstream += packets
        for hierarchy, ids, counts in groups:
            if len(ids):
                group.downstream.encode_batch(hierarchy, ids, counts)

    def query_flow_size(self, flow_id: int) -> int:
        """Online per-flow size query against the active classifier."""
        return self._active.classifier.query(flow_id)
