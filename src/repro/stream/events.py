"""Declarative event schedules: live network-state changes between epochs.

An :class:`EventSchedule` lists events pinned to epoch indices; the
:class:`~repro.stream.engine.StreamingEngine` applies each epoch's events to
its :class:`NetworkConditions` *before* that epoch's traffic is produced, so
a change takes effect exactly at its epoch boundary — the streaming analogue
of the paper's "network state changes" that attention shifting reacts to.

Three families of events cover the streaming scenarios:

* :class:`LinkFailureEvent` / :class:`LinkRecoveryEvent` — install or clear a
  :class:`~repro.network.faults.LinkFailure` on the fabric.  While installed,
  every flow whose ECMP path crosses the link accrues the fault's loss rate
  *on top of* any source-assigned (ECN-style) victim losses.
* :class:`LossRateShiftEvent` — override the loss rate of the source's victim
  flows (a loss-phase shift); ``None`` restores the source's own rates.
* :class:`FlowBurstEvent` — inject extra flows for a bounded number of epochs
  (a tenant flash crowd), generated deterministically per epoch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..network.faults import LinkFailure
from ..network.routing import EcmpRouter
from ..network.topology import FatTreeTopology, NodeId
from ..traffic.flow import Trace, TraceColumns
from ..traffic.generator import generate_workload, sample_binomial


@dataclass(frozen=True)
class StreamEvent:
    """Base event: applied just before ``epoch``'s traffic is produced."""

    epoch: int


@dataclass(frozen=True)
class LinkFailureEvent(StreamEvent):
    """Install a (possibly grey) link failure from this epoch onward."""

    endpoint_a: NodeId = ("edge", 0)
    endpoint_b: NodeId = ("host", 0)
    loss_rate: float = 1.0

    def __post_init__(self) -> None:
        # Checked here, not in the engine: it builds the fault lazily, when
        # the event's epoch comes round mid-run.
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")

    def fault(self) -> LinkFailure:
        return LinkFailure(self.endpoint_a, self.endpoint_b, self.loss_rate)


@dataclass(frozen=True)
class LinkRecoveryEvent(StreamEvent):
    """Clear every failure previously installed on the given link."""

    endpoint_a: NodeId = ("edge", 0)
    endpoint_b: NodeId = ("host", 0)


@dataclass(frozen=True)
class LossRateShiftEvent(StreamEvent):
    """Re-draw victim losses at a new rate from this epoch on (None: restore)."""

    loss_rate: Optional[float] = None


@dataclass(frozen=True)
class FlowBurstEvent(StreamEvent):
    """Add ``extra_flows`` synthetic flows for ``duration`` epochs."""

    extra_flows: int = 0
    duration: int = 1
    workload: str = "DCTCP"
    victim_ratio: float = 0.0
    loss_rate: float = 0.05


class EventSchedule:
    """An immutable schedule of events, looked up by epoch index."""

    def __init__(self, events: Iterable[StreamEvent] = ()) -> None:
        self._by_epoch: Dict[int, List[StreamEvent]] = {}
        for event in events:
            if event.epoch < 0:
                raise ValueError(f"event epoch must be >= 0, got {event.epoch}")
            self._by_epoch.setdefault(event.epoch, []).append(event)

    def __len__(self) -> int:
        return sum(len(events) for events in self._by_epoch.values())

    def at(self, epoch: int) -> Tuple[StreamEvent, ...]:
        """Events that fire at the boundary into ``epoch`` (stable order)."""
        return tuple(self._by_epoch.get(epoch, ()))

    def last_epoch(self) -> int:
        return max(self._by_epoch, default=-1)

    def fingerprint(self) -> str:
        """A stable digest of the schedule, for checkpoint validation.

        A resumed run must replay the *same* schedule as the interrupted one
        (the engine re-derives its generation-side state by fast-forwarding
        through it), so service checkpoints store this digest and refuse to
        resume against a different schedule.
        """
        payload = [
            {"type": type(event).__name__,
             **{f.name: getattr(event, f.name) for f in dataclasses.fields(event)}}
            for epoch in sorted(self._by_epoch)
            for event in self._by_epoch[epoch]
        ]
        blob = json.dumps(payload, sort_keys=True, default=list).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


class NetworkConditions:
    """The mutable network state an event schedule manipulates.

    Owned by the engine's *generation* side: events mutate it, and
    :meth:`transform` rewrites each freshly produced trace accordingly.  It
    keeps its own :class:`EcmpRouter` (seeded like the simulator's, hence
    identical paths), and analysis never reads its state.  That is what lets
    a resumed run rebuild it with :meth:`fast_forward` instead of storing it
    in the checkpoint.
    """

    def __init__(self, topology: FatTreeTopology, seed: int = 0) -> None:
        self.topology = topology
        self.router = EcmpRouter(topology, seed=seed)
        self.seed = seed
        self.active_faults: List[LinkFailure] = []
        self.loss_rate_override: Optional[float] = None
        self._bursts: List[List] = []  # [remaining_epochs, FlowBurstEvent]

    # ------------------------------------------------------------------ #
    def apply_events(self, events: Sequence[StreamEvent]) -> None:
        for event in events:
            if isinstance(event, LinkFailureEvent):
                self.active_faults.append(event.fault())
            elif isinstance(event, LinkRecoveryEvent):
                link = {event.endpoint_a, event.endpoint_b}
                self.active_faults = [
                    fault
                    for fault in self.active_faults
                    if {fault.endpoint_a, fault.endpoint_b} != link
                ]
            elif isinstance(event, LossRateShiftEvent):
                self.loss_rate_override = event.loss_rate
            elif isinstance(event, FlowBurstEvent):
                if event.extra_flows > 0 and event.duration > 0:
                    self._bursts.append([event.duration, event])
            else:
                raise TypeError(f"unknown stream event {type(event).__name__}")

    # ------------------------------------------------------------------ #
    def fast_forward(self, schedule: "EventSchedule", epochs: int) -> None:
        """Replay ``epochs`` epochs of event effects without producing traffic.

        Resuming a checkpointed run rebuilds the generation-side state — the
        active faults, the loss override, and each burst's remaining-epoch
        countdown — by replaying the schedule up to (but not including) the
        resume epoch.  Burst countdowns decrement exactly where
        :meth:`_burst_columns` would have: once per produced epoch.  Burst
        *traffic* does not need regenerating (its RNG is keyed purely on
        ``(seed, event.epoch, epoch)``), so this is O(events), not O(run).
        """
        for epoch in range(epochs):
            self.apply_events(schedule.at(epoch))
            for entry in self._bursts:
                entry[0] -= 1
            self._bursts = [entry for entry in self._bursts if entry[0] > 0]

    # ------------------------------------------------------------------ #
    def transform(self, trace: Trace, epoch: int) -> Trace:
        """Apply bursts, loss-phase shifts, and active faults to one epoch.

        Column-native: burst traffic is concatenated column-wise and the loss
        overlays rewrite the victim/loss columns of a fresh copy — the input
        trace (possibly a frozen mmap view from the binary epoch store) is
        never mutated.  RNG draw order matches the historical row-by-row
        implementation exactly: one :func:`sample_binomial` draw per affected
        flow, in trace order, shifts before fault overlays.
        """
        if (
            not self._bursts
            and self.loss_rate_override is None
            and not self.active_faults
        ):
            return trace
        rng = random.Random((self.seed << 20) ^ (epoch * 2 + 1))
        parts = [trace.columns()] + self._burst_columns(epoch)
        columns = TraceColumns.concat(parts) if len(parts) > 1 else parts[0]
        is_victim = columns.is_victim.copy()
        loss_rate = columns.loss_rate.copy()
        lost_packets = columns.lost_packets.copy()
        sizes = columns.sizes.tolist()
        if self.loss_rate_override is not None:
            rate = self.loss_rate_override
            for index in np.nonzero(is_victim)[0].tolist():
                size = sizes[index]
                loss_rate[index] = rate
                lost_packets[index] = max(
                    1, min(size, sample_binomial(rng, size, rate))
                )
        if self.active_faults:
            self._overlay_faults_columns(
                columns, is_victim, loss_rate, lost_packets, sizes, rng
            )
        return Trace(
            columns=columns.with_loss_state(is_victim, loss_rate, lost_packets)
        )

    def _burst_columns(self, epoch: int) -> List[TraceColumns]:
        extra: List[TraceColumns] = []
        for entry in self._bursts:
            remaining, event = entry
            if remaining <= 0:
                continue
            burst = generate_workload(
                event.workload,
                num_flows=event.extra_flows,
                victim_ratio=event.victim_ratio,
                loss_rate=event.loss_rate,
                num_hosts=self.topology.num_hosts,
                seed=(self.seed << 16) ^ (event.epoch << 8) ^ epoch,
            )
            extra.append(burst.columns())
            entry[0] = remaining - 1
        self._bursts = [entry for entry in self._bursts if entry[0] > 0]
        return extra

    def _overlay_faults_columns(
        self,
        columns: TraceColumns,
        is_victim: np.ndarray,
        loss_rate: np.ndarray,
        lost_packets: np.ndarray,
        sizes: List[int],
        rng: random.Random,
    ) -> None:
        """Add fault-induced losses *on top of* source-assigned victim losses.

        Unlike :func:`repro.network.faults.apply_faults` (which rewrites a
        batch trace's victim set from scratch), the streaming overlay keeps
        the source's ECN-style victims and compounds every crossing fault's
        loss rate into the flow's survival probability.
        """
        flow_ids = [int(i) for i in columns.flow_ids.tolist()]
        srcs = columns.src_hosts.tolist()
        dsts = columns.dst_hosts.tolist()
        num_hosts = self.topology.num_hosts
        for index, flow_id in enumerate(flow_ids):
            src = srcs[index] if srcs[index] >= 0 else 0
            dst = dsts[index] if dsts[index] >= 0 else (src + 1) % num_hosts
            path = self.router.path_for_flow(flow_id, src, dst)
            survival = 1.0 - loss_rate[index] if is_victim[index] else 1.0
            crossed = False
            for fault in self.active_faults:
                if fault.affects(path):
                    survival *= 1.0 - fault.loss_rate
                    crossed = True
            if not crossed:
                continue
            size = sizes[index]
            rate = 1.0 - survival
            is_victim[index] = True
            loss_rate[index] = rate
            lost_packets[index] = max(
                1, min(size, sample_binomial(rng, size, rate))
            )
