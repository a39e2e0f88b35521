"""The central controller: per-epoch analysis, state estimation, reconfiguration.

The controller glues the pieces of the control plane together.  Every epoch it

1. receives the collected sketch groups from every edge switch,
2. runs the packet-loss analysis and the packet-accumulation tasks,
3. builds a monitoring snapshot of the network state, and
4. asks the attention controller for the next epoch's configuration, which the
   caller (the :class:`~repro.core.runner.ChameleMon` façade or a bespoke
   experiment) installs on the switches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..dataplane.config import MonitoringConfig, SwitchResources
from ..dataplane.switch import SketchGroup
from ..obs.tracing import NULL_TRACER
from ..sketches.mrac import distribution_entropy
from .analysis import LossReport, SwitchId, packet_loss_detection
from .reconfig import AttentionController, NetworkLevel, ReconfigurationDecision
from .state import MonitoringSnapshot, build_snapshot
from .tasks import (
    SwitchView,
    build_views,
    cardinality_estimate,
    network_flow_size_distribution,
    network_heavy_hitters,
)


@dataclass
class EpochReport:
    """Everything the controller learned and decided in one epoch."""

    epoch_index: int
    config: MonitoringConfig
    loss_report: LossReport
    snapshot: MonitoringSnapshot
    decision: ReconfigurationDecision
    views: Dict[SwitchId, SwitchView] = field(default_factory=dict)
    heavy_hitters: Dict[int, int] = field(default_factory=dict)
    cardinality: float = 0.0
    entropy: float = 0.0
    flow_size_distribution: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # figure-7/8/9 style observables
    # ------------------------------------------------------------------ #
    @property
    def level(self) -> NetworkLevel:
        return self.decision.level

    def memory_division(self) -> Dict[str, float]:
        """Fraction of the upstream flow encoder given to each part."""
        layout = self.config.layout
        total = max(1, layout.m_uf)
        return {
            "hh": layout.m_hh / total,
            "hl": layout.m_hl / total,
            "ll": layout.m_ll / total,
        }

    def decoded_flow_counts(self) -> Dict[str, int]:
        """Decoded HH candidates (max over switches), HLs, and sampled LLs."""
        return {
            "hh": self.snapshot.max_hh_candidates(),
            "hl": len(self.loss_report.heavy_losses),
            "ll": len(self.loss_report.light_losses),
        }

    def upstream_load_factor(self) -> float:
        """Decoded flows per upstream bucket — the paper's utilisation measure."""
        layout = self.config.layout
        d = self.snapshot.num_ingress_switches
        total_buckets = layout.m_uf * self.views_num_arrays()
        decoded = (
            self.snapshot.max_hh_candidates()
            + len(self.loss_report.heavy_losses)
            + len(self.loss_report.light_losses)
        )
        return decoded / total_buckets if total_buckets else 0.0

    def views_num_arrays(self) -> int:
        for view in self.views.values():
            return view.group.upstream.resources.num_arrays
        return 3


class CentralController:
    """The ChameleMon central controller."""

    def __init__(
        self,
        resources: Optional[SwitchResources] = None,
        heavy_hitter_threshold: int = 500,
        target_load: float = 0.70,
        low_load: float = 0.60,
        distribution_iterations: int = 4,
        seed: int = 0,
    ) -> None:
        self.resources = resources or SwitchResources()
        self.heavy_hitter_threshold = heavy_hitter_threshold
        self.attention = AttentionController(
            self.resources, target_load=target_load, low_load=low_load
        )
        self.distribution_iterations = distribution_iterations
        self._rng = random.Random(seed)
        self._epoch_index = 0

    @property
    def level(self) -> NetworkLevel:
        return self.attention.level

    def process_epoch(
        self,
        groups: Mapping[SwitchId, SketchGroup],
        config: MonitoringConfig,
        compute_tasks: bool = True,
        destructive: bool = False,
        tracer: Optional[object] = None,
    ) -> EpochReport:
        """Analyse one epoch's sketches and decide the next configuration.

        ``destructive=True`` lets the loss analysis decode the collected HH
        encoders in place (no sketch copies); the accumulation tasks only read
        the classifiers and the decoded flowsets, so the reports are identical
        either way.  ``tracer`` (a :class:`~repro.obs.tracing.StageTracer`)
        times each analysis stage; it is observational only.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span("decode"):
            loss_report = packet_loss_detection(
                groups, destructive=destructive, tracer=tracer
            )
        hh_flowsets = {
            switch_id: decode.flowset
            for switch_id, decode in loss_report.hh_decodes.items()
        }
        views = build_views(groups, hh_flowsets)

        per_switch_flows = {
            switch_id: cardinality_estimate(view) for switch_id, view in views.items()
        }
        with tracer.span("mrac_em"):
            distribution = network_flow_size_distribution(
                views, iterations=self.distribution_iterations
            )
        with tracer.span("snapshot"):
            snapshot = build_snapshot(
                loss_report,
                views,
                config,
                per_switch_flows,
                flow_size_distribution=distribution,
                rng=self._rng,
            )
        with tracer.span("reconfig"):
            decision = self.attention.reconfigure(snapshot)

        report = EpochReport(
            epoch_index=self._epoch_index,
            config=config,
            loss_report=loss_report,
            snapshot=snapshot,
            decision=decision,
            views=dict(views),
            flow_size_distribution=distribution,
        )
        if compute_tasks:
            with tracer.span("tasks"):
                report.heavy_hitters = network_heavy_hitters(
                    views, self.heavy_hitter_threshold
                )
                # Cardinality and entropy read the same views as the snapshot
                # and the EM above, so their results are reused.
                report.cardinality = snapshot.total_flows_estimate
                report.entropy = distribution_entropy(distribution)
        self._epoch_index += 1
        return report

    # ------------------------------------------------------------------ #
    # service checkpoints
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """The controller state a service checkpoint must capture.

        Only the epoch counter, the attention level, and the sampling RNG
        (consumed by victim-population estimation when ``sample_rate`` drops
        below 1) are serialized.
        """
        version, internal, gauss = self._rng.getstate()
        return {
            "epoch_index": self._epoch_index,
            "level": self.attention.level.value,
            "rng": {"version": version, "state": list(internal), "gauss": gauss},
        }

    def restore_state(self, state: Dict) -> None:
        """Restore a boundary snapshot onto a freshly constructed controller."""
        self._epoch_index = int(state["epoch_index"])
        self.attention.level = NetworkLevel(state["level"])
        rng = state["rng"]
        self._rng.setstate((rng["version"], tuple(rng["state"]), rng["gauss"]))
