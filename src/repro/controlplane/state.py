"""Real-time network-state estimation (paper section 4.3, "Monitoring...").

Every epoch the controller distils the collected sketches into a
:class:`MonitoringSnapshot`: how many flows and victim flows there are, how
they are distributed over sizes, how full each encoder is, and whether each
decoding succeeded.  The reconfiguration engine consumes only this snapshot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..dataplane.config import MonitoringConfig
from .analysis import LossReport, SwitchId
from .tasks import SwitchView, network_flow_sizes


@dataclass
class MonitoringSnapshot:
    """Everything the attention-shifting logic needs to know about an epoch."""

    config: MonitoringConfig
    num_ingress_switches: int = 1

    # Flow population.
    total_flows_estimate: float = 0.0
    per_switch_flows: Dict[SwitchId, float] = field(default_factory=dict)
    flow_size_distribution: Dict[int, float] = field(default_factory=dict)

    # HH encoders.
    hh_decode_success: bool = True
    hh_candidates: Dict[SwitchId, int] = field(default_factory=dict)

    # Delta HL / LL encoders.
    hl_decode_success: bool = True
    ll_decode_success: bool = True
    num_heavy_losses: float = 0.0
    num_sampled_light_losses: float = 0.0

    # Victim-flow population (ill state only).
    victim_count_estimate: float = 0.0
    victim_size_distribution: Dict[int, float] = field(default_factory=dict)

    def max_hh_candidates(self) -> int:
        return max(self.hh_candidates.values(), default=0)

    def per_switch_flow_estimate(self) -> float:
        if self.per_switch_flows:
            return max(self.per_switch_flows.values())
        switches = max(1, self.num_ingress_switches)
        return self.total_flows_estimate / switches


def estimate_victim_population(
    loss_report: LossReport,
    views: Mapping[SwitchId, SwitchView],
    config: MonitoringConfig,
    rng: Optional[random.Random] = None,
) -> tuple[float, Dict[int, float]]:
    """Estimate the number and size distribution of victim flows (ill state).

    Follows the paper: sample the decoded HLs at the LL sample rate, merge
    them with the (already sampled) decoded LLs, look up each sampled victim's
    size in the classifiers, and scale counts by the inverse sample rate.  When
    the HL decoding failed, the LL flows alone provide the distribution.
    """
    rng = rng or random.Random(0)
    rate = config.sample_rate if config.sample_rate > 0 else 1.0

    sampled_victims: Dict[int, int] = {}
    if loss_report.hl_decode_success:
        for flow_id in loss_report.heavy_losses:
            if rate >= 1.0 or rng.random() < rate:
                sampled_victims[flow_id] = 0
    if loss_report.ll_decode_success:
        for flow_id in loss_report.light_losses:
            sampled_victims[flow_id] = 0

    distribution: Dict[int, float] = {}
    for size in network_flow_sizes(views, sampled_victims):
        size = max(1, size)
        distribution[size] = distribution.get(size, 0.0) + 1.0 / rate

    if loss_report.hl_decode_success:
        victim_count = len(sampled_victims) / rate
    else:
        # Only the LL side is usable; HLs are counted via linear counting.
        victim_count = loss_report.ll_flow_count_estimate / rate + loss_report.hl_flow_count_estimate
    return victim_count, distribution


def build_snapshot(
    loss_report: LossReport,
    views: Mapping[SwitchId, SwitchView],
    config: MonitoringConfig,
    per_switch_flows: Mapping[SwitchId, float],
    flow_size_distribution: Dict[int, float],
    num_ingress_switches: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> MonitoringSnapshot:
    """Assemble the monitoring snapshot of one epoch."""
    snapshot = MonitoringSnapshot(config=config)
    snapshot.num_ingress_switches = num_ingress_switches or max(1, len(views))
    snapshot.per_switch_flows = dict(per_switch_flows)
    snapshot.total_flows_estimate = float(sum(per_switch_flows.values()))
    snapshot.flow_size_distribution = dict(flow_size_distribution)

    snapshot.hh_decode_success = all(
        decode.success for decode in loss_report.hh_decodes.values()
    )
    snapshot.hh_candidates = {
        switch_id: decode.num_candidates
        for switch_id, decode in loss_report.hh_decodes.items()
    }

    snapshot.hl_decode_success = loss_report.hl_decode_success
    snapshot.ll_decode_success = loss_report.ll_decode_success
    snapshot.num_heavy_losses = (
        float(len(loss_report.heavy_losses))
        if loss_report.hl_decode_success
        else loss_report.hl_flow_count_estimate
    )
    snapshot.num_sampled_light_losses = (
        float(len(loss_report.light_losses))
        if loss_report.ll_decode_success
        else loss_report.ll_flow_count_estimate
    )

    victim_count, victim_distribution = estimate_victim_population(
        loss_report, views, config, rng=rng
    )
    # In the healthy state every victim is an HL, so the decoded HL count is
    # the better victim estimate; in the ill state the sampled estimate is used.
    if config.layout.m_ll == 0:
        snapshot.victim_count_estimate = snapshot.num_heavy_losses
    else:
        snapshot.victim_count_estimate = victim_count
    snapshot.victim_size_distribution = victim_distribution
    return snapshot
