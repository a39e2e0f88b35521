"""Figure 7, 8 and 14–19 experiment drivers: shifting measurement attention.

The paper's testbed evaluation has two protocols:

* **Sweeps** (Figures 7, 8, 14–19): for each x-value (number of flows, or
  ratio of victim flows) run the same workload epoch after epoch until the
  configuration stabilises, then record the memory division, the decoded flow
  counts, the thresholds and the sample rate.
* **Timeline** (Figure 9): one long window over a schedule of network
  states.  It is not driven here: it is the ``fig9`` scenario
  (:mod:`repro.scenarios.catalog`), which runs on the streaming engine like
  ``stream_timeline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.runner import ChameleMon
from ..dataplane.config import SwitchResources
from ..traffic.generator import generate_workload


@dataclass
class AttentionPoint:
    """One stable data point of an attention sweep."""

    x_value: float
    num_flows: int
    victim_ratio: float
    level: str
    memory_division: Dict[str, float]
    decoded_flows: Dict[str, int]
    threshold_high: int
    threshold_low: int
    sample_rate: float
    load_factor: float
    loss_f1: float
    epochs_to_stabilise: int


@dataclass
class AttentionSweep:
    """All points of one sweep (one sub-figure column)."""

    workload: str
    points: List[AttentionPoint] = field(default_factory=list)

    def series(self, attribute: str) -> List[Tuple[float, object]]:
        return [(point.x_value, getattr(point, attribute)) for point in self.points]


def stable_point(
    workload: str,
    num_flows: int,
    victim_ratio: float,
    x_value: float,
    resources: SwitchResources,
    loss_rate: float,
    seed: int,
    max_epochs: int,
) -> AttentionPoint:
    """Run one workload until the configuration stabilises; record the point.

    This is the unit of work of every attention sweep (Figures 7/8/14-19):
    the sweep drivers and the scenario registry both call it once per x-value.
    """
    system = ChameleMon(resources=resources, seed=seed)

    def trace_factory(epoch: int):
        return generate_workload(
            workload,
            num_flows=num_flows,
            victim_ratio=victim_ratio,
            loss_rate=loss_rate,
            num_hosts=system.num_hosts,
            seed=seed + epoch,
        )

    results = system.run_until_stable(trace_factory, max_epochs=max_epochs)
    final = results[-1]
    return AttentionPoint(
        x_value=x_value,
        num_flows=num_flows,
        victim_ratio=victim_ratio,
        level=final.level.value,
        memory_division=final.memory_division(),
        decoded_flows=final.decoded_flow_counts(),
        threshold_high=final.config.threshold_high,
        threshold_low=final.config.threshold_low,
        sample_rate=final.config.sample_rate,
        load_factor=final.report.upstream_load_factor(),
        loss_f1=final.loss_accuracy()["f1"],
        epochs_to_stabilise=len(results),
    )


def sweep_num_flows(
    workload: str = "DCTCP",
    flow_counts: Sequence[int] = (1000, 2000, 4000, 6000, 8000, 10000),
    victim_ratio: float = 0.10,
    loss_rate: float = 0.05,
    scale: float = 0.1,
    resources: Optional[SwitchResources] = None,
    seed: int = 0,
    max_epochs: int = 8,
) -> AttentionSweep:
    """Figure 7 / 14 / 16 / 18: attention vs. the number of flows.

    ``scale`` shrinks both the switch resources and the flow counts relative
    to the paper (scale 1.0 with 10K–100K flows reproduces the testbed sizes).
    """
    resources = resources or SwitchResources.scaled(scale)
    sweep = AttentionSweep(workload=workload)
    for num_flows in flow_counts:
        sweep.points.append(
            stable_point(
                workload,
                num_flows=num_flows,
                victim_ratio=victim_ratio,
                x_value=float(num_flows),
                resources=resources,
                loss_rate=loss_rate,
                seed=seed,
                max_epochs=max_epochs,
            )
        )
    return sweep


def sweep_victim_ratio(
    workload: str = "DCTCP",
    victim_ratios: Sequence[float] = (0.025, 0.05, 0.10, 0.15, 0.20, 0.25),
    num_flows: int = 5000,
    loss_rate: float = 0.05,
    scale: float = 0.1,
    resources: Optional[SwitchResources] = None,
    seed: int = 0,
    max_epochs: int = 8,
) -> AttentionSweep:
    """Figure 8 / 15 / 17 / 19: attention vs. the ratio of victim flows."""
    resources = resources or SwitchResources.scaled(scale)
    sweep = AttentionSweep(workload=workload)
    for ratio in victim_ratios:
        sweep.points.append(
            stable_point(
                workload,
                num_flows=num_flows,
                victim_ratio=ratio,
                x_value=100.0 * ratio,
                resources=resources,
                loss_rate=loss_rate,
                seed=seed,
                max_epochs=max_epochs,
            )
        )
    return sweep
