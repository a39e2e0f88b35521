"""The ChameleMon façade: data plane + control plane + network in one object.

:class:`ChameleMon` wires together the fat-tree simulator, one edge-switch
data plane per ToR switch, and the central controller, and exposes the
epoch-by-epoch measurement loop the paper's testbed runs:

1. traffic of the epoch is replayed through the data planes,
2. the epoch ends, the sketch groups rotate and are collected,
3. the controller analyses them (loss detection + accumulation tasks),
4. the controller reconfigures the data plane for the *next* epoch.

The façade also keeps the per-epoch ground truth produced by the simulator so
that experiments can score accuracy without extra bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..controlplane.controller import CentralController, EpochReport
from ..controlplane.reconfig import NetworkLevel
from ..dataplane.config import MonitoringConfig, SwitchResources
from ..metrics.accuracy import loss_detection_accuracy
from ..network.simulator import EpochTruth, NetworkSimulator, build_testbed_simulator
from ..obs.tracing import NULL_TRACER
from ..sketches.fermat import MERSENNE_PRIME_127
from ..traffic.flow import Trace


@dataclass
class EpochResult:
    """One epoch's controller report together with the simulator ground truth."""

    report: EpochReport
    truth: EpochTruth

    @property
    def level(self) -> NetworkLevel:
        return self.report.level

    @property
    def config(self) -> MonitoringConfig:
        return self.report.config

    @property
    def next_config(self) -> MonitoringConfig:
        return self.report.decision.config

    def loss_accuracy(self) -> Dict[str, float]:
        """Precision / recall / F1 / ARE of the epoch's loss detection."""
        return loss_detection_accuracy(self.truth.losses, self.report.loss_report.all_losses())

    def memory_division(self) -> Dict[str, float]:
        return self.report.memory_division()

    def decoded_flow_counts(self) -> Dict[str, int]:
        return self.report.decoded_flow_counts()


@dataclass
class ChameleMon:
    """A complete ChameleMon deployment on the simulated testbed."""

    resources: SwitchResources = field(default_factory=SwitchResources)
    seed: int = 0
    heavy_hitter_threshold: int = 500
    prime: int = MERSENNE_PRIME_127
    compute_tasks: bool = False
    distribution_iterations: int = 2
    #: ``None`` retains every EpochResult (batch experiments inspect the full
    #: history); an integer keeps only the most recent N so that a continuous
    #: run (repro.stream) holds O(epoch) state instead of O(run).
    history_limit: Optional[int] = None
    #: Decode collected HH encoders in place during analysis (no sketch
    #: copies).  Reports are identical; only the collected groups' encoder
    #: state is consumed.  The streaming engine turns this on — the groups it
    #: collects are throwaways.
    destructive_analysis: bool = False
    #: Deploy on a custom fat-tree instead of the testbed topology (e.g. a
    #: k=8 fabric for the ``fabric_scale`` scenario).
    topology: Optional[object] = None
    #: Attach a :class:`~repro.obs.tracing.StageTracer` to emit hierarchical
    #: per-stage spans (epoch -> simulate/collect/analyze/...).  Tracing is
    #: observational only: traced runs are bit-identical to untraced ones.
    tracer: Optional[object] = None

    def __post_init__(self) -> None:
        self.simulator: NetworkSimulator = build_testbed_simulator(
            resources=self.resources,
            seed=self.seed,
            prime=self.prime,
            topology=self.topology,
        )
        self.controller = CentralController(
            resources=self.resources,
            heavy_hitter_threshold=self.heavy_hitter_threshold,
            distribution_iterations=self.distribution_iterations,
            seed=self.seed,
        )
        self.results: List[EpochResult] = []
        self._epochs_run = 0

    # ------------------------------------------------------------------ #
    @property
    def num_hosts(self) -> int:
        return self.simulator.topology.num_hosts

    @property
    def level(self) -> NetworkLevel:
        return self.controller.level

    def current_config(self) -> MonitoringConfig:
        """The configuration currently installed on the switches."""
        any_switch = next(iter(self.simulator.switches.values()))
        return any_switch.config

    def run_epoch(self, trace: Trace) -> EpochResult:
        """Run one full epoch: traffic, collection, analysis, reconfiguration.

        The configuration decided at the end of epoch ``e`` is installed at the
        beginning of epoch ``e + 1`` (on the testbed the reconfiguration is
        keyed on the next timestamp value so that it never interferes with the
        epoch currently being monitored).
        """
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        tracer.set_epoch(self._epochs_run)
        with tracer.span("epoch"):
            if self._epochs_run:
                # Install the configuration staged by the previous epoch's decision.
                with tracer.span("install"):
                    for switch in self.simulator.switches.values():
                        switch.begin_epoch()
            with tracer.span("simulate"):
                truth = self.simulator.run_epoch(trace, tracer=self.tracer)
            with tracer.span("collect"):
                groups = {
                    node: switch.end_epoch()
                    for node, switch in self.simulator.switches.items()
                }
            config_used = next(iter(groups.values())).config
            with tracer.span("analyze"):
                report = self.controller.process_epoch(
                    groups,
                    config_used,
                    compute_tasks=self.compute_tasks,
                    destructive=self.destructive_analysis,
                    tracer=self.tracer,
                )
            with tracer.span("install_next"):
                for switch in self.simulator.switches.values():
                    switch.apply_config(report.decision.config)
        result = EpochResult(report=report, truth=truth)
        self.results.append(result)
        if self.history_limit is not None and len(self.results) > self.history_limit:
            del self.results[: len(self.results) - self.history_limit]
        self._epochs_run += 1
        return result

    def run_epochs(self, traces: List[Trace]) -> List[EpochResult]:
        return [self.run_epoch(trace) for trace in traces]

    def close(self) -> None:
        """A no-op kept for callers that close the deployment when done.

        The deployment holds no processes, threads or files.
        """

    # ------------------------------------------------------------------ #
    # service checkpoints
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """Everything a service checkpoint needs to continue bit-identically.

        Valid at an epoch boundary (after :meth:`run_epoch` returned): the
        live sketch groups are about to be rebuilt from the switches' pending
        configurations by the next rotation, so the snapshot is the pending
        configs plus the stateful counters and RNGs — no counter arrays.
        """
        return {
            "epochs_run": self._epochs_run,
            "controller": self.controller.snapshot_state(),
            "simulator": self.simulator.snapshot_state(),
            "switches": [
                {"node": list(node), **switch.snapshot_state()}
                for node, switch in sorted(self.simulator.switches.items())
            ],
        }

    def restore_state(self, state: Dict) -> None:
        """Restore a boundary snapshot onto a freshly constructed deployment."""
        snapshot_nodes = [tuple(entry["node"]) for entry in state["switches"]]
        if sorted(snapshot_nodes) != sorted(self.simulator.switches):
            raise ValueError(
                "checkpoint topology does not match this deployment: snapshot "
                f"has switches {sorted(snapshot_nodes)}, deployment has "
                f"{sorted(self.simulator.switches)}"
            )
        self._epochs_run = int(state["epochs_run"])
        self.controller.restore_state(state["controller"])
        self.simulator.restore_state(state["simulator"])
        for entry in state["switches"]:
            self.simulator.switches[tuple(entry["node"])].restore_state(entry)

    def run_until_stable(
        self,
        trace_factory: Callable[[int], Trace],
        max_epochs: int = 12,
        stable_epochs: int = 2,
    ) -> List[EpochResult]:
        """Run epochs of the same workload until the configuration stops changing.

        ``trace_factory`` receives the epoch index and returns that epoch's
        trace (typically the same workload with a different random seed).  The
        paper's Figures 7/8 record each data point only after the configuration
        is stable; this helper reproduces that protocol and returns the full
        history (the last element is the stable epoch).
        """
        if max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        results: List[EpochResult] = []
        unchanged = 0
        previous_config: Optional[MonitoringConfig] = None
        for epoch in range(max_epochs):
            result = self.run_epoch(trace_factory(epoch))
            results.append(result)
            next_config = result.next_config
            if previous_config is not None and next_config == previous_config:
                unchanged += 1
                if unchanged >= stable_epochs:
                    break
            else:
                unchanged = 0
            previous_config = next_config
        return results
