"""The streaming engine: a continuous, bounded-memory measurement loop.

:class:`StreamingEngine` drives the full ChameleMon deployment — fat-tree
simulator, edge-switch data planes, central controller — epoch after epoch
against a :class:`~repro.stream.sources.TraceSource`, with live network-state
changes applied between epochs by an
:class:`~repro.stream.events.EventSchedule` and one flat report per epoch
pushed to :class:`~repro.stream.sinks.EpochSink` objects.

What distinguishes it from the batch pipeline
(:class:`~repro.core.runner.ChameleMon` over a materialized trace list) is
**O(epoch) memory**.  The engine produces each epoch inline on the caller's
thread (events, source, :meth:`~repro.stream.events.NetworkConditions.transform`),
analyses it and writes its record before it draws the next one, so one epoch
of traffic is resident at a time.  The controller/facade histories are capped
too, so a run's footprint is independent of its length.  The engine tracks
the largest epoch it held (:attr:`StreamSummary.peak_resident_flows`) and
tests assert the bound.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Union

from ..chaos import ChaosMonitor, FaultInjector
from ..core.runner import ChameleMon, EpochResult
from ..dataplane.config import SwitchResources
from ..obs.identity import TIMING_FIELDS, comparable  # noqa: F401 - re-exported
from ..obs.metrics import EpochMetrics, MetricsRegistry
from ..obs.tracing import Span, StageTracer, stage_millis
from ..traffic.flow import Trace
from .events import EventSchedule, NetworkConditions, StreamEvent
from .sinks import EpochSink
from .sources import TraceSource

#: How many ``EpochResult``s the facade keeps: the epoch just analysed and
#: the one before it.
RESIDENT_EPOCHS = 2

#: The spans whose durations sum to a record's ``decode_ms``: the per-switch
#: HH decodes and the delta HL/LL decodes (the delta build is not decoding).
_DECODE_SPANS = ("hh_decode", "hl_decode", "ll_decode")


def _span_ms(spans: Sequence[Span], names: Sequence[str]) -> float:
    """Total milliseconds of the spans with one of ``names``, at any depth."""
    return sum(span.duration_ns for span in spans if span.name in names) / 1e6


@dataclass
class StreamSummary:
    """Aggregate outcome of one engine run."""

    epochs: int = 0
    flows: int = 0
    packets: int = 0
    lost_packets: int = 0
    wall_seconds: float = 0.0
    peak_resident_flows: int = 0
    mean_f1: float = 0.0
    mean_are: float = 0.0
    final_level: str = ""
    #: The part of ``epochs`` and ``packets`` restored from a checkpoint: an
    #: earlier process ran it, so the rates, which divide this process's work
    #: by its ``wall_seconds``, leave it out.  Set by the engine on resume.
    restored_epochs: int = field(default=0, init=False)
    restored_packets: int = field(default=0, init=False)

    @property
    def epochs_per_second(self) -> float:
        epochs = self.epochs - self.restored_epochs
        return epochs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def packets_per_second(self) -> float:
        packets = self.packets - self.restored_packets
        return packets / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epochs": self.epochs,
            "flows": self.flows,
            "packets": self.packets,
            "lost_packets": self.lost_packets,
            "wall_seconds": self.wall_seconds,
            "epochs_per_second": self.epochs_per_second,
            "packets_per_second": self.packets_per_second,
            "peak_resident_flows": self.peak_resident_flows,
            "mean_f1": self.mean_f1,
            "mean_are": self.mean_are,
            "final_level": self.final_level,
        }


# ``TIMING_FIELDS`` and ``comparable`` moved to :mod:`repro.obs.identity`
# (the single source of truth for the identity-vs-timing contract); they are
# re-imported above so existing ``from repro.stream.engine import comparable``
# call sites keep working.


class StreamingEngine:
    """Continuous epoch pipeline: source -> events -> simulate -> analyse -> sinks.

    Every epoch is produced inline on the caller's thread.  ``pipelined``
    has no effect and the engine stores nothing for it; it is still checked
    (``True``, ``False`` or ``"auto"``) so existing callers keep working.
    There is no pipelined mode because production and analysis are both
    Python under one GIL: a producer thread overlaps nothing, adds thread
    switches, and keeps a second epoch of traffic resident.
    """

    def __init__(
        self,
        source: TraceSource,
        events: Iterable[StreamEvent] = (),
        sinks: Sequence[EpochSink] = (),
        resources: Optional[SwitchResources] = None,
        seed: int = 0,
        pipelined: Union[bool, str] = "auto",
        rolling_window: int = 8,
        compute_tasks: bool = False,
        heavy_hitter_threshold: int = 500,
        tracer: Optional[StageTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        span_sink: Optional[Any] = None,
        chaos: Optional[FaultInjector] = None,
    ) -> None:
        if rolling_window < 1:
            raise ValueError("rolling_window must be >= 1")
        if pipelined not in (True, False, "auto"):
            raise ValueError("pipelined must be True, False, or 'auto'")
        self.source = source
        self.schedule = events if isinstance(events, EventSchedule) else EventSchedule(events)
        self.sinks = list(sinks)
        self.seed = seed
        self.rolling_window = rolling_window
        # Spans are the engine's one per-epoch clock: every record's
        # ``wall_ms`` and ``decode_ms`` come from them, so an untraced engine
        # runs on a private tracer (drained every epoch, never exported).
        self.tracer = tracer
        self._tracer = tracer if tracer is not None else StageTracer()
        self.system = ChameleMon(
            resources=resources or SwitchResources(),
            seed=seed,
            compute_tasks=compute_tasks,
            heavy_hitter_threshold=heavy_hitter_threshold,
            history_limit=RESIDENT_EPOCHS,
            # The engine owns the collected groups and drops them right after
            # analysis, so the controller may decode them in place.
            destructive_analysis=True,
            tracer=self._tracer,
        )
        self.conditions = NetworkConditions(self.system.simulator.topology, seed=seed)
        # Observability (repro.obs): the caller's tracer, metrics and span
        # sink are optional and purely observational — a traced/metered run
        # is bit-identical to a bare one.
        self.metrics = metrics
        self._instruments = EpochMetrics(metrics) if metrics is not None else None
        self.span_sink = span_sink
        # Chaos plumbing: the monitor always exists (recovery accounting is
        # wanted even without injected faults); the injector is optional.  The
        # monitor is mirrored into the repro_* counters when a metrics
        # registry is attached.
        self.chaos = chaos
        self.monitor = chaos.monitor if chaos is not None else ChaosMonitor()
        if metrics is not None:
            self.monitor.bind(metrics)
        if chaos is not None:
            chaos.install_sinks(self.sinks)
        self._closed = False
        self._loop_live: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # production
    # ------------------------------------------------------------------ #
    def _produce(self, iterator: Iterator[Trace], epoch: int) -> Optional[Trace]:
        """Apply epoch-boundary events, then produce the epoch's trace.

        Returns ``None`` when the source is exhausted.  The loop calls it
        once per epoch, after the previous epoch's record was written.
        """
        # Tagged explicitly: this span closes before ``ChameleMon.run_epoch``
        # stamps the tracer with ``epoch``.
        with self._tracer.span("generate", epoch=epoch):
            self.conditions.apply_events(self.schedule.at(epoch))
            try:
                trace = next(iterator)
            except StopIteration:
                return None
            return self.conditions.transform(trace, epoch)

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_epochs: Optional[int] = None,
        *,
        start_epoch: int = 0,
        loop_state: Optional[Dict[str, Any]] = None,
        record_hook: Optional[Callable[[int, Dict[str, Any], EpochResult], None]] = None,
        epoch_hook: Optional[Callable[[int, Dict[str, Any]], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        close_on_exit: bool = True,
    ) -> StreamSummary:
        """Drive the stream until the source ends (or the absolute ``max_epochs``).

        Resume support (``repro.service``): ``start_epoch`` skips the source
        to that epoch, fast-forwards the event schedule's generation-side
        effects, and ``loop_state`` (from :meth:`loop_state`) restores the
        rolling windows and summary totals — together with
        :meth:`restore_system` this continues an interrupted run
        bit-identically.  ``record_hook`` may mutate each record before the
        sinks see it (alert annotations); ``epoch_hook`` fires after the
        record was written — the exact boundary at which a checkpoint is
        valid; ``should_stop`` is polled after each epoch for graceful
        shutdown.
        """
        if start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {start_epoch}")
        try:
            return self._run_loop(
                max_epochs, start_epoch, loop_state,
                record_hook, epoch_hook, should_stop,
            )
        finally:
            if close_on_exit:
                self.close()

    def close(self) -> None:
        """Flush and close every sink and the span sink.

        Idempotent, and robust to a sink failing mid-close: every sink is
        attempted, so an interrupted run never drops buffered records.
        Called from :meth:`run`'s ``finally`` (including on
        KeyboardInterrupt) and from the context-manager exit.
        """
        errors = []
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as error:  # noqa: BLE001 - every sink must be tried
                errors.append(error)
        if self.span_sink is not None:
            try:
                self.span_sink.close()
            except Exception as error:  # noqa: BLE001
                errors.append(error)
        self._closed = True
        if errors:
            raise errors[0]

    def __enter__(self) -> "StreamingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run_loop(
        self,
        max_epochs: Optional[int],
        start_epoch: int,
        loop_state: Optional[Dict[str, Any]],
        record_hook: Optional[Callable[[int, Dict[str, Any], EpochResult], None]],
        epoch_hook: Optional[Callable[[int, Dict[str, Any]], None]],
        should_stop: Optional[Callable[[], bool]],
    ) -> StreamSummary:
        summary = StreamSummary()
        f1_window: deque = deque(maxlen=self.rolling_window)
        are_window: deque = deque(maxlen=self.rolling_window)
        totals = {"f1": 0.0, "are": 0.0, "next_epoch": start_epoch}
        if loop_state is not None:
            f1_window.extend(loop_state["f1_window"])
            are_window.extend(loop_state["are_window"])
            totals["f1"] = float(loop_state["f1_total"])
            totals["are"] = float(loop_state["are_total"])
            for key in ("epochs", "flows", "packets", "lost_packets"):
                setattr(summary, key, int(loop_state["summary"][key]))
            summary.final_level = loop_state["summary"]["final_level"]
            summary.restored_epochs = summary.epochs
            summary.restored_packets = summary.packets
        self._loop_live = {
            "f1_window": f1_window, "are_window": are_window,
            "totals": totals, "summary": summary,
        }
        if start_epoch:
            # Re-derive the generation-side state the skipped epochs built up.
            self.conditions.fast_forward(self.schedule, start_epoch)
            iterator = self.source.epochs_from(start_epoch)
        else:
            iterator = iter(self.source)
        start = time.perf_counter()
        epoch = start_epoch
        while max_epochs is None or epoch < max_epochs:
            trace = self._produce(iterator, epoch)
            if trace is None:
                break
            num_flows = len(trace)
            summary.peak_resident_flows = max(summary.peak_resident_flows, num_flows)
            result = self.system.run_epoch(trace)
            spans = self._tracer.drain()
            packets = trace.num_packets()

            accuracy = result.loss_accuracy()
            f1_window.append(accuracy["f1"])
            are_window.append(accuracy["are"])
            totals["f1"] += accuracy["f1"]
            totals["are"] += accuracy["are"]
            record = self._record(
                epoch, result, num_flows, packets, accuracy, f1_window, are_window, spans
            )
            if self.tracer is not None:
                record["timing"] = stage_millis(spans)
                if self.span_sink is not None:
                    self.span_sink.write(spans)
            if self._instruments is not None:
                snapshot = result.report.snapshot
                self._instruments.observe(
                    record,
                    decode_success={
                        "hh": snapshot.hh_decode_success,
                        "hl": snapshot.hl_decode_success,
                        "ll": snapshot.ll_decode_success,
                    },
                    layout=result.config.layout,
                    num_arrays=self.system.resources.num_arrays,
                )
            if record_hook is not None:
                record_hook(epoch, record, result)
            for sink in self.sinks:
                sink.write(record)

            summary.epochs += 1
            summary.flows += num_flows
            summary.packets += packets
            summary.lost_packets += result.truth.total_lost_packets()
            summary.final_level = result.level.value
            del trace, result
            epoch += 1
            totals["next_epoch"] = epoch
            if epoch_hook is not None:
                epoch_hook(epoch, record)
            if should_stop is not None and should_stop():
                break
        summary.wall_seconds = time.perf_counter() - start
        if summary.epochs:
            summary.mean_f1 = totals["f1"] / summary.epochs
            summary.mean_are = totals["are"] / summary.epochs
        return summary

    # ------------------------------------------------------------------ #
    # checkpoint support (repro.service)
    # ------------------------------------------------------------------ #
    def loop_state(self) -> Dict[str, Any]:
        """The loop's restorable state at the current epoch boundary."""
        if self._loop_live is None:
            raise RuntimeError("loop_state() is only available during run()")
        live = self._loop_live
        summary: StreamSummary = live["summary"]
        return {
            "next_epoch": live["totals"]["next_epoch"],
            "f1_window": list(live["f1_window"]),
            "are_window": list(live["are_window"]),
            "f1_total": live["totals"]["f1"],
            "are_total": live["totals"]["are"],
            "summary": {
                "epochs": summary.epochs,
                "flows": summary.flows,
                "packets": summary.packets,
                "lost_packets": summary.lost_packets,
                "final_level": summary.final_level,
            },
        }

    def snapshot_system(self) -> Dict[str, Any]:
        """The analysis-side state (controller, switches, simulator)."""
        return self.system.snapshot_state()

    def restore_system(self, state: Dict[str, Any]) -> None:
        self.system.restore_state(state)

    # ------------------------------------------------------------------ #
    def _record(
        self,
        epoch: int,
        result: EpochResult,
        num_flows: int,
        packets: int,
        accuracy: Dict[str, float],
        f1_window: deque,
        are_window: deque,
        spans: Sequence[Span],
    ) -> Dict[str, Any]:
        division = result.memory_division()
        decoded = result.decoded_flow_counts()
        snapshot = result.report.snapshot
        decode_failures = (
            int(not snapshot.hh_decode_success)
            + int(not snapshot.hl_decode_success)
            + int(not snapshot.ll_decode_success)
        )
        return {
            "epoch": epoch,
            "num_flows": num_flows,
            "num_victims": result.truth.num_victims(),
            "packets": packets,
            "lost_packets": result.truth.total_lost_packets(),
            "level": result.level.value,
            "mem_hh": division["hh"],
            "mem_hl": division["hl"],
            "mem_ll": division["ll"],
            "decoded_hh": decoded["hh"],
            "decoded_hl": decoded["hl"],
            "decoded_ll": decoded["ll"],
            "threshold_high": result.config.threshold_high,
            "threshold_low": result.config.threshold_low,
            "sample_rate": result.config.sample_rate,
            "loss_precision": accuracy["precision"],
            "loss_recall": accuracy["recall"],
            "loss_f1": accuracy["f1"],
            "loss_are": accuracy["are"],
            "rolling_f1": sum(f1_window) / len(f1_window),
            "rolling_are": sum(are_window) / len(are_window),
            "decode_failures": decode_failures,
            "wall_ms": _span_ms(spans, ("epoch",)),
            "decode_ms": _span_ms(spans, _DECODE_SPANS),
        }
