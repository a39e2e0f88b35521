"""The always-on telemetry service: checkpoints, alerts, graceful lifecycle.

:class:`TelemetryService` wraps a :class:`~repro.stream.engine.StreamingEngine`
with the three things a durable deployment needs on top of the bounded loop:

* **Checkpoint/restore** — every ``checkpoint_interval`` epochs (and at every
  graceful stop) the service fsyncs its sinks and atomically writes a
  versioned ``.rtck`` snapshot (:mod:`repro.service.checkpoint`).  A resumed
  service validates the snapshot against its own spec (seed, rolling window,
  schedule fingerprint), rewinds each file sink to its durable offset,
  restores the analysis-side state, and continues **bit-identically** to the
  uninterrupted run.
* **Alerting** — an :class:`~repro.service.alerts.AlertEngine` evaluates its
  rules against every record before the sinks see it; deterministic
  transitions are annotated into the record's ``alerts`` field (part of the
  reproducible stream), and all transitions flow to the alert sinks — the
  same record sinks, retry wrapper and checkpoint rewind as the records.
* **Graceful lifecycle** — with ``handle_signals=True`` a SIGINT/SIGTERM
  requests a stop; the loop finishes the epoch in flight, writes a final
  checkpoint, and flushes and closes every sink.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional

from ..chaos import FaultInjector, RetryPolicy, chaos_key, corrupt_checkpoint
from ..obs.exposition import MetricsServer
from ..stream.engine import StreamingEngine, StreamSummary
from ..stream.sinks import EpochSink, ResilientSink
from .alerts import AlertEngine
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint


class TelemetryService:
    """An always-on run of the streaming engine with durability and alerting."""

    def __init__(
        self,
        engine: StreamingEngine,
        alert_engine: Optional[AlertEngine] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: int = 1,
        handle_signals: bool = False,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
        chaos: Optional[FaultInjector] = None,
        keep_checkpoints: int = 2,
        retry: Optional[RetryPolicy] = None,
        degraded_after: int = 3,
    ) -> None:
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0 (0 disables periodic checkpoints)")
        if metrics_port is not None and engine.metrics is None:
            raise ValueError(
                "metrics_port requires an engine constructed with a "
                "MetricsRegistry (StreamingEngine(metrics=...))"
            )
        if keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        if degraded_after < 1:
            raise ValueError("degraded_after must be >= 1")
        self.engine = engine
        self.alert_engine = alert_engine
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.handle_signals = handle_signals
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self.chaos = chaos if chaos is not None else engine.chaos
        self.monitor = engine.monitor
        self.keep_checkpoints = int(keep_checkpoints)
        self.retry = retry if retry is not None else RetryPolicy()
        self.degraded_after = int(degraded_after)
        #: Consecutive epochs with at least one failed sketch decode; part of
        #: the checkpoint (``state["service"]``), so degraded-mode
        #: annotations survive a resume bit-identically.
        self._decode_fail_streak = 0
        if self.chaos is not None and engine.chaos is None:
            # A service-level injector still reaches the record sinks
            # through the engine's wiring point.
            engine.chaos = self.chaos
            self.chaos.install_sinks(engine.sinks)
        # Harden the durable outputs: every file-backed record/alert sink is
        # wrapped in a retry/backoff shell (OSError only; checkpoint hooks
        # delegate, so resume rewinds see straight through the wrapper).
        engine.sinks = [self._wrap_sink(sink, "records") for sink in engine.sinks]
        if alert_engine is not None:
            if self.chaos is not None:
                self.chaos.install_sinks(alert_engine.sinks, target="alerts")
            alert_engine.sinks = [
                self._wrap_sink(sink, "alerts") for sink in alert_engine.sinks
            ]
        #: The live exposition endpoint while :meth:`run` is active (tests
        #: read its bound port when ``metrics_port=0``).
        self.metrics_server: Optional[MetricsServer] = None
        self._alert_transitions = (
            engine.metrics.counter(
                "repro_alert_transitions_total",
                "Alert rule firing/clearing transitions",
                labels=("rule", "status"),
            )
            if engine.metrics is not None
            else None
        )
        self._stop_requested = False
        self._epochs_since_checkpoint = 0
        self._checkpointed_epoch: Optional[int] = None

    def _wrap_sink(self, sink: EpochSink, site: str) -> EpochSink:
        """Wrap a file sink in :class:`ResilientSink`; ``site`` keys its backoff.

        Only file sinks carry a ``fault_hook``; memory, console and callback
        sinks (and an already wrapped sink) pass through unchanged.
        """
        if not hasattr(sink, "fault_hook"):
            return sink
        return ResilientSink(
            sink, policy=self.retry, seed=self.engine.seed,
            site=site, monitor=self.monitor,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Ask the loop to stop at the next epoch boundary (signal-safe)."""
        self._stop_requested = True

    def _handle_signal(self, signum, frame) -> None:  # pragma: no cover - signal path
        self.request_stop()

    def run(self, max_epochs: Optional[int] = None, resume: bool = False) -> StreamSummary:
        """Drive the service to completion (or until stopped / ``max_epochs``).

        ``max_epochs`` is absolute: a run resumed at epoch 4 with
        ``max_epochs=10`` processes epochs 4..9, exactly the suffix the
        uninterrupted run would have.  ``resume=True`` restores from the
        checkpoint chain at ``checkpoint_path`` (no checkpoint at all starts
        a fresh run, so ``serve --resume`` is idempotent).  A corrupt
        checkpoint is quarantined to ``<name>.bad`` and the next link in the
        chain restores instead; with the whole chain corrupt the service
        restarts from epoch 0 — still bit-identical, because the file sinks
        rewind to offset 0 with it.
        """
        start_epoch = 0
        loop_state: Optional[Dict[str, Any]] = None
        if resume and self.checkpoint_path:
            state = self._load_checkpoint_chain()
            if state is not None:
                self._validate(state)
                self.engine.restore_system(state["system"])
                if self.alert_engine is not None and state.get("alerts"):
                    self.alert_engine.restore_state(state["alerts"])
                self._rewind_sinks(state.get("sinks", []))
                self._decode_fail_streak = int(
                    (state.get("service") or {}).get("decode_fail_streak", 0)
                )
                loop_state = state["engine"]
                start_epoch = int(loop_state["next_epoch"])
                self._checkpointed_epoch = start_epoch

        previous_handlers: Dict[int, Any] = {}
        if self.handle_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(signum, self._handle_signal)
        if self.metrics_port is not None:
            try:
                if self.chaos is not None:
                    self.chaos.raise_if("metrics_bind_error")
                self.metrics_server = MetricsServer(
                    self.engine.metrics, port=self.metrics_port, host=self.metrics_host
                )
            except OSError as error:
                # Degraded mode: the measurement loop matters more than the
                # exposition endpoint.  Metrics stay readable via snapshots.
                self.metrics_server = None
                self.monitor.recovery("metrics")
                print(
                    f"repro.service: metrics endpoint unavailable "
                    f"({error}); continuing without exposition",
                    file=sys.stderr,
                )
        try:
            summary = self.engine.run(
                max_epochs=max_epochs,
                start_epoch=start_epoch,
                loop_state=loop_state,
                record_hook=self._record_hook,
                epoch_hook=self._epoch_hook,
                should_stop=lambda: self._stop_requested,
                close_on_exit=False,
            )
        finally:
            try:
                self._final_checkpoint()
            finally:
                errors: List[BaseException] = []
                for closer in (self._close_alerts, self._close_metrics, self.engine.close):
                    try:
                        closer()
                    except Exception as error:  # noqa: BLE001 - finish shutdown
                        errors.append(error)
                for signum, handler in previous_handlers.items():
                    signal.signal(signum, handler)
                if errors:
                    raise errors[0]
        return summary

    def _close_alerts(self) -> None:
        if self.alert_engine is not None:
            self.alert_engine.close()

    def _close_metrics(self) -> None:
        if self.metrics_server is not None:
            self.metrics_server.close()
            self.metrics_server = None

    # ------------------------------------------------------------------ #
    # per-epoch hooks
    # ------------------------------------------------------------------ #
    def _record_hook(self, epoch: int, record: Dict[str, Any], result) -> None:
        # Degraded mode: persistent decode failure annotates the stream
        # instead of crashing the process — attention escalates through the
        # record (and the decode_failure_streak alert rule), per the paper's
        # control loop.  The annotation is part of the reproducible stream:
        # the streak is derived from result fields only and is checkpointed.
        streak = self._decode_fail_streak
        streak = streak + 1 if record.get("decode_failures", 0) > 0 else 0
        self._decode_fail_streak = streak
        if streak >= self.degraded_after:
            # Annotated only while degraded, so a healthy service stream
            # stays field-identical to a bare engine run of the same spec.
            record["degraded"] = True
            record["degraded_streak"] = streak
            self.monitor.degraded_epoch()
        if self.alert_engine is None:
            return
        alerts = self.alert_engine.observe(record)
        if self._alert_transitions is not None:
            for alert in alerts:
                self._alert_transitions.labels(
                    rule=alert.rule, status=alert.status
                ).inc()
        # Only deterministic transitions join the reproducible record stream;
        # timing-rule alerts reach the alert sinks but never the fields that
        # identity comparisons (``comparable``) look at.
        record["alerts"] = [alert.tag for alert in alerts if alert.deterministic]

    def _epoch_hook(self, next_epoch: int, record: Dict[str, Any]) -> None:
        self._epochs_since_checkpoint += 1
        due = (
            self.checkpoint_interval
            and self._epochs_since_checkpoint >= self.checkpoint_interval
        )
        if self.checkpoint_path and (due or self._stop_requested):
            self.write_checkpoint()

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def _chain_paths(self) -> List[str]:
        """The checkpoint chain, newest first: ``path``, ``path.1``, ..."""
        assert self.checkpoint_path
        return [self.checkpoint_path] + [
            f"{self.checkpoint_path}.{index}"
            for index in range(1, self.keep_checkpoints)
        ]

    def _rotate_checkpoints(self) -> None:
        """Shift the chain one slot before a new primary is written."""
        chain = self._chain_paths()
        for index in range(len(chain) - 1, 0, -1):
            if os.path.exists(chain[index - 1]):
                os.replace(chain[index - 1], chain[index])

    def _load_checkpoint_chain(self) -> Optional[Dict[str, Any]]:
        """Restore state from the newest readable checkpoint in the chain.

        Corrupt links (truncation, bit-flips, bad manifests — anything
        ``read_checkpoint`` rejects) are quarantined to ``<name>.bad`` and
        the next link is tried; each successful fallback (or a forced fresh
        start) counts one ``repro_recoveries_total{site="checkpoint"}``.
        Spec-mismatch errors are *not* handled here: they mean the operator
        pointed the service at a different run's checkpoint, and
        :meth:`_validate` raises on the loaded state.
        """
        quarantined = 0
        state: Optional[Dict[str, Any]] = None
        for candidate in self._chain_paths():
            if not os.path.exists(candidate):
                continue
            try:
                state = read_checkpoint(candidate)
                break
            except CheckpointError as error:
                quarantine = candidate + ".bad"
                os.replace(candidate, quarantine)
                quarantined += 1
                print(
                    f"repro.service: checkpoint '{candidate}' is corrupt "
                    f"({error}); quarantined to '{quarantine}'",
                    file=sys.stderr,
                )
        if quarantined:
            self.monitor.recovery("checkpoint")
            if state is None:
                print(
                    "repro.service: no readable checkpoint left in the "
                    "chain; restarting from epoch 0",
                    file=sys.stderr,
                )
        return state

    def _spec_meta(self) -> Dict[str, Any]:
        engine = self.engine
        try:
            source_epochs: Optional[int] = len(engine.source)
        except TypeError:
            source_epochs = None
        return {
            "seed": engine.seed,
            "rolling_window": engine.rolling_window,
            "heavy_hitter_threshold": engine.system.heavy_hitter_threshold,
            "schedule_fingerprint": engine.schedule.fingerprint(),
            "source_epochs": source_epochs,
        }

    def _validate(self, state: Dict[str, Any]) -> None:
        expected = self._spec_meta()
        stored = state.get("meta", {})
        # Every key of the spec must match for bit-identity; keys that older
        # checkpoints carry and the spec no longer writes are ignored.
        for key, value in expected.items():
            if stored.get(key) != value:
                raise CheckpointError(
                    f"checkpoint '{self.checkpoint_path}' was written by a "
                    f"different run: {key} is {stored.get(key)!r} there but "
                    f"{value!r} here"
                )

    def _sinks(self) -> List[EpochSink]:
        """The record sinks, then the alert sinks."""
        sinks = list(self.engine.sinks)
        if self.alert_engine is not None:
            sinks.extend(self.alert_engine.sinks)
        return sinks

    def _sink_states(self) -> List[Dict[str, Any]]:
        states = []
        for sink in self._sinks():
            state = sink.sink_state()
            if state is not None:
                states.append(state)
        return states

    def _rewind_sinks(self, states: List[Dict[str, Any]]) -> None:
        """Append-reopen every file sink at its checkpointed durable offset.

        Stored states are matched by ``path`` alone: older checkpoints list
        the alert feed with kind ``"alerts_jsonl"``, and it must rewind too.
        """
        by_path = {}
        for sink in self._sinks():
            state = sink.sink_state()
            if state is not None:
                by_path[state["path"]] = sink
        for stored in states:
            sink = by_path.get(stored["path"])
            if sink is None:
                continue
            if stored.get("fieldnames") is not None:
                sink.truncate_to(stored["offset"], fieldnames=stored["fieldnames"])
            else:
                sink.truncate_to(stored["offset"])

    def write_checkpoint(self) -> None:
        """fsync the sinks, then atomically snapshot the full service state."""
        if not self.checkpoint_path:
            raise ValueError("this service has no checkpoint_path")
        for sink in self._sinks():
            sink.sync()
        loop = self.engine.loop_state()
        meta = self._spec_meta()
        # The one legitimate wall-clock timestamp: a manifest annotation for
        # operators (inspect_checkpoint).  Identity comparisons strip it via
        # ``repro.obs.identity.comparable_checkpoint``.
        meta["written_at"] = time.time()
        state = {
            "meta": meta,
            "engine": loop,
            "system": self.engine.snapshot_system(),
            "alerts": (
                self.alert_engine.snapshot_state()
                if self.alert_engine is not None
                else None
            ),
            "sinks": self._sink_states(),
            "service": {"decode_fail_streak": self._decode_fail_streak},
        }
        boundary = int(loop["next_epoch"])
        if self.keep_checkpoints > 1:
            self._rotate_checkpoints()
        write_checkpoint(self.checkpoint_path, state)
        if self.chaos is not None:
            spec = self.chaos.checkpoint_fault(boundary)
            if spec is not None:
                corrupt_checkpoint(
                    self.checkpoint_path,
                    mode=str(spec.params.get("mode", "bitflip")),
                    key=chaos_key(self.chaos.seed, "checkpoint", boundary),
                )
        self._epochs_since_checkpoint = 0
        self._checkpointed_epoch = boundary

    def _final_checkpoint(self) -> None:
        """Checkpoint the final boundary (graceful stop or source end)."""
        if not self.checkpoint_path:
            return
        try:
            boundary = int(self.engine.loop_state()["next_epoch"])
        except RuntimeError:
            return  # the loop never started
        if self._checkpointed_epoch == boundary:
            return
        self.write_checkpoint()
