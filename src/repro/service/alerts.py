"""Declarative threshold alerting over the per-epoch record stream.

An :class:`AlertEngine` evaluates a set of :class:`AlertRule` objects against
every epoch record the streaming engine produces and tracks firing/clearing
state per rule: an :class:`Alert` is emitted only on *transitions* (healthy →
breached fires, breached → healthy clears).  Each transition is written as its
dict (:meth:`Alert.to_dict`) to ordinary record sinks
(:class:`~repro.stream.sinks.EpochSink`): an alert feed is a ``JsonlSink`` or
a ``MemorySink``, hardened by the service like any record sink, and
:class:`ConsoleAlertSink` / :class:`CallbackAlertSink` render or forward the
dict.

Rules split into two classes.  *Deterministic* rules read only
result-derived record fields (rolling F1, rolling ARE, decode failures), so
their transitions are part of the reproducible record stream — the service
annotates each record's ``alerts`` field with them, and a resumed run
re-fires them identically (rule state is checkpointed).  *Timing* rules
(:class:`EpochLatencySlo`) read monotonic-clock timing fields; their alerts
flow to the alert sinks but never into the identity-compared record fields,
per the :data:`repro.obs.identity.TIMING_FIELDS` contract.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Tuple

from ..stream.sinks import EpochSink


@dataclass(frozen=True)
class Alert:
    """One firing or clearing transition of one rule."""

    epoch: int
    rule: str
    status: str  # "firing" | "cleared"
    value: float
    threshold: float
    deterministic: bool = True

    @property
    def tag(self) -> str:
        return f"{self.rule}:{self.status}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "rule": self.rule,
            "status": self.status,
            "value": self.value,
            "threshold": self.threshold,
            "deterministic": self.deterministic,
        }


class AlertRule:
    """Base rule: per-epoch evaluation with engine-owned mutable state."""

    name = "rule"
    #: Deterministic rules read only result-derived record fields and may be
    #: annotated into the reproducible record stream; timing rules may not.
    deterministic = True

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def evaluate(
        self, record: Dict[str, Any], state: Dict[str, Any]
    ) -> Optional[Tuple[float, bool]]:
        """``(observed value, breached?)`` or ``None`` when not evaluable yet.

        ``state`` is this rule's slice of the engine's checkpointable state;
        rules keep any cross-epoch memory (streak counters, ...) there rather
        than on ``self`` so a resumed service re-evaluates identically.
        """
        raise NotImplementedError


class RollingF1Floor(AlertRule):
    """Fire while the rolling loss-detection F1 sits below a floor."""

    name = "rolling_f1_floor"

    def __init__(self, min_f1: float, warmup: int = 0) -> None:
        super().__init__(min_f1)
        self.warmup = int(warmup)

    def evaluate(self, record, state):
        if record["epoch"] < self.warmup:
            return None
        value = float(record["rolling_f1"])
        return value, value < self.threshold


class RollingAreCeiling(AlertRule):
    """Fire while the rolling average relative error exceeds a ceiling."""

    name = "rolling_are_ceiling"

    def __init__(self, max_are: float, warmup: int = 0) -> None:
        super().__init__(max_are)
        self.warmup = int(warmup)

    def evaluate(self, record, state):
        if record["epoch"] < self.warmup:
            return None
        value = float(record["rolling_are"])
        return value, value > self.threshold


class DecodeFailureStreak(AlertRule):
    """Fire after N consecutive epochs with at least one failed sketch decode."""

    name = "decode_failure_streak"

    def __init__(self, max_streak: int = 3) -> None:
        if max_streak < 1:
            # A streak of 0 would meet a threshold of 0 on a healthy stream.
            raise ValueError("max_streak must be >= 1")
        super().__init__(max_streak)

    def evaluate(self, record, state):
        streak = state.get("streak", 0)
        streak = streak + 1 if record.get("decode_failures", 0) > 0 else 0
        state["streak"] = streak
        return float(streak), streak >= self.threshold


class EpochLatencySlo(AlertRule):
    """Fire while an epoch's duration exceeds the SLO (timing rule).

    ``wall_ms`` is the epoch's ``epoch`` span, timed on the monotonic clock
    (``time.perf_counter_ns``) like every ``repro.obs`` span, so the SLO
    cannot misfire on wall-clock adjustments; it is still a timing field and
    stays out of the identity-compared record stream.
    """

    name = "epoch_latency_slo"
    deterministic = False

    def __init__(self, max_wall_ms: float) -> None:
        super().__init__(max_wall_ms)

    def evaluate(self, record, state):
        value = float(record["wall_ms"])
        return value, value > self.threshold


# --------------------------------------------------------------------------- #
# alert sinks
# --------------------------------------------------------------------------- #
class ConsoleAlertSink(EpochSink):
    """One human-readable line per transition (stderr by default, tail-able)."""

    def __init__(self, handle: Optional[IO[str]] = None) -> None:
        self._handle = handle or sys.stderr

    def write(self, record: Dict[str, Any]) -> None:
        marker = "ALERT" if record["status"] == "firing" else "clear"
        self._handle.write(
            f"[{marker}] epoch {record['epoch']:>4}  {record['rule']}: value "
            f"{record['value']:.4g} vs threshold {record['threshold']:.4g}\n"
        )
        self._handle.flush()


class CallbackAlertSink(EpochSink):
    """Deliver each transition dict to a user callback (pager/webhook integration)."""

    def __init__(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        self._callback = callback

    def write(self, record: Dict[str, Any]) -> None:
        self._callback(record)


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #
class AlertEngine:
    """Evaluate rules per epoch, track firing state, write transitions to sinks."""

    def __init__(self, rules: Sequence[AlertRule], sinks: Sequence[EpochSink] = ()) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"alert rule names must be unique, got {names}")
        self.rules = list(rules)
        self.sinks = list(sinks)
        self._states: Dict[str, Dict[str, Any]] = {
            rule.name: {"firing": False} for rule in self.rules
        }

    def observe(self, record: Dict[str, Any]) -> List[Alert]:
        """Evaluate every rule against one epoch record; emit transitions."""
        alerts: List[Alert] = []
        for rule in self.rules:
            state = self._states[rule.name]
            outcome = rule.evaluate(record, state)
            if outcome is None:
                continue
            value, breached = outcome
            if breached == state["firing"]:
                continue
            state["firing"] = breached
            alerts.append(
                Alert(
                    epoch=int(record["epoch"]),
                    rule=rule.name,
                    status="firing" if breached else "cleared",
                    value=value,
                    threshold=rule.threshold,
                    deterministic=rule.deterministic,
                )
            )
        for alert in alerts:
            transition = alert.to_dict()
            for sink in self.sinks:
                sink.write(transition)
        return alerts

    def firing(self) -> List[str]:
        """Names of the rules currently in the firing state."""
        return [name for name, state in self._states.items() if state["firing"]]

    # -- checkpoint support -------------------------------------------- #
    def snapshot_state(self) -> Dict[str, Dict[str, Any]]:
        return json.loads(json.dumps(self._states))

    def restore_state(self, state: Dict[str, Dict[str, Any]]) -> None:
        for name in self._states:
            if name in state:
                self._states[name] = dict(state[name])

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
