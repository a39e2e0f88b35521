"""The always-on telemetry service layer on top of :mod:`repro.stream`.

Four pieces promote the bounded streaming loop to a durable service:

* :mod:`~repro.service.service` — :class:`TelemetryService`, the run loop
  with checkpointing, alerting, and graceful SIGINT/SIGTERM shutdown;
* :mod:`~repro.service.checkpoint` — the versioned ``.rtck`` snapshot format
  (binary blobs + JSON manifest, written atomically);
* :mod:`~repro.service.alerts` — declarative threshold rules with
  firing/clearing state; each transition is written as a dict to ordinary
  record sinks (:mod:`repro.stream.sinks`), plus a console and a callback
  sink for alerts;
* :mod:`~repro.service.netstate` — the JSONL/YANG-flavored device state-diff
  schema and its compiler into engine event schedules.
"""

from .alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    CallbackAlertSink,
    ConsoleAlertSink,
    DecodeFailureStreak,
    EpochLatencySlo,
    RollingAreCeiling,
    RollingF1Floor,
)
from .checkpoint import (
    CHECKPOINT_EXTENSION,
    CheckpointError,
    inspect_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .netstate import (
    FABRIC_DEVICE,
    NetworkStateError,
    StateDiff,
    compile_state_diff,
    compile_state_diffs,
    parse_device,
    read_state_diffs,
    synthesize_churn_diffs,
    write_state_diffs,
)
from .service import TelemetryService

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "CallbackAlertSink",
    "CHECKPOINT_EXTENSION",
    "CheckpointError",
    "compile_state_diff",
    "compile_state_diffs",
    "ConsoleAlertSink",
    "DecodeFailureStreak",
    "EpochLatencySlo",
    "FABRIC_DEVICE",
    "inspect_checkpoint",
    "NetworkStateError",
    "parse_device",
    "read_checkpoint",
    "read_state_diffs",
    "RollingAreCeiling",
    "RollingF1Floor",
    "StateDiff",
    "synthesize_churn_diffs",
    "TelemetryService",
    "write_checkpoint",
    "write_state_diffs",
]
