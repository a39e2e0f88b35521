"""The identity-vs-timing contract: which observable fields may differ between
two runs that are otherwise bit-identical.

Every reproducibility property in this codebase — pipelined vs. serial
streaming, sharded vs. serial data planes, resumed vs. uninterrupted services,
traced vs. untraced runs — is asserted by comparing per-epoch records for
exact equality *after* stripping the fields that measure the run instead of
the network.  This module is the single source of truth for that exclusion
list; the stream engine, the service, the ``serve_churn`` scenario verdict,
and the CI smoke steps all import it from here.

Timing fields are monotonic-clock measurements (``time.perf_counter_ns``):
``wall_ms`` (whole epoch), ``decode_ms`` (sketch decoding inside analysis),
and the ``timing`` sub-dict (the per-stage span breakdown emitted when a
:class:`~repro.obs.tracing.StageTracer` is attached).  Everything else in a
record derives from sketch state and ground truth and must be bit-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

#: Record fields that measure the run, not the network: excluded from every
#: bit-identity comparison.  ``timing`` is the traced per-stage breakdown —
#: present only when tracing is enabled, which is exactly why it must be on
#: this list (tracing may never perturb an identity verdict).
TIMING_FIELDS = ("wall_ms", "decode_ms", "timing")

#: Record fields the service adds only from a later epoch on: the degraded-mode
#: annotation (:class:`~repro.service.TelemetryService`) appears once decode
#: failures persist, so a healthy stream stays field-identical to a bare
#: engine run.  Sinks that fix their columns from the first record (CSV)
#: reserve these up front.
LATE_FIELDS = ("degraded", "degraded_streak")

#: Checkpoint ``meta`` keys that are wall-clock snapshot timestamps, not run
#: specification: excluded when comparing two checkpoints for identity.
CHECKPOINT_TIMING_KEYS = ("written_at",)

#: Keys of a checkpoint's ``sinks`` entries that locate bytes on disk: the
#: file path is the run's choice, and the byte offset counts serialized timing
#: fields, so neither takes part in an identity comparison.
CHECKPOINT_SINK_LOCATION_KEYS = ("path", "offset")


def comparable(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record with its timing fields stripped (for identity comparisons)."""
    return {key: value for key, value in record.items() if key not in TIMING_FIELDS}


def comparable_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Strip timing fields from a whole record stream."""
    return [comparable(record) for record in records]


def comparable_checkpoint(state: Dict[str, Any]) -> Dict[str, Any]:
    """A checkpoint state with its wall-clock and on-disk fields stripped.

    Checkpoint *content* (engine loop state, system snapshot, alert state,
    each sink's kind and CSV columns) must be bit-identical between
    equivalent runs.  Two things may differ: the ``meta`` sub-dict's
    wall-clock ``written_at`` timestamp, and each file sink's ``path`` and
    byte ``offset`` (a JSONL line carries ``wall_ms`` and ``decode_ms``, so
    its length varies from run to run).
    """
    clean = dict(state)
    meta = clean.get("meta")
    if isinstance(meta, dict):
        clean["meta"] = {
            key: value
            for key, value in meta.items()
            if key not in CHECKPOINT_TIMING_KEYS
        }
    sinks = clean.get("sinks")
    if isinstance(sinks, list):
        clean["sinks"] = [
            {
                key: value
                for key, value in sink.items()
                if key not in CHECKPOINT_SINK_LOCATION_KEYS
            }
            for sink in sinks
        ]
    return clean
