"""Streaming telemetry: continuous bounded-memory epoch pipeline.

The :mod:`repro.stream` subsystem turns the batch reproduction into an
always-on measurement loop: pluggable :mod:`~repro.stream.sources` yield
epoch-sized traffic chunks, the :class:`~repro.stream.engine.StreamingEngine`
drives the simulator and controller with O(epoch) memory (one epoch
produced and analysed at a time), :mod:`~repro.stream.events` applies live
network-state changes between epochs, and :mod:`~repro.stream.sinks` export
one report per epoch as it happens.
"""

from .engine import TIMING_FIELDS, StreamingEngine, StreamSummary, comparable
from .events import (
    EventSchedule,
    FlowBurstEvent,
    LinkFailureEvent,
    LinkRecoveryEvent,
    LossRateShiftEvent,
    NetworkConditions,
    StreamEvent,
)
from .sinks import (
    ConsoleSink,
    CsvSink,
    EpochSink,
    JsonlSink,
    MemorySink,
    ResilientSink,
)
from .sources import (
    LimitedSource,
    MergeSource,
    Phase,
    SyntheticSource,
    TraceFileSource,
    TraceSource,
    write_trace_file,
)

__all__ = [
    "StreamingEngine",
    "StreamSummary",
    "TIMING_FIELDS",
    "comparable",
    "EventSchedule",
    "StreamEvent",
    "LinkFailureEvent",
    "LinkRecoveryEvent",
    "LossRateShiftEvent",
    "FlowBurstEvent",
    "NetworkConditions",
    "EpochSink",
    "JsonlSink",
    "CsvSink",
    "MemorySink",
    "ConsoleSink",
    "ResilientSink",
    "TraceSource",
    "SyntheticSource",
    "Phase",
    "TraceFileSource",
    "MergeSource",
    "LimitedSource",
    "write_trace_file",
]
