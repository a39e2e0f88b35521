"""Low-overhead hierarchical stage tracing for the epoch pipeline.

A :class:`StageTracer` hands out ``with tracer.span("decode"):`` context
managers built on ``time.perf_counter_ns`` (monotonic, ~20ns per call).  Spans
nest through a *thread-local* stack, so spans opened on different threads
each build their own hierarchy without locking each other; completed spans
land in one shared, lock-guarded list.

Two integration points make the tracer fit this pipeline specifically:

* **Epoch tagging** — :meth:`set_epoch` stamps subsequently completed spans,
  and a span that closes before its epoch is set tags itself explicitly (the
  engine's ``span("generate", epoch=k)``), so every span :meth:`drain` hands
  back carries the epoch it measured.
* **Observability only** — the tracer measures the run and is never read
  back by the pipeline, so a traced run is bit-identical to an untraced one
  (property-tested across seeds).

``NULL_TRACER`` is the disabled implementation: every call is a no-op, so
instrumented code paths do ``tracer = tracer or NULL_TRACER`` once and pay
only an attribute lookup and a dead context manager when tracing is off.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Span:
    """One completed stage measurement."""

    __slots__ = ("name", "path", "epoch", "start_ns", "duration_ns")

    def __init__(
        self,
        name: str,
        path: Tuple[str, ...],
        epoch: Optional[int],
        start_ns: int,
        duration_ns: int,
    ) -> None:
        self.name = name
        self.path = path
        self.epoch = epoch
        self.start_ns = start_ns
        self.duration_ns = duration_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": list(self.path),
            "epoch": self.epoch,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({'/'.join(self.path)}, epoch={self.epoch}, "
            f"{self.duration_ns / 1e6:.3f}ms)"
        )


class _SpanHandle:
    """The context manager a single ``tracer.span(...)`` call returns."""

    __slots__ = ("_tracer", "_name", "_epoch", "_path", "_start")

    def __init__(self, tracer: "StageTracer", name: str, epoch: Optional[int]) -> None:
        self._tracer = tracer
        self._name = name
        self._epoch = epoch

    def __enter__(self) -> "_SpanHandle":
        stack = self._tracer._stack()
        parent: Tuple[str, ...] = stack[-1] if stack else ()
        self._path = parent + (self._name,)
        stack.append(self._path)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        tracer = self._tracer
        tracer._stack().pop()
        epoch = self._epoch if self._epoch is not None else tracer._epoch
        span = Span(self._name, self._path, epoch, self._start, end - self._start)
        with tracer._lock:
            tracer._spans.append(span)
        return False


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def span(self, name: str, epoch: Optional[int] = None) -> _NullHandle:
        return _NULL_HANDLE

    def set_epoch(self, epoch: int) -> None:
        pass

    def drain(self) -> List[Span]:
        return []


NULL_TRACER = NullTracer()


class StageTracer:
    """Collects hierarchical stage spans on a monotonic nanosecond clock."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        self._epoch: Optional[int] = None

    def _stack(self) -> List[Tuple[str, ...]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, epoch: Optional[int] = None) -> _SpanHandle:
        """A context manager timing one stage, nested under the current span."""
        return _SpanHandle(self, name, epoch)

    def set_epoch(self, epoch: int) -> None:
        """Stamp spans completed from here on with this epoch index.

        Spans that passed an explicit ``epoch=`` keep it: the engine's
        ``generate`` span closes before the facade sets its epoch.
        """
        self._epoch = epoch

    def drain(self) -> List[Span]:
        """Remove and return every completed span, in completion order."""
        with self._lock:
            drained, self._spans = self._spans, []
        return drained

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._spans)


def stage_millis(spans: Iterable[Span]) -> Dict[str, float]:
    """Total milliseconds per stage path ("epoch/analyze/decode" style keys).

    This is the per-epoch ``timing`` record sub-dict: purely observational,
    excluded from identity comparisons via ``TIMING_FIELDS``.
    """
    totals: Dict[str, float] = {}
    for span in spans:
        key = "/".join(span.path)
        totals[key] = totals.get(key, 0.0) + span.duration_ns
    return {key: value / 1e6 for key, value in totals.items()}


_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


class JsonlSpanSink:
    """Append completed spans to a JSONL file, one span per line.

    Lazy-open like the record sinks; spans are timing data and therefore not
    part of the checkpoint/rewind protocol — a resumed service simply appends
    its re-run epochs' spans.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = None

    def write(self, spans: Iterable[Span]) -> None:
        # One encoded string and one write per epoch: ``json.dump`` would
        # issue a file write for every JSON token of every span.
        lines = [_encode_compact(span.to_dict()) + "\n" for span in spans]
        if not lines:
            return
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write("".join(lines))
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
