"""Record sinks: stream results out as they are produced.

A sink takes one flat record dict per write: either an epoch's record (see
:meth:`repro.stream.engine.StreamingEngine` for the fields) or an alert
transition (:meth:`repro.service.alerts.Alert.to_dict`), so the engine's
records and the service's alert feed share these sinks, their retry wrapper
and their checkpoint rewind.  A sink must never buffer the run: file sinks
write and flush each record immediately, so a long-lived stream's output is
tail-able and the engine's memory stays O(epoch).  :class:`MemorySink` is
the deliberate exception, used by tests, scenarios, and examples that want
the records in process.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from typing import Any, Callable, Dict, IO, List, Optional, Sequence

from ..obs.identity import LATE_FIELDS


class EpochSink:
    """Base sink: one :meth:`write` per record, then one :meth:`close`."""

    def write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; safe to call more than once."""

    # -- service checkpoint hooks (no-ops for non-file sinks) ----------- #
    def sync(self) -> None:
        """Make everything written so far durable (fsync for file sinks)."""

    def sink_state(self) -> Optional[Dict[str, Any]]:
        """Restorable position, or ``None`` when the sink cannot resume."""
        return None


class _FileSink(EpochSink):
    """Shared machinery of the file-backed record sinks.

    The file opens lazily on first write, so a resume can call
    :meth:`truncate_to` *before* anything touches the file — constructing
    the sink never clobbers the records a previous (interrupted) run
    already made durable.
    """

    kind = "file"

    #: Chaos injection point: when set, called with each record *before* the
    #: write, so an injected ``OSError`` leaves the file untouched and a
    #: retried write lands the record exactly once.
    fault_hook: Optional[Callable[[Dict[str, Any]], None]] = None

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = None
        self._owns = path != "-"

    def _ensure_open(self) -> IO[str]:
        # Only the *first* use opens (mode "w"); a closed sink raises on
        # write rather than silently truncating the file it already wrote.
        if self._handle is None:
            if self.path == "-":
                self._handle = sys.stdout
            else:
                self._handle = open(self.path, "w", newline="")
        return self._handle

    def sync(self) -> None:
        """fsync-on-checkpoint: records up to here survive a crash."""
        if self._owns and self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def tell(self) -> Optional[int]:
        """Current byte offset (``None`` when writing to stdout)."""
        if not self._owns:
            return None
        if self._handle is None or self._handle.closed:
            return 0
        self._handle.flush()
        return self._handle.tell()

    def truncate_to(self, offset: int) -> None:
        """Append-reopen at a checkpointed offset (resume path).

        Records written after the checkpoint are dropped, so the resumed
        run's output is exactly the concatenation the uninterrupted run
        would have produced.
        """
        if not self._owns:
            raise ValueError("cannot truncate a sink writing to stdout")
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        if os.path.exists(self.path):
            handle = open(self.path, "r+", newline="")
        elif offset == 0:
            handle = open(self.path, "w", newline="")
        else:
            raise FileNotFoundError(
                f"sink file '{self.path}' is missing but the checkpoint "
                f"recorded {offset} bytes"
            )
        size = handle.seek(0, os.SEEK_END)
        if size < offset:
            handle.close()
            raise ValueError(
                f"sink file '{self.path}' holds {size} bytes but the "
                f"checkpoint recorded {offset} — the file was truncated "
                "behind the checkpoint's back"
            )
        handle.truncate(offset)
        handle.seek(offset)
        self._handle = handle

    def sink_state(self) -> Optional[Dict[str, Any]]:
        offset = self.tell()
        if offset is None:
            return None
        return {"kind": self.kind, "path": self.path, "offset": offset}

    def close(self) -> None:
        if self._owns and self._handle is not None and not self._handle.closed:
            self._handle.close()


class JsonlSink(_FileSink):
    """One JSON object per line per epoch, flushed as written."""

    kind = "jsonl"

    def write(self, record: Dict[str, Any]) -> None:
        if self.fault_hook is not None:
            self.fault_hook(record)
        handle = self._ensure_open()
        handle.write(json.dumps(record) + "\n")
        handle.flush()


class CsvSink(_FileSink):
    """CSV rows per epoch; the header comes from the first record's keys.

    The header also reserves a column for each late field
    (:data:`repro.obs.identity.LATE_FIELDS`) the first record lacks, so an
    annotation that appears only in later records is kept, not dropped.
    """

    kind = "csv"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._writer: Optional[csv.DictWriter] = None
        self._fieldnames: Optional[List[str]] = None
        self._write_header = True

    def write(self, record: Dict[str, Any]) -> None:
        if self.fault_hook is not None:
            self.fault_hook(record)
        handle = self._ensure_open()
        if self._writer is None:
            if not self._fieldnames:
                self._fieldnames = list(record) + [
                    field for field in LATE_FIELDS if field not in record
                ]
            self._writer = csv.DictWriter(
                handle, fieldnames=self._fieldnames, restval="", extrasaction="ignore"
            )
            if self._write_header:
                self._writer.writeheader()
        self._writer.writerow(record)
        handle.flush()

    def truncate_to(self, offset: int, fieldnames: Optional[Sequence[str]] = None) -> None:
        super().truncate_to(offset)
        if fieldnames is not None:
            self._fieldnames = list(fieldnames)
        if offset > 0:
            # The header survived the truncation; only rows follow.
            self._write_header = False
        self._writer = None

    def sink_state(self) -> Optional[Dict[str, Any]]:
        state = super().sink_state()
        if state is not None:
            state["fieldnames"] = self._fieldnames
        return state


class MemorySink(EpochSink):
    """Keep every record in memory (tests, scenarios, and examples only)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


class ConsoleSink(EpochSink):
    """One compact human-readable line per epoch, flushed as written."""

    def __init__(self, handle: Optional[IO[str]] = None) -> None:
        self._handle = handle or sys.stdout

    def write(self, record: Dict[str, Any]) -> None:
        line = (
            f"epoch {record['epoch']:>4}  {record['level']:<8} "
            f"flows {record['num_flows']:>6}  victims {record['num_victims']:>5}  "
            f"division {record['mem_hh']:.2f}/{record['mem_hl']:.2f}/{record['mem_ll']:.2f}  "
            f"f1 {record['loss_f1']:.2f} (avg {record['rolling_f1']:.2f})  "
            f"are {record['loss_are']:.3f}"
        )
        self._handle.write(line + "\n")
        self._handle.flush()


class ResilientSink(EpochSink):
    """Retry/backoff wrapper hardening a sink against transient I/O errors.

    Only ``OSError`` is retried — anything else is a bug in the sink and
    propagates unchanged.  A write is attempted ``1 + policy.retries`` times
    with sleeps jittered from the deterministic chaos substream
    (:meth:`repro.chaos.RetryPolicy.backoff_delay` keyed on the record's
    epoch); with ``fail_open=True`` an exhausted write is dropped with a
    counted warning instead of killing the service.  ``site`` (``"records"``
    or ``"alerts"``) keys the backoff substream and names the sink in that
    warning.  All checkpoint hooks (sync/tell/truncate_to/sink_state)
    delegate to the wrapped sink, so a resilient sink is
    checkpoint-transparent.
    """

    def __init__(
        self,
        inner: EpochSink,
        policy: Optional[Any] = None,
        seed: int = 0,
        site: str = "records",
        monitor: Optional[Any] = None,
        warn: Optional[Callable[[str], None]] = None,
    ) -> None:
        from ..chaos import RetryPolicy

        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.seed = seed
        self.site = site
        self.monitor = monitor
        self._warn = warn if warn is not None else (
            lambda message: print(message, file=sys.stderr)
        )

    # install_sinks() reaches through wrappers via ``_sink``.
    @property
    def _sink(self) -> EpochSink:
        return self.inner

    @property
    def kind(self) -> str:
        return getattr(self.inner, "kind", "file")

    @property
    def path(self) -> Optional[str]:
        return getattr(self.inner, "path", None)

    def write(self, record: Dict[str, Any]) -> None:
        epoch = int(record.get("epoch", 0) or 0)
        attempt = 0
        while True:
            try:
                self.inner.write(record)
            except OSError as error:
                if attempt >= self.policy.retries:
                    if not self.policy.fail_open:
                        raise
                    if self.monitor is not None:
                        self.monitor.sink_drop()
                    self._warn(
                        f"repro.sink: dropped epoch {epoch} record for "
                        f"{self.site} sink after {attempt + 1} attempts: {error}"
                    )
                    return
                if self.monitor is not None:
                    self.monitor.sink_retry()
                delay = self.policy.backoff_delay(self.seed, self.site, epoch, attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
            else:
                if attempt and self.monitor is not None:
                    self.monitor.recovery("sink")
                return

    def sync(self) -> None:
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()

    def sink_state(self) -> Optional[Dict[str, Any]]:
        return self.inner.sink_state()

    def tell(self) -> Optional[int]:
        tell = getattr(self.inner, "tell", None)
        return tell() if tell is not None else None

    def truncate_to(self, offset: int, *args: Any, **kwargs: Any) -> None:
        self.inner.truncate_to(offset, *args, **kwargs)

