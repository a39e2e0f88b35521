"""Pluggable trace sources: epoch-sized chunks without materializing a run.

A *source* is a re-iterable of :class:`~repro.traffic.flow.Trace` objects —
one per epoch.  Iterating never requires more than the epoch currently being
produced, so a :class:`~repro.stream.engine.StreamingEngine` fed by any source
runs in O(epoch) memory no matter how long the stream is.

Three families of sources cover the streaming scenarios:

* :class:`SyntheticSource` — phase-scheduled synthetic workloads whose flow
  count, victim ratio, loss rate, and size distribution change mid-stream
  (the ``fig9`` and ``stream_timeline`` scenarios run on it);
* :class:`TraceFileSource` — trace-file replay.  The binary epoch store
  (``.rtbin``, :mod:`repro.traffic.store`) replays with **zero parsing**:
  epochs are read-only mmap views handed straight to the columnar pipeline.
  JSONL/CSV remain supported as convert-on-ingest formats, parsed row by row
  into per-epoch columns;
* :class:`MergeSource` — several sources interleaved over one fabric
  (multi-tenant traffic sharing the monitored network).

Every source is **re-iterable**: each ``iter()`` starts a fresh, identical
stream, so a batch baseline can replay exactly the workload a streamed run
consumed (``benchmarks/test_stream_throughput.py`` relies on this).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..traffic.flow import FlowRecord, Trace, TraceColumns, pack_flow_ids
from ..traffic.generator import generate_workload
from ..traffic.store import (
    BINARY_EXTENSIONS,
    BinaryTraceReader,
    is_binary_trace,
    write_binary_trace,
)


class TraceSource:
    """Base class: a re-iterable stream of per-epoch traces."""

    def epochs(self) -> Iterator[Trace]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Trace]:
        return self.epochs()

    def epochs_from(self, start: int) -> Iterator[Trace]:
        """The stream from epoch ``start`` onward (checkpoint resume).

        Because every source is re-iterable and deterministic, the default
        simply generates and discards the first ``start`` epochs.  Sources
        with random access (:class:`SyntheticSource` per-epoch seeds, the
        binary epoch store's manifest) override this with an O(1) seek.
        """
        if start < 0:
            raise ValueError(f"start epoch must be >= 0, got {start}")
        iterator = self.epochs()
        for _ in range(start):
            try:
                next(iterator)
            except StopIteration:
                return
        yield from iterator

    def __len__(self) -> int:
        """Number of epochs, when known in advance (phase schedules)."""
        raise TypeError(f"{type(self).__name__} has no predetermined length")


@dataclass(frozen=True)
class Phase:
    """One stage of a phase-scheduled synthetic stream."""

    epochs: int
    num_flows: int
    victim_ratio: float = 0.0
    loss_rate: float = 0.05
    workload: str = "DCTCP"
    victim_selection: str = "random"

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("a phase must last at least one epoch")
        if self.num_flows <= 0:
            raise ValueError("a phase needs a positive number of flows")
        if not 0.0 <= self.victim_ratio <= 1.0:
            raise ValueError("victim_ratio must be in [0, 1]")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")


@dataclass
class SyntheticSource(TraceSource):
    """Phase-scheduled synthetic workload generator.

    Each epoch's trace is generated lazily from the phase active at that
    epoch, with a deterministic per-epoch seed (``seed + 101 * epoch``) — so
    two iterations, or a resumed and an uninterrupted engine run, see
    identical traffic.  The Figure 9 timeline (the ``fig9`` scenario) runs
    on it, built with :meth:`from_schedule`.
    """

    phases: Sequence[Phase]
    num_hosts: int = 8
    seed: int = 0
    use_five_tuple: bool = True

    def __post_init__(self) -> None:
        self.phases = tuple(self.phases)
        if not self.phases:
            raise ValueError("SyntheticSource needs at least one phase")

    @classmethod
    def steady(
        cls,
        num_flows: int,
        epochs: int,
        victim_ratio: float = 0.0,
        loss_rate: float = 0.05,
        workload: str = "DCTCP",
        num_hosts: int = 8,
        seed: int = 0,
    ) -> "SyntheticSource":
        """A single-phase stream: the same workload for ``epochs`` epochs."""
        phase = Phase(
            epochs=epochs,
            num_flows=num_flows,
            victim_ratio=victim_ratio,
            loss_rate=loss_rate,
            workload=workload,
        )
        return cls(phases=(phase,), num_hosts=num_hosts, seed=seed)

    @classmethod
    def from_schedule(
        cls,
        schedule: Sequence[Tuple[int, float]],
        epochs_per_stage: int,
        loss_rate: float = 0.05,
        workload: str = "DCTCP",
        num_hosts: int = 8,
        seed: int = 0,
    ) -> "SyntheticSource":
        """Build phases from a Figure 9-style ``(num_flows, victim_ratio)`` schedule."""
        phases = tuple(
            Phase(
                epochs=epochs_per_stage,
                num_flows=num_flows,
                victim_ratio=victim_ratio,
                loss_rate=loss_rate,
                workload=workload,
            )
            for num_flows, victim_ratio in schedule
        )
        return cls(phases=phases, num_hosts=num_hosts, seed=seed)

    def __len__(self) -> int:
        return sum(phase.epochs for phase in self.phases)

    def phase_at(self, epoch: int) -> Phase:
        """The phase governing a given epoch index."""
        remaining = epoch
        for phase in self.phases:
            if remaining < phase.epochs:
                return phase
            remaining -= phase.epochs
        raise IndexError(f"epoch {epoch} is beyond the schedule ({len(self)} epochs)")

    def epochs(self) -> Iterator[Trace]:
        return self.epochs_from(0)

    def epochs_from(self, start: int) -> Iterator[Trace]:
        """O(1) seek: each epoch is a pure function of its index and phase."""
        if start < 0:
            raise ValueError(f"start epoch must be >= 0, got {start}")
        for epoch in range(start, len(self)):
            phase = self.phase_at(epoch)
            yield generate_workload(
                phase.workload,
                num_flows=phase.num_flows,
                victim_ratio=phase.victim_ratio,
                loss_rate=phase.loss_rate,
                num_hosts=self.num_hosts,
                victim_selection=phase.victim_selection,
                seed=self.seed + 101 * epoch,
                use_five_tuple=self.use_five_tuple,
            )


# --------------------------------------------------------------------------- #
# trace-file replay
# --------------------------------------------------------------------------- #
#: Column order of the on-disk flow records (JSONL objects use the same keys).
TRACE_FIELDS = (
    "epoch",
    "flow_id",
    "size",
    "src_host",
    "dst_host",
    "is_victim",
    "loss_rate",
    "lost_packets",
)


def _record_to_row(epoch: int, flow) -> dict:
    # Coerce to plain Python scalars: rows now come from NumPy-backed column
    # views, and np.uint64 / np.bool_ leak through json.dumps (TypeError) or
    # serialize in forms that do not round-trip.  int() also keeps packed
    # 104-bit 5-tuple IDs exact (object-dtype columns hold Python ints).
    src_host = flow.src_host
    dst_host = flow.dst_host
    return {
        "epoch": int(epoch),
        "flow_id": int(flow.flow_id),
        "size": int(flow.size),
        "src_host": None if src_host is None else int(src_host),
        "dst_host": None if dst_host is None else int(dst_host),
        "is_victim": bool(flow.is_victim),
        "loss_rate": float(flow.loss_rate),
        "lost_packets": int(flow.lost_packets),
    }


def _row_to_record(row: dict) -> FlowRecord:
    def _opt_int(value) -> Optional[int]:
        if value is None or value == "":
            return None
        return int(value)

    is_victim = row.get("is_victim", False)
    if isinstance(is_victim, str):
        is_victim = is_victim.strip().lower() in ("1", "true", "yes")
    # int(str) keeps arbitrary-precision wide IDs exact; int(float) would not.
    flow_id = row["flow_id"]
    if isinstance(flow_id, float):
        raise ValueError(
            f"flow_id {flow_id!r} arrived as a float — wide 104-bit IDs cannot "
            "round-trip through floating point; re-export the trace"
        )
    return FlowRecord(
        flow_id=int(flow_id),
        size=int(row["size"]),
        src_host=_opt_int(row.get("src_host")),
        dst_host=_opt_int(row.get("dst_host")),
        is_victim=bool(is_victim),
        loss_rate=float(row.get("loss_rate") or 0.0),
        lost_packets=int(row.get("lost_packets") or 0),
    )


class _ColumnAccumulator:
    """Builds one epoch's :class:`TraceColumns` from parsed rows (ingest path)."""

    __slots__ = ("flow_ids", "sizes", "src_hosts", "dst_hosts", "is_victim",
                 "loss_rate", "lost_packets")

    def __init__(self) -> None:
        self.flow_ids: List[int] = []
        self.sizes: List[int] = []
        self.src_hosts: List[int] = []
        self.dst_hosts: List[int] = []
        self.is_victim: List[bool] = []
        self.loss_rate: List[float] = []
        self.lost_packets: List[int] = []

    def __len__(self) -> int:
        return len(self.flow_ids)

    def add(self, record: FlowRecord) -> None:
        self.flow_ids.append(record.flow_id)
        self.sizes.append(record.size)
        self.src_hosts.append(-1 if record.src_host is None else record.src_host)
        self.dst_hosts.append(-1 if record.dst_host is None else record.dst_host)
        self.is_victim.append(record.is_victim)
        self.loss_rate.append(record.loss_rate)
        self.lost_packets.append(record.lost_packets)

    def build(self) -> Trace:
        columns = TraceColumns(
            flow_ids=pack_flow_ids(self.flow_ids),
            sizes=np.array(self.sizes, dtype=np.int64),
            src_hosts=np.array(self.src_hosts, dtype=np.int64),
            dst_hosts=np.array(self.dst_hosts, dtype=np.int64),
            is_victim=np.array(self.is_victim, dtype=bool),
            lost_packets=np.array(self.lost_packets, dtype=np.int64),
            loss_rate=np.array(self.loss_rate, dtype=np.float64),
        )
        return Trace(columns=columns)


def write_trace_file(path: str, epochs: Iterable[Trace]) -> int:
    """Serialize per-epoch traces to a trace file; returns epochs written.

    The format is inferred from the extension: ``.rtbin`` is the zero-copy
    binary epoch store (:mod:`repro.traffic.store`), ``.jsonl`` / ``.csv`` are
    the row-per-flow text formats (each row tagged with its epoch index).  All
    three replay losslessly through :class:`TraceFileSource`, except that the
    text formats cannot represent a row-less (empty) epoch.
    """
    fmt = _infer_format(path)
    if fmt == "binary":
        return write_binary_trace(path, epochs)
    count = 0
    with open(path, "w", newline="") as handle:
        if fmt == "csv":
            writer = csv.DictWriter(handle, fieldnames=list(TRACE_FIELDS))
            writer.writeheader()
            for epoch, trace in enumerate(epochs):
                for flow in trace.flows:
                    writer.writerow(_record_to_row(epoch, flow))
                count += 1
        else:
            for epoch, trace in enumerate(epochs):
                for flow in trace.flows:
                    handle.write(json.dumps(_record_to_row(epoch, flow)) + "\n")
                count += 1
    return count


def _infer_format(path: str) -> str:
    extension = os.path.splitext(path)[1].lower()
    if extension in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if extension == ".csv":
        return "csv"
    if extension in BINARY_EXTENSIONS:
        return "binary"
    # Existing files can be sniffed regardless of their extension.
    if os.path.exists(path) and is_binary_trace(path):
        return "binary"
    raise ValueError(
        f"cannot infer trace format from '{path}' (use .rtbin, .jsonl, or .csv)"
    )


@dataclass
class TraceFileSource(TraceSource):
    """Replay a trace file (binary ``.rtbin``, JSONL, or CSV) epoch by epoch.

    Binary epoch stores replay with zero parsing: each epoch is a set of
    read-only mmap-backed column views (frozen traces), so only the pages of
    the epoch being consumed are ever resident.  Text rows are grouped into
    epochs by their ``epoch`` column (consecutive runs of equal values); files
    without that column are chunked every ``flows_per_epoch`` rows.  Text
    files are read line by line and assembled into per-epoch columns — only
    the epoch currently being built is ever resident.
    """

    path: str
    format: Optional[str] = None
    flows_per_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        self.format = self.format or _infer_format(self.path)
        if self.format not in ("jsonl", "csv", "binary"):
            raise ValueError(f"unsupported trace format '{self.format}'")
        if self.flows_per_epoch is not None and self.flows_per_epoch < 1:
            raise ValueError(
                f"flows_per_epoch must be >= 1, got {self.flows_per_epoch}"
            )

    def __len__(self) -> int:
        if self.format == "binary":
            with BinaryTraceReader(self.path) as reader:
                return len(reader)
        raise TypeError(f"{type(self).__name__} over text files has no predetermined length")

    def _rows(self) -> Iterator[dict]:
        if self.format == "csv":
            with open(self.path, newline="") as handle:
                yield from csv.DictReader(handle)
        else:
            with open(self.path) as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        yield json.loads(line)

    def epochs(self) -> Iterator[Trace]:
        if self.format == "binary":
            reader = BinaryTraceReader(self.path)
            try:
                yield from reader.epochs()
            finally:
                reader.close()
            return
        yield from self._text_epochs()

    def epochs_from(self, start: int) -> Iterator[Trace]:
        """Seek via the binary manifest; text formats skip-parse to ``start``."""
        if start < 0:
            raise ValueError(f"start epoch must be >= 0, got {start}")
        if self.format == "binary":
            reader = BinaryTraceReader(self.path)
            try:
                for index in range(start, len(reader)):
                    yield reader.read_epoch(index)
            finally:
                reader.close()
            return
        yield from super().epochs_from(start)

    def _text_epochs(self) -> Iterator[Trace]:
        flows = _ColumnAccumulator()
        current_epoch: Optional[int] = None
        for row in self._rows():
            marker = row.get("epoch")
            marker = int(marker) if marker not in (None, "") else None
            if marker is not None and marker != current_epoch:
                if len(flows):
                    yield flows.build()
                    flows = _ColumnAccumulator()
                current_epoch = marker
            flows.add(_row_to_record(row))
            if (
                marker is None
                and self.flows_per_epoch
                and len(flows) >= self.flows_per_epoch
            ):
                yield flows.build()
                flows = _ColumnAccumulator()
        if len(flows):
            yield flows.build()


# --------------------------------------------------------------------------- #
# multi-tenant merge
# --------------------------------------------------------------------------- #
@dataclass
class MergeSource(TraceSource):
    """Interleave several sources over one fabric, epoch by epoch.

    Every epoch concatenates one epoch from each still-live tenant, in tenant
    order (sketches are order-insensitive within an epoch, so concatenation
    and fine-grained interleaving are equivalent to the data plane).  With
    ``stop="longest"`` (the default) exhausted tenants simply drop out —
    tenants come and go without ending the stream; ``stop="shortest"`` ends
    the merged stream with its shortest tenant.
    """

    sources: Sequence[TraceSource]
    stop: str = "longest"

    def __post_init__(self) -> None:
        self.sources = tuple(self.sources)
        if not self.sources:
            raise ValueError("MergeSource needs at least one tenant source")
        if self.stop not in ("longest", "shortest"):
            raise ValueError("stop must be 'longest' or 'shortest'")

    def epochs(self) -> Iterator[Trace]:
        iterators: List[Optional[Iterator[Trace]]] = [
            iter(source) for source in self.sources
        ]
        while True:
            parts: List[TraceColumns] = []
            live = 0
            for index, iterator in enumerate(iterators):
                if iterator is None:
                    continue
                try:
                    trace = next(iterator)
                except StopIteration:
                    iterators[index] = None
                    if self.stop == "shortest":
                        return
                    continue
                live += 1
                parts.append(trace.columns())
            if not live:
                return
            yield Trace(columns=TraceColumns.concat(parts))


# --------------------------------------------------------------------------- #
# bounded views
# --------------------------------------------------------------------------- #
@dataclass
class LimitedSource(TraceSource):
    """At most the first ``max_epochs`` epochs of another source."""

    source: TraceSource
    max_epochs: int

    def epochs(self) -> Iterator[Trace]:
        for epoch, trace in enumerate(self.source):
            if epoch >= self.max_epochs:
                return
            yield trace

    def epochs_from(self, start: int) -> Iterator[Trace]:
        for epoch, trace in enumerate(self.source.epochs_from(start), start=start):
            if epoch >= self.max_epochs:
                return
            yield trace

    def __len__(self) -> int:
        return min(self.max_epochs, len(self.source))
