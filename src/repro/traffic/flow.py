"""Flow record types shared by the traffic generators and the simulator.

Since the columnar-first refactor the *primary* representation of a workload
is :class:`TraceColumns` — a struct-of-arrays (NumPy) store holding one column
per flow attribute.  :class:`Trace` is a thin handle around one
``TraceColumns`` instance, and the historical row-object API
(``trace.flows[i]``, iteration over :class:`FlowRecord`-shaped rows) is a
**lazy view**: :class:`FlowRow` proxies read and write the backing arrays
directly, so nothing is ever rebuilt behind the caller's back.

Mutation contract
-----------------
* ``trace.columns()`` returns the backing store itself (zero copy).  Edits to
  the arrays, or through row proxies, are immediately visible everywhere —
  there is no cached secondary representation to desynchronize.
* ``trace.freeze()`` marks every column read-only (used for mmap-backed
  traces replayed from the binary epoch store); further writes raise.
* Wholesale replacement goes through ``trace.set_columns(...)`` or by
  constructing a new :class:`Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..sketches.hashing import fold_key, unfold_key

#: Bit widths of the 5-tuple fields: srcIP, dstIP, srcPort, dstPort, protocol.
FIVE_TUPLE_WIDTHS = (32, 32, 16, 16, 8)

_UINT64_MAX = (1 << 64) - 1


@dataclass(frozen=True, order=True)
class FlowKey:
    """A 5-tuple flow identifier.

    The paper uses the 104-bit 5-tuple as the flow ID on the testbed and the
    32-bit source IP for the CPU experiments; :meth:`packed` produces the
    integer form that the sketches encode.
    """

    src_ip: int
    dst_ip: int
    src_port: int = 0
    dst_port: int = 0
    protocol: int = 17  # UDP, as in the testbed workloads

    def packed(self) -> int:
        """Pack the 5-tuple into a single 104-bit integer."""
        return fold_key(
            (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol),
            FIVE_TUPLE_WIDTHS,
        )

    @classmethod
    def from_packed(cls, key: int) -> "FlowKey":
        src_ip, dst_ip, src_port, dst_port, protocol = unfold_key(key, FIVE_TUPLE_WIDTHS)
        return cls(src_ip, dst_ip, src_port, dst_port, protocol)

    def __int__(self) -> int:
        return self.packed()


@dataclass
class FlowRecord:
    """Ground-truth description of one flow, as a standalone row object.

    Still the canonical way to hand-build small traces (tests, fixtures) and
    the reference for what one row of :class:`TraceColumns` means; bulk
    generation and replay never materialize these.
    """

    flow_id: int
    size: int
    src_host: Optional[int] = None
    dst_host: Optional[int] = None
    is_victim: bool = False
    loss_rate: float = 0.0
    lost_packets: int = 0

    def delivered_packets(self) -> int:
        return self.size - self.lost_packets


def pack_flow_ids(ids: Sequence[int]) -> np.ndarray:
    """Flow IDs as uint64 when they all fit, else an object array of ints."""
    if isinstance(ids, np.ndarray) and ids.dtype != object:
        return ids.astype(np.uint64, copy=False)
    try:
        return np.array(ids, dtype=np.uint64)
    except (OverflowError, TypeError):
        return np.array([int(i) for i in ids], dtype=object)


@dataclass
class TraceColumns:
    """Struct-of-arrays storage of a trace: the primary representation.

    ``flow_ids`` is uint64 when every ID fits 64 bits, otherwise an
    object-dtype array of Python ints (packed 104-bit 5-tuples).  ``src_hosts``
    and ``dst_hosts`` use ``-1`` for unset endpoints.
    """

    flow_ids: np.ndarray
    sizes: np.ndarray
    src_hosts: np.ndarray
    dst_hosts: np.ndarray
    is_victim: np.ndarray
    lost_packets: np.ndarray
    loss_rate: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.loss_rate is None:
            self.loss_rate = np.zeros(len(self.flow_ids), dtype=np.float64)
        lengths = {
            len(self.flow_ids),
            len(self.sizes),
            len(self.src_hosts),
            len(self.dst_hosts),
            len(self.is_victim),
            len(self.lost_packets),
            len(self.loss_rate),
        }
        if len(lengths) != 1:
            raise ValueError(f"column lengths disagree: {sorted(lengths)}")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls(
            flow_ids=np.zeros(0, dtype=np.uint64),
            sizes=np.zeros(0, dtype=np.int64),
            src_hosts=np.full(0, -1, dtype=np.int64),
            dst_hosts=np.full(0, -1, dtype=np.int64),
            is_victim=np.zeros(0, dtype=bool),
            lost_packets=np.zeros(0, dtype=np.int64),
            loss_rate=np.zeros(0, dtype=np.float64),
        )

    @classmethod
    def from_records(cls, records: Iterable) -> "TraceColumns":
        """Build columns from row objects (:class:`FlowRecord` or row views)."""
        records = list(records)
        return cls(
            flow_ids=pack_flow_ids([int(r.flow_id) for r in records]),
            sizes=np.array([r.size for r in records], dtype=np.int64),
            src_hosts=np.array(
                [-1 if r.src_host is None else r.src_host for r in records],
                dtype=np.int64,
            ),
            dst_hosts=np.array(
                [-1 if r.dst_host is None else r.dst_host for r in records],
                dtype=np.int64,
            ),
            is_victim=np.array([bool(r.is_victim) for r in records], dtype=bool),
            lost_packets=np.array([r.lost_packets for r in records], dtype=np.int64),
            loss_rate=np.array([r.loss_rate for r in records], dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """Concatenate several column sets (copies; widens IDs if needed)."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0].copy()
        if any(p.flow_ids.dtype == object for p in parts):
            ids = np.array(
                [int(i) for p in parts for i in p.flow_ids.tolist()], dtype=object
            )
        else:
            ids = np.concatenate([p.flow_ids for p in parts])
        return cls(
            flow_ids=ids,
            sizes=np.concatenate([p.sizes for p in parts]),
            src_hosts=np.concatenate([p.src_hosts for p in parts]),
            dst_hosts=np.concatenate([p.dst_hosts for p in parts]),
            is_victim=np.concatenate([p.is_victim for p in parts]),
            lost_packets=np.concatenate([p.lost_packets for p in parts]),
            loss_rate=np.concatenate([p.loss_rate for p in parts]),
        )

    # ------------------------------------------------------------------ #
    # explicit column ops
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.flow_ids)

    @property
    def num_flows(self) -> int:
        return len(self.flow_ids)

    @property
    def wide_ids(self) -> bool:
        """True when the IDs spill past 64 bits (object-dtype column)."""
        return self.flow_ids.dtype == object

    def copy(self) -> "TraceColumns":
        return TraceColumns(
            flow_ids=self.flow_ids.copy(),
            sizes=self.sizes.copy(),
            src_hosts=self.src_hosts.copy(),
            dst_hosts=self.dst_hosts.copy(),
            is_victim=self.is_victim.copy(),
            lost_packets=self.lost_packets.copy(),
            loss_rate=self.loss_rate.copy(),
        )

    def take(self, indices: Union[Sequence[int], np.ndarray]) -> "TraceColumns":
        """A new column set restricted to the given row indices (in order)."""
        indices = np.asarray(indices)
        return TraceColumns(
            flow_ids=self.flow_ids[indices],
            sizes=self.sizes[indices],
            src_hosts=self.src_hosts[indices],
            dst_hosts=self.dst_hosts[indices],
            is_victim=self.is_victim[indices],
            lost_packets=self.lost_packets[indices],
            loss_rate=self.loss_rate[indices],
        )

    def with_loss_state(
        self,
        is_victim: np.ndarray,
        loss_rate: np.ndarray,
        lost_packets: np.ndarray,
    ) -> "TraceColumns":
        """Same flows with replaced victim/loss columns (identity columns shared)."""
        return TraceColumns(
            flow_ids=self.flow_ids,
            sizes=self.sizes,
            src_hosts=self.src_hosts,
            dst_hosts=self.dst_hosts,
            is_victim=np.asarray(is_victim, dtype=bool),
            lost_packets=np.asarray(lost_packets, dtype=np.int64),
            loss_rate=np.asarray(loss_rate, dtype=np.float64),
        )

    def delivered(self) -> np.ndarray:
        """Per-flow delivered packet counts (``sizes - lost_packets``)."""
        return self.sizes - self.lost_packets

    def freeze(self) -> "TraceColumns":
        """Mark every column read-only; returns self."""
        for array in (
            self.flow_ids,
            self.sizes,
            self.src_hosts,
            self.dst_hosts,
            self.is_victim,
            self.lost_packets,
            self.loss_rate,
        ):
            array.flags.writeable = False
        return self

    @property
    def frozen(self) -> bool:
        return not self.sizes.flags.writeable


class FlowRow:
    """A lazy row view over one index of a :class:`TraceColumns` store.

    Attribute reads return plain Python scalars (so the row is
    indistinguishable from a :class:`FlowRecord` to downstream code, including
    ``json``); attribute writes go straight through to the backing arrays.
    """

    __slots__ = ("_cols", "_index")

    def __init__(self, cols: TraceColumns, index: int) -> None:
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_index", index)

    # -- reads --------------------------------------------------------- #
    @property
    def flow_id(self) -> int:
        return int(self._cols.flow_ids[self._index])

    @property
    def size(self) -> int:
        return int(self._cols.sizes[self._index])

    @property
    def src_host(self) -> Optional[int]:
        value = int(self._cols.src_hosts[self._index])
        return None if value < 0 else value

    @property
    def dst_host(self) -> Optional[int]:
        value = int(self._cols.dst_hosts[self._index])
        return None if value < 0 else value

    @property
    def is_victim(self) -> bool:
        return bool(self._cols.is_victim[self._index])

    @property
    def loss_rate(self) -> float:
        return float(self._cols.loss_rate[self._index])

    @property
    def lost_packets(self) -> int:
        return int(self._cols.lost_packets[self._index])

    def delivered_packets(self) -> int:
        return self.size - self.lost_packets

    def to_record(self) -> FlowRecord:
        """Materialize this row as a standalone :class:`FlowRecord`."""
        return FlowRecord(
            flow_id=self.flow_id,
            size=self.size,
            src_host=self.src_host,
            dst_host=self.dst_host,
            is_victim=self.is_victim,
            loss_rate=self.loss_rate,
            lost_packets=self.lost_packets,
        )

    # -- writes (column write-through) --------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        cols, index = self._cols, self._index
        if name == "flow_id":
            value = int(value)
            if cols.flow_ids.dtype != object and value > _UINT64_MAX:
                raise ValueError(
                    "cannot widen a uint64 flow-ID column through a row view; "
                    "rebuild the trace with the wide ID instead"
                )
            cols.flow_ids[index] = value
        elif name == "size":
            cols.sizes[index] = value
        elif name == "src_host":
            cols.src_hosts[index] = -1 if value is None else value
        elif name == "dst_host":
            cols.dst_hosts[index] = -1 if value is None else value
        elif name == "is_victim":
            cols.is_victim[index] = bool(value)
        elif name == "loss_rate":
            cols.loss_rate[index] = value
        elif name == "lost_packets":
            cols.lost_packets[index] = value
        else:
            raise AttributeError(f"FlowRow has no attribute '{name}'")

    def __repr__(self) -> str:
        return (
            f"FlowRow(flow_id={self.flow_id}, size={self.size}, "
            f"src_host={self.src_host}, dst_host={self.dst_host}, "
            f"is_victim={self.is_victim}, lost_packets={self.lost_packets})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (FlowRow, FlowRecord)):
            return NotImplemented
        return (
            self.flow_id == other.flow_id
            and self.size == other.size
            and self.src_host == other.src_host
            and self.dst_host == other.dst_host
            and self.is_victim == other.is_victim
            and self.loss_rate == other.loss_rate
            and self.lost_packets == other.lost_packets
        )


class FlowView(Sequence):
    """Sequence view of a trace's rows: ``trace.flows`` without row objects."""

    __slots__ = ("_cols",)

    def __init__(self, cols: TraceColumns) -> None:
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [FlowRow(self._cols, i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("flow index out of range")
        return FlowRow(self._cols, index)

    def __iter__(self) -> Iterator[FlowRow]:
        cols = self._cols
        for index in range(len(cols)):
            yield FlowRow(cols, index)

    def __add__(self, other):
        # ``trace.flows`` was historically a list; keep concatenation working.
        if isinstance(other, (FlowView, list, tuple)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, (list, tuple)):
            return list(other) + list(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<FlowView of {len(self)} flows>"


class Trace:
    """A workload: columnar per-flow ground truth plus lazy row views."""

    __slots__ = ("_columns",)

    def __init__(
        self,
        flows: Optional[Iterable] = None,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        if columns is not None and flows is not None:
            raise ValueError("pass either flows or columns, not both")
        if columns is not None:
            self._columns = columns
        elif flows is not None:
            self._columns = TraceColumns.from_records(flows)
        else:
            self._columns = TraceColumns.empty()

    @classmethod
    def from_columns(cls, columns: TraceColumns) -> "Trace":
        return cls(columns=columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __repr__(self) -> str:
        return f"Trace({len(self)} flows, {self.num_packets()} packets)"

    # ------------------------------------------------------------------ #
    # columnar access (primary)
    # ------------------------------------------------------------------ #
    def columns(self) -> TraceColumns:
        """The backing columnar store (zero copy — *not* a snapshot).

        Mutations through row views or direct array edits are immediately
        reflected here; there is no rebuild and nothing to desynchronize.
        """
        return self._columns

    def set_columns(self, columns: TraceColumns) -> None:
        """Replace the backing store wholesale (the explicit mutation op)."""
        self._columns = columns

    def freeze(self) -> "Trace":
        """Mark the trace immutable (mmap-backed replays arrive frozen)."""
        self._columns.freeze()
        return self

    @property
    def frozen(self) -> bool:
        return self._columns.frozen

    # ------------------------------------------------------------------ #
    # row views (compatibility surface)
    # ------------------------------------------------------------------ #
    @property
    def flows(self) -> FlowView:
        """Lazy row views over the columns; writes go through to the arrays."""
        return FlowView(self._columns)

    @flows.setter
    def flows(self, records: Iterable) -> None:
        self._columns = TraceColumns.from_records(records)

    # ------------------------------------------------------------------ #
    # vectorized aggregates
    # ------------------------------------------------------------------ #
    def num_packets(self) -> int:
        return int(self._columns.sizes.sum()) if len(self._columns) else 0

    def num_victims(self) -> int:
        return int(self._columns.is_victim.sum()) if len(self._columns) else 0

    def total_losses(self) -> int:
        return int(self._columns.lost_packets.sum()) if len(self._columns) else 0

    def flow_sizes(self) -> Dict[int, int]:
        """Ground-truth ``{flow_id: size}`` (trace order; duplicates last-win)."""
        cols = self._columns
        return dict(zip(self._id_list(), cols.sizes.tolist()))

    def loss_map(self) -> Dict[int, int]:
        """Ground-truth ``{flow_id: lost_packets}`` restricted to victims."""
        cols = self._columns
        positions = np.nonzero(cols.lost_packets > 0)[0]
        if not positions.size:
            return {}
        ids = cols.flow_ids[positions].tolist()
        return dict(zip([int(i) for i in ids], cols.lost_packets[positions].tolist()))

    def size_distribution(self) -> Dict[int, int]:
        """Ground-truth ``{flow_size: number_of_flows}``."""
        sizes, counts = np.unique(self._columns.sizes, return_counts=True)
        return dict(zip(sizes.tolist(), counts.tolist()))

    def _id_list(self) -> List[int]:
        ids = self._columns.flow_ids.tolist()
        if self._columns.wide_ids:
            return [int(i) for i in ids]
        return ids

