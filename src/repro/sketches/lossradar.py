"""LossRadar baseline (Li et al., CoNEXT 2016).

LossRadar detects lost packets with an Invertible Bloom Filter over *packets*:
each packet (flow ID plus a per-flow sequence number) is XORed into ``k``
cells upstream and downstream of a link/segment.  Subtracting the two IBFs
leaves exactly the lost packets, which are recovered by peeling cells whose
count is 1.  Memory therefore scales with the number of lost *packets*, which
is the behaviour ChameleMon's Figures 4–6 contrast with FermatSketch.

The cells live in NumPy arrays: packet batches are inserted with one
``hash_array`` evaluation plus scatter add/XOR per hash function, subtraction
is an array op, and decoding has two bit-identical paths — the scalar queue
reference (:meth:`LossRadar.decode_scalar`) and the default frontier-based
vectorized peeler (:meth:`LossRadar.decode`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .base import DecodeResult, InvertibleSketch
from .hashing import HashFamily, KeyArray, PairwiseHash

#: Paper configuration: 32-bit count + 48-bit xorSum (32-bit flow ID and
#: 16-bit per-packet sequence number).
CELL_BYTES = 10
SEQUENCE_BITS = 16

#: Hand the frontier to the scalar queue below this many candidate cells.
SCALAR_TAIL_CELLS = 32

#: Safety valve: each frontier round rescans the whole table for pure cells,
#: so degenerate states (corrupt meters that keep trickling out single cells)
#: are delegated to the scalar queue after this many rounds.
MAX_FRONTIER_ROUNDS = 64

#: Packet batches below this size are cheaper on the scalar insert loop than
#: on the fixed overhead of the vectorized hash kernels.
_MIN_BATCH_PACKETS = 8


class LossRadar(InvertibleSketch):
    """A LossRadar meter: an invertible Bloom filter over packet identifiers."""

    def __init__(self, num_cells: int, num_hashes: int = 3, seed: int = 0) -> None:
        if num_cells <= 0:
            raise ValueError("num_cells must be positive")
        num_cells = max(num_cells, num_hashes)
        self.num_cells = num_cells
        self.num_hashes = num_hashes
        # Partitioned hashing: each hash owns a slice of the table so that a
        # packet never maps twice into the same cell.
        family = HashFamily(seed)
        self._partition = num_cells // num_hashes
        self._hashes: List[PairwiseHash] = family.draw_many(num_hashes, self._partition)
        self._count = np.zeros(num_cells, dtype=np.int64)
        self._xorsum = np.zeros(num_cells, dtype=np.uint64)

    def _cells_for(self, identifier: int) -> List[int]:
        return [
            index * self._partition + h(identifier)
            for index, h in enumerate(self._hashes)
        ]

    def _cells_for_batch(self, keys: KeyArray) -> List[np.ndarray]:
        return [
            index * self._partition + h.hash_array(keys)
            for index, h in enumerate(self._hashes)
        ]

    @classmethod
    def for_memory(cls, memory_bytes: int, seed: int = 0, **kwargs) -> "LossRadar":
        return cls(max(1, memory_bytes // CELL_BYTES), seed=seed, **kwargs)

    def memory_bytes(self) -> int:
        return self.num_cells * CELL_BYTES

    @staticmethod
    def packet_identifier(flow_id: int, sequence: int) -> int:
        """Pack a flow ID and a per-flow sequence number into one identifier."""
        return (flow_id << SEQUENCE_BITS) | (sequence & ((1 << SEQUENCE_BITS) - 1))

    @staticmethod
    def split_identifier(identifier: int) -> Tuple[int, int]:
        return identifier >> SEQUENCE_BITS, identifier & ((1 << SEQUENCE_BITS) - 1)

    @staticmethod
    def _check_flow_id(flow_id: int) -> None:
        if flow_id < 0 or flow_id >= (1 << (64 - SEQUENCE_BITS)):
            raise ValueError(
                "LossRadar flow IDs must fit in "
                f"{64 - SEQUENCE_BITS} bits (packet identifiers are 64-bit)"
            )

    # ------------------------------------------------------------------ #
    def insert(self, flow_id: int, count: int = 1) -> None:
        """Insert ``count`` consecutive packets of ``flow_id`` starting at seq 0."""
        self._check_flow_id(flow_id)
        if count < _MIN_BATCH_PACKETS:
            for sequence in range(count):
                self.insert_packet(flow_id, sequence)
            return
        base = np.uint64(flow_id << SEQUENCE_BITS)
        # Sequences wrap at SEQUENCE_BITS exactly like packet_identifier().
        sequences = np.arange(count, dtype=np.uint64) & np.uint64(
            (1 << SEQUENCE_BITS) - 1
        )
        self._insert_identifiers(base | sequences)

    def insert_packet(self, flow_id: int, sequence: int) -> None:
        """Insert a single packet identified by ``(flow_id, sequence)``."""
        self._check_flow_id(flow_id)
        identifier = self.packet_identifier(flow_id, sequence)
        for j in self._cells_for(identifier):
            self._count[j] += 1
            self._xorsum[j] ^= np.uint64(identifier)

    def insert_packets(
        self,
        flow_ids: Union[Sequence[int], np.ndarray],
        sequences: Union[Sequence[int], np.ndarray],
    ) -> None:
        """Insert many ``(flow_id, sequence)`` packets in one vectorized pass."""
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        sequences = np.asarray(sequences, dtype=np.uint64)
        if flow_ids.shape != sequences.shape:
            raise ValueError("flow_ids and sequences must have the same length")
        if flow_ids.size == 0:
            return
        if int(flow_ids.max()) >= (1 << (64 - SEQUENCE_BITS)):
            self._check_flow_id(int(flow_ids.max()))
        identifiers = (flow_ids << np.uint64(SEQUENCE_BITS)) | (
            sequences & np.uint64((1 << SEQUENCE_BITS) - 1)
        )
        self._insert_identifiers(identifiers)

    def insert_batch(self, flow_ids, counts) -> None:
        """Insert ``counts[k]`` consecutive packets (from seq 0) per flow."""
        counts = np.asarray(counts, dtype=np.int64)
        flow_ids = np.asarray(flow_ids, dtype=np.uint64)
        if flow_ids.shape != counts.shape:
            raise ValueError("flow_ids and counts must have the same length")
        if counts.size and counts.min() < 0:
            raise ValueError("LossRadar only records positive packet counts")
        total = int(counts.sum())
        if total == 0:
            return
        if flow_ids.size and int(flow_ids.max()) >= (1 << (64 - SEQUENCE_BITS)):
            self._check_flow_id(int(flow_ids.max()))
        # Per-flow sequence ramps 0..count-1 (wrapping at SEQUENCE_BITS like
        # packet_identifier), laid out back to back.
        bases = np.repeat(flow_ids << np.uint64(SEQUENCE_BITS), counts)
        offsets = np.arange(total, dtype=np.uint64) - np.repeat(
            (np.cumsum(counts) - counts).astype(np.uint64), counts
        )
        offsets &= np.uint64((1 << SEQUENCE_BITS) - 1)
        self._insert_identifiers(bases | offsets)

    def _insert_identifiers(self, identifiers: np.ndarray) -> None:
        """Scatter a batch of packet identifiers into the IBF (exact order-free)."""
        for cells in self._cells_for_batch(KeyArray(identifiers)):
            np.add.at(self._count, cells, 1)
            np.bitwise_xor.at(self._xorsum, cells, identifiers)

    def add(self, other: "LossRadar") -> "LossRadar":
        """In-place merge of a compatible LossRadar (exact: the IBF is linear).

        Partitioned insertion is exact when the partitions' *packet identifier*
        sets are disjoint — e.g. flow-disjoint partitions, since identifiers
        embed the flow ID.
        """
        if (
            self.num_cells != other.num_cells
            or self.num_hashes != other.num_hashes
        ):
            raise ValueError("LossRadar instances must share geometry to be added")
        self._count += other._count
        self._xorsum ^= other._xorsum
        return self

    def __add__(self, other: "LossRadar") -> "LossRadar":
        return self.copy().add(other)

    def subtract(self, other: "LossRadar") -> "LossRadar":
        """In-place subtraction; the result encodes packets seen here but not there."""
        if (
            self.num_cells != other.num_cells
            or self.num_hashes != other.num_hashes
        ):
            raise ValueError("LossRadar instances must share geometry to be subtracted")
        self._count -= other._count
        self._xorsum ^= other._xorsum
        return self

    def copy(self) -> "LossRadar":
        clone = LossRadar.__new__(LossRadar)
        clone.num_cells = self.num_cells
        clone.num_hashes = self.num_hashes
        clone._partition = self._partition
        clone._hashes = self._hashes
        clone._count = self._count.copy()
        clone._xorsum = self._xorsum.copy()
        return clone

    def __sub__(self, other: "LossRadar") -> "LossRadar":
        return self.copy().subtract(other)

    # ------------------------------------------------------------------ #
    def decode(self) -> DecodeResult:
        """Peel the IBF and aggregate recovered packets per flow.

        Peels the whole ``count == 1`` frontier per round with NumPy
        scatters; :meth:`decode_scalar` is the scalar queue reference.  Both
        leave the meter untouched and produce identical per-flow packet counts.
        """
        count = self._count.copy()
        xorsum = self._xorsum.copy()
        flows: Dict[int, int] = {}
        for _round in range(MAX_FRONTIER_ROUNDS + 1):
            frontier = np.nonzero(count == 1)[0]
            if frontier.size == 0:
                break
            if frontier.size <= SCALAR_TAIL_CELLS or _round == MAX_FRONTIER_ROUNDS:
                self._peel_scalar(count, xorsum, flows)
                break
            identifiers = xorsum[frontier]
            # A packet pure in several cells at once is peeled exactly once.
            identifiers = np.unique(identifiers)
            for cells in self._cells_for_batch(KeyArray(identifiers)):
                np.subtract.at(count, cells, 1)
                np.bitwise_xor.at(xorsum, cells, identifiers)
            flow_ids, packets = np.unique(
                identifiers >> np.uint64(SEQUENCE_BITS), return_counts=True
            )
            for flow_id, num in zip(flow_ids.tolist(), packets.tolist()):
                flows[flow_id] = flows.get(flow_id, 0) + num
        remaining = int(np.count_nonzero(count))
        return DecodeResult(flows=flows, success=remaining == 0, remaining=remaining)

    def decode_scalar(self) -> DecodeResult:
        """The scalar queue decoder — the reference implementation."""
        count = self._count.copy()
        xorsum = self._xorsum.copy()
        flows: Dict[int, int] = {}
        self._peel_scalar(count, xorsum, flows)
        remaining = int(np.count_nonzero(count))
        return DecodeResult(flows=flows, success=remaining == 0, remaining=remaining)

    def _peel_scalar(
        self, count: np.ndarray, xorsum: np.ndarray, flows: Dict[int, int]
    ) -> None:
        """Queue-peel the given cell state to exhaustion (mutates arrays)."""
        queue: deque[int] = deque(np.nonzero(count == 1)[0].tolist())
        while queue:
            j = queue.popleft()
            if count[j] != 1:
                continue
            identifier = int(xorsum[j])
            flow_id, _sequence = self.split_identifier(identifier)
            flows[flow_id] = flows.get(flow_id, 0) + 1
            for k in self._cells_for(identifier):
                count[k] -= 1
                xorsum[k] ^= np.uint64(identifier)
                if count[k] == 1:
                    queue.append(k)


def lossradar_loss_detection(
    upstream: LossRadar, downstream: LossRadar
) -> Tuple[Dict[int, int], bool]:
    """Per-flow loss counts from an upstream/downstream LossRadar pair."""
    delta = upstream - downstream
    result = delta.decode()
    return result.flows, result.success
