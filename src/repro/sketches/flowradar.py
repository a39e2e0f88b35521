"""FlowRadar baseline (Li et al., NSDI 2016).

FlowRadar records the exact ID and size of *every* flow: a Bloom "flow filter"
remembers which flows were already inserted, and a counting table (an
IBLT-like structure) stores, per cell, the XOR of flow IDs, the number of
flows, and the number of packets.  Decoding peels cells with ``FlowCount == 1``.

ChameleMon compares against FlowRadar for packet-loss detection: two FlowRadar
instances (upstream/downstream) are decoded independently and their flow sets
diffed, so FlowRadar's memory must scale with the number of *all* flows.

The counting table lives in NumPy arrays and decoding has two bit-identical
paths: the scalar queue reference (:meth:`FlowRadar.decode_scalar`) and the
default frontier-based vectorized peeler (:meth:`FlowRadar.decode`), which
peels every ``FlowCount == 1`` cell of a round at once with duplicate-safe
scatters and hands the rare contended tail back to the scalar queue.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from .base import DecodeResult, InvertibleSketch
from .bloom import BloomFilter
from .hashing import HashFamily, KeyArray, PairwiseHash

#: Field widths from the paper's evaluation setup: FlowXOR, FlowCount and
#: PacketCount are 32 bits each.
CELL_BYTES = 12

#: Hand the frontier to the scalar queue below this many candidate cells.
SCALAR_TAIL_CELLS = 32

#: Safety valve: each frontier round rescans the whole table for pure cells,
#: so degenerate states (corrupt tables that keep trickling out single cells)
#: are delegated to the scalar queue after this many rounds.
MAX_FRONTIER_ROUNDS = 64


class FlowRadar(InvertibleSketch):
    """FlowRadar: flow filter + counting table.

    Parameters
    ----------
    num_cells:
        Cells in the counting table (90 % of the memory in the paper's split).
    filter_bits:
        Bits in the Bloom flow filter (10 % of the memory).
    num_hashes:
        Hash functions of the counting table (3 in the paper).
    filter_hashes:
        Hash functions of the flow filter (10 in the paper).
    """

    def __init__(
        self,
        num_cells: int,
        filter_bits: Optional[int] = None,
        num_hashes: int = 3,
        filter_hashes: int = 10,
        seed: int = 0,
    ) -> None:
        if num_cells <= 0:
            raise ValueError("num_cells must be positive")
        num_cells = max(num_cells, num_hashes)
        if filter_bits is None:
            # Default to the paper's 10 % / 90 % memory split.
            filter_bits = max(8, (num_cells * CELL_BYTES * 8) // 9)
        self.num_cells = num_cells
        self.num_hashes = num_hashes
        # Partitioned hashing: each hash function owns a contiguous slice of
        # the table so that one flow never maps twice into the same cell
        # (which would make it unpeelable).
        family = HashFamily(seed)
        self._partition = num_cells // num_hashes
        self._hashes: List[PairwiseHash] = family.draw_many(num_hashes, self._partition)
        self._flow_filter = BloomFilter(filter_bits, filter_hashes, seed=seed + 1)
        # The paper's FlowXOR field is 32-bit; uint64 storage leaves headroom
        # for any flow ID below 2**64.
        self._flow_xor = np.zeros(num_cells, dtype=np.uint64)
        self._flow_count = np.zeros(num_cells, dtype=np.int64)
        self._packet_count = np.zeros(num_cells, dtype=np.int64)

    @classmethod
    def for_memory(cls, memory_bytes: int, seed: int = 0, **kwargs) -> "FlowRadar":
        """Split ``memory_bytes`` 10 % / 90 % between filter and counting table."""
        filter_bytes = max(1, memory_bytes // 10)
        table_bytes = memory_bytes - filter_bytes
        num_cells = max(1, table_bytes // CELL_BYTES)
        return cls(num_cells, filter_bits=filter_bytes * 8, seed=seed, **kwargs)

    def memory_bytes(self) -> int:
        return self.num_cells * CELL_BYTES + self._flow_filter.memory_bytes()

    def _cells_for(self, flow_id: int) -> List[int]:
        return [
            index * self._partition + h(flow_id)
            for index, h in enumerate(self._hashes)
        ]

    def _cells_for_batch(self, keys: KeyArray) -> List[np.ndarray]:
        """One partition-offset cell-index array per hash function."""
        return [
            index * self._partition + h.hash_array(keys)
            for index, h in enumerate(self._hashes)
        ]

    # ------------------------------------------------------------------ #
    def insert(self, flow_id: int, count: int = 1) -> None:
        """Insert ``count`` packets of ``flow_id``."""
        if count <= 0:
            raise ValueError("FlowRadar only records positive packet counts")
        if flow_id < 0 or flow_id >= (1 << 64):
            raise ValueError("FlowRadar flow IDs must fit in 64 bits")
        new_flow = self._flow_filter.add_if_new(flow_id)
        for j in self._cells_for(flow_id):
            if new_flow:
                self._flow_xor[j] ^= np.uint64(flow_id)
                self._flow_count[j] += 1
            self._packet_count[j] += count

    def add(self, other: "FlowRadar") -> "FlowRadar":
        """In-place merge of a compatible FlowRadar (cell-wise add + Bloom OR).

        Exact for *flow-disjoint* partitions on filter-consistent states: the
        counting-table cells are linear and the Bloom union equals the filter
        of the combined flow set.  If a flow was inserted into both operands,
        or a Bloom false positive suppressed a flow record in one partition
        that the combined stream would have recorded, the merged table can
        differ from single-stream encoding — the same caveat as
        :meth:`decode` on inconsistent states.
        """
        if (
            not isinstance(other, FlowRadar)
            or self.num_cells != other.num_cells
            or self.num_hashes != other.num_hashes
        ):
            raise ValueError("FlowRadar instances must share geometry to be added")
        if self._hashes != other._hashes:
            raise ValueError("FlowRadar instances must share hash seeds to be added")
        self._flow_filter.union(other._flow_filter)
        self._flow_xor ^= other._flow_xor
        self._flow_count += other._flow_count
        self._packet_count += other._packet_count
        return self

    # ------------------------------------------------------------------ #
    def decode(self) -> DecodeResult:
        """Peel the counting table to recover every (flow, size) pair.

        Peels the whole ``FlowCount == 1`` frontier per round with NumPy
        scatters; :meth:`decode_scalar` is the scalar queue reference.  Both
        leave the sketch untouched and produce identical flow sets.

        Caveat: a Bloom-filter false positive leaves "ghost" packets in the
        table (packet counts with no flow record), and on such inconsistent
        states the *sizes* recovered by any peeling decoder depend on the
        peel order — the two paths may then attribute ghost packets to
        different flows (the recovered flow ID sets still match).  On
        filter-consistent states both paths are bit-identical.
        """
        flow_xor = self._flow_xor.copy()
        flow_count = self._flow_count.copy()
        packet_count = self._packet_count.copy()
        flows: Dict[int, int] = {}
        for _round in range(MAX_FRONTIER_ROUNDS + 1):
            frontier = np.nonzero(flow_count == 1)[0]
            if frontier.size == 0:
                break
            if frontier.size <= SCALAR_TAIL_CELLS or _round == MAX_FRONTIER_ROUNDS:
                self._peel_scalar(flow_xor, flow_count, packet_count, flows)
                break
            ids = flow_xor[frontier]
            sizes = packet_count[frontier]
            # The same flow may be pure in several cells this round: peel it
            # once (the scalar queue sees later duplicates as already-drained).
            _, first = np.unique(ids, return_index=True)
            order = np.sort(first)
            ids, sizes = ids[order], sizes[order]
            for cells in self._cells_for_batch(KeyArray(ids)):
                np.bitwise_xor.at(flow_xor, cells, ids)
                np.subtract.at(flow_count, cells, 1)
                np.subtract.at(packet_count, cells, sizes)
            for flow_id, size in zip(ids.tolist(), sizes.tolist()):
                flows[flow_id] = flows.get(flow_id, 0) + size
        remaining = int(np.count_nonzero(flow_count))
        return DecodeResult(flows=flows, success=remaining == 0, remaining=remaining)

    def decode_scalar(self) -> DecodeResult:
        """The scalar queue decoder — the reference implementation."""
        flow_xor = self._flow_xor.copy()
        flow_count = self._flow_count.copy()
        packet_count = self._packet_count.copy()
        flows: Dict[int, int] = {}
        self._peel_scalar(flow_xor, flow_count, packet_count, flows)
        remaining = int(np.count_nonzero(flow_count))
        return DecodeResult(flows=flows, success=remaining == 0, remaining=remaining)

    def _peel_scalar(
        self,
        flow_xor: np.ndarray,
        flow_count: np.ndarray,
        packet_count: np.ndarray,
        flows: Dict[int, int],
    ) -> None:
        """Queue-peel the given table state to exhaustion (mutates arrays)."""
        queue: deque[int] = deque(np.nonzero(flow_count == 1)[0].tolist())
        while queue:
            j = queue.popleft()
            if flow_count[j] != 1:
                continue
            flow_id = int(flow_xor[j])
            size = int(packet_count[j])
            flows[flow_id] = flows.get(flow_id, 0) + size
            for k in self._cells_for(flow_id):
                flow_xor[k] ^= np.uint64(flow_id)
                flow_count[k] -= 1
                packet_count[k] -= size
                if flow_count[k] == 1:
                    queue.append(k)


def flowradar_loss_detection(
    upstream: FlowRadar, downstream: FlowRadar
) -> Tuple[Dict[int, int], bool]:
    """Packet-loss detection with two FlowRadars: decode both, diff flow sizes."""
    up = upstream.decode()
    down = downstream.decode()
    success = up.success and down.success
    losses: Dict[int, int] = {}
    for flow_id, sent in up.flows.items():
        received = down.flows.get(flow_id, 0)
        if sent > received:
            losses[flow_id] = sent - received
    return losses, success
