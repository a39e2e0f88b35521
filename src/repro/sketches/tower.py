"""TowerSketch — the flow classifier of ChameleMon (paper section 3.2.1).

TowerSketch is a multi-resolution Count-Min-style sketch: it keeps ``l``
counter arrays of equal *memory* but different counter widths.  Narrow
counters are plentiful (catching the many small flows cheaply) while wide
counters are few but never overflow for realistic flow sizes.  A counter that
reaches its maximum value saturates and is treated as ``+inf`` when queried,
so the estimate for a flow is the minimum of its non-saturated counters.

ChameleMon uses a two-array TowerSketch (8-bit and 16-bit counters) in the
ingress pipeline of each edge switch to classify every flow into the
HH-candidate / HL-candidate / LL-candidate hierarchies, and the control plane
additionally mines it for cardinality (linear counting on the widest array),
flow-size distribution (MRAC per array), and entropy.

Counters are stored as NumPy ``int64`` arrays.  The scalar ``insert``/``query``
path is the bit-exact reference; :meth:`insert_batch` vectorizes the hash
evaluation and the scatter-add.  Because saturating addition of non-negative
increments is order-independent (``min(c + x + y, s)`` regardless of split),
the batched insert produces exactly the same counters as the scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .base import FrequencySketch
from .hashing import HashFamily, KeyArray, PairwiseHash


@dataclass(frozen=True)
class TowerLevel:
    """One counter array of a TowerSketch."""

    counter_bits: int
    num_counters: int

    @property
    def saturation(self) -> int:
        """Value representing an overflowed (``+inf``) counter."""
        return (1 << self.counter_bits) - 1

    def memory_bytes(self) -> int:
        return (self.counter_bits * self.num_counters + 7) // 8


class TowerSketch(FrequencySketch):
    """TowerSketch with arbitrary per-level counter widths.

    Parameters
    ----------
    levels:
        Sequence of ``(counter_bits, num_counters)`` pairs.  The paper's
        deployment uses ``[(8, 32768), (16, 16384)]`` — equal memory per level.
    seed:
        Hash seed; one pairwise-independent hash per level.
    """

    def __init__(
        self,
        levels: Sequence[Tuple[int, int]] = ((8, 32768), (16, 16384)),
        seed: int = 0,
    ) -> None:
        if not levels:
            raise ValueError("TowerSketch needs at least one counter array")
        self.levels: List[TowerLevel] = []
        for bits, width in levels:
            if bits < 2 or bits > 64:
                raise ValueError("counter width must be between 2 and 64 bits")
            if width <= 0:
                raise ValueError("each level needs a positive number of counters")
            self.levels.append(TowerLevel(bits, width))
        family = HashFamily(seed)
        self._hashes: List[PairwiseHash] = [
            family.draw(level.num_counters) for level in self.levels
        ]
        self._counters: List[np.ndarray] = [
            np.zeros(level.num_counters, dtype=np.int64) for level in self.levels
        ]
        self._seed = seed

    @classmethod
    def chamelemon_default(cls, scale: float = 1.0, seed: int = 0) -> "TowerSketch":
        """The classifier configuration used on the testbed, optionally scaled."""
        w8 = max(8, int(32768 * scale))
        w16 = max(4, int(16384 * scale))
        return cls([(8, w8), (16, w16)], seed=seed)

    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        return sum(level.memory_bytes() for level in self.levels)

    def insert(self, flow_id: int, count: int = 1) -> int:
        """Insert ``count`` packets and return the post-insert size estimate.

        Returning the estimate mirrors the data-plane behaviour: the switch
        both updates the classifier and reads back the flow size to pick the
        hierarchy of the packet in the same pass.
        """
        if count < 0:
            raise ValueError("TowerSketch counters cannot be decremented")
        estimate = None
        for level, h, counters in zip(self.levels, self._hashes, self._counters):
            j = h(flow_id)
            value = min(int(counters[j]) + count, level.saturation)
            counters[j] = value
            if value < level.saturation:
                estimate = value if estimate is None else min(estimate, value)
        if estimate is None:
            # Every mapped counter saturated; report the largest saturation
            # value, which the classifier treats as "very large flow".
            estimate = max(level.saturation for level in self.levels)
        return estimate

    def insert_batch(
        self,
        flow_ids: Union[Sequence[int], np.ndarray, KeyArray],
        counts: Union[Sequence[int], np.ndarray],
    ) -> None:
        """Vectorized bulk insert — same final counters as scalar inserts.

        ``flow_ids`` may be a :class:`~repro.sketches.hashing.KeyArray` so the
        limb decomposition is shared with other sketches hashing the same keys.
        """
        keys = flow_ids if isinstance(flow_ids, KeyArray) else KeyArray(flow_ids)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (keys.size,):
            raise ValueError("flow_ids and counts must have the same length")
        if counts.size and counts.min() < 0:
            raise ValueError("TowerSketch counters cannot be decremented")
        for level, h, counters in zip(self.levels, self._hashes, self._counters):
            indices = h.hash_array(keys)
            np.add.at(counters, indices, counts)
            np.minimum(counters, level.saturation, out=counters)

    def query(self, flow_id: int) -> int:
        """Estimated size of ``flow_id`` (minimum over non-saturated counters)."""
        estimate = None
        for level, h, counters in zip(self.levels, self._hashes, self._counters):
            value = int(counters[h(flow_id)])
            if value < level.saturation:
                estimate = value if estimate is None else min(estimate, value)
        if estimate is None:
            estimate = max(level.saturation for level in self.levels)
        return estimate

    def query_batch(
        self, flow_ids: Union[Sequence[int], np.ndarray, KeyArray]
    ) -> np.ndarray:
        """Vectorized queries — bit-identical to calling :meth:`query` per key."""
        keys = flow_ids if isinstance(flow_ids, KeyArray) else KeyArray(flow_ids)
        return self.query_indices([h.hash_array(keys) for h in self._hashes])

    def query_indices(self, indices: Sequence[np.ndarray]) -> np.ndarray:
        """Queries of flows whose counter index on level ``i`` is ``indices[i]``.

        Lets sketches that share this tower's hashes answer one batch from
        one hash evaluation per level.
        """
        estimates = np.full(indices[0].size, np.iinfo(np.int64).max, dtype=np.int64)
        any_valid = np.zeros(indices[0].size, dtype=bool)
        for level, index, counters in zip(self.levels, indices, self._counters):
            values = counters[index]
            valid = values < level.saturation
            estimates = np.where(valid, np.minimum(estimates, values), estimates)
            any_valid |= valid
        fallback = max(level.saturation for level in self.levels)
        return np.where(any_valid, estimates, fallback)

    # ------------------------------------------------------------------ #
    # control-plane views
    # ------------------------------------------------------------------ #
    def counter_array(self, level_index: int) -> np.ndarray:
        """A copy of one level's raw counters (used by linear counting / MRAC)."""
        return self._counters[level_index].astype(np.int64)

    def widest_array(self) -> np.ndarray:
        """Counters of the level with the most counters (for linear counting).

        The paper applies linear counting to the array with the most counters,
        which is the narrowest-counter array.
        """
        index = max(
            range(len(self.levels)), key=lambda i: self.levels[i].num_counters
        )
        return self.counter_array(index)

    def add(self, other: "TowerSketch") -> "TowerSketch":
        """In-place bucket-wise saturating merge of a compatible TowerSketch.

        Exact: per counter the serial value is ``min(total, sat)`` (increments
        are non-negative, so intermediate clamps never matter), and
        ``min(min(a, sat) + min(b, sat), sat) == min(a + b, sat)`` for any
        split ``total = a + b``.  Merging partitioned streams therefore yields
        bit-identical counters to inserting the concatenated stream.
        """
        if not isinstance(other, TowerSketch) or self.levels != other.levels:
            raise ValueError("TowerSketch instances must share level geometry to be added")
        if self._hashes != other._hashes:
            raise ValueError("TowerSketch instances must share hash seeds to be added")
        for level, mine, theirs in zip(self.levels, self._counters, other._counters):
            mine += theirs
            np.minimum(mine, level.saturation, out=mine)
        return self

    def __add__(self, other: "TowerSketch") -> "TowerSketch":
        return self.copy().add(other)

    def reset(self) -> None:
        """Zero every counter (epoch rotation re-uses the structure)."""
        for counters in self._counters:
            counters[:] = 0

    def copy(self) -> "TowerSketch":
        clone = TowerSketch(
            [(level.counter_bits, level.num_counters) for level in self.levels],
            seed=self._seed,
        )
        clone._counters = [row.copy() for row in self._counters]
        return clone

    def heavy_flows(self, candidate_ids: Sequence[int], threshold: int) -> Dict[int, int]:
        """Filter ``candidate_ids`` down to those estimated at or above ``threshold``."""
        result: Dict[int, int] = {}
        for flow_id in candidate_ids:
            size = self.query(flow_id)
            if size >= threshold:
                result[flow_id] = size
        return result
