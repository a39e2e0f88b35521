"""Tower + Fermat — the standalone sketch combination evaluated in Figure 11.

Appendix C evaluates "the combination of TowerSketch and FermatSketch"
(Tower+Fermat) against nine packet-accumulation sketches: a TowerSketch
records every packet and acts as the classifier, and a FermatSketch records
the packets of flows whose running estimate reaches the HH-candidate threshold
``T_h``.  Queries combine the two: flows found in the decoded Fermat Flowset
are estimated as ``T_h - 1 + q`` while everything else falls back to the
Tower query.  This is exactly the upstream path of the ChameleMon data plane
with the HL/LL encoders removed, packaged as a single-node sketch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..controlplane.tasks import tower_flow_size_distribution
from ..dataplane.classifier import split_flows
from ..sketches.base import FrequencySketch, HeavyHitterSketch
from ..sketches.hashing import KeyArray
from ..sketches.fermat import MERSENNE_PRIME_61, FermatSketch
from ..sketches.linear_counting import estimate_cardinality
from ..sketches.mrac import distribution_entropy
from ..sketches.tower import TowerSketch

#: Figure 11 configuration: 2500 Fermat buckets split over 3 arrays, T_h = 250.
DEFAULT_FERMAT_BUCKETS = 2500
DEFAULT_THRESHOLD = 250
FERMAT_BUCKET_BYTES = 8


class TowerFermat(HeavyHitterSketch, FrequencySketch):
    """The Tower+Fermat combination of appendix C."""

    def __init__(
        self,
        tower_levels: List[Tuple[int, int]],
        fermat_buckets: int = DEFAULT_FERMAT_BUCKETS,
        threshold: int = DEFAULT_THRESHOLD,
        num_arrays: int = 3,
        prime: int = MERSENNE_PRIME_61,
        seed: int = 0,
    ) -> None:
        self.tower = TowerSketch(tower_levels, seed=seed)
        per_array = max(1, fermat_buckets // num_arrays)
        self.fermat = FermatSketch(
            per_array, num_arrays=num_arrays, prime=prime, seed=seed + 7
        )
        self.threshold = threshold
        self._flowset: Optional[Dict[int, int]] = None

    @classmethod
    def for_memory(
        cls,
        memory_bytes: int,
        threshold: int = DEFAULT_THRESHOLD,
        fermat_buckets: int = DEFAULT_FERMAT_BUCKETS,
        seed: int = 0,
    ) -> "TowerFermat":
        """Size the combination for a total memory budget.

        The Fermat part keeps its fixed bucket count (as in the paper) as long
        as the budget allows it, and the remaining memory is split half/half
        between the 8-bit and 16-bit Tower arrays.  When the budget cannot fit
        the requested Fermat part plus a minimal Tower, the Fermat bucket count
        is shrunk so that ``memory_bytes()`` never exceeds ``memory_bytes``
        (points off the paper's Figure 11 curves must stay memory-matched).

        Budgets below 128 bytes cannot fit the structural minimum (one Fermat
        bucket per array plus the smallest Tower) and are rejected.
        """
        if memory_bytes < 128:
            raise ValueError(
                "TowerFermat.for_memory needs a budget of at least 128 bytes"
            )
        num_arrays = 3  # matches the constructor default
        min_tower_bytes = 64
        fermat_bytes = fermat_buckets * FERMAT_BUCKET_BYTES
        if memory_bytes - fermat_bytes < min_tower_bytes:
            per_array_bytes = num_arrays * FERMAT_BUCKET_BYTES
            per_array = max(
                1, (memory_bytes - min_tower_bytes) // per_array_bytes
            )
            fermat_buckets = per_array * num_arrays
            fermat_bytes = fermat_buckets * FERMAT_BUCKET_BYTES
        tower_bytes = max(min_tower_bytes, memory_bytes - fermat_bytes)
        counters_8 = max(8, tower_bytes // 2)
        counters_16 = max(4, (tower_bytes - counters_8) // 2)
        return cls(
            [(8, counters_8), (16, counters_16)],
            fermat_buckets=fermat_buckets,
            threshold=threshold,
            seed=seed,
        )

    def memory_bytes(self) -> int:
        return self.tower.memory_bytes() + self.fermat.memory_bytes()

    def add(self, other: "TowerFermat") -> "TowerFermat":
        """In-place merge of a compatible TowerFermat (component-wise add).

        *Conditionally* exact: the Tower and Fermat components merge exactly,
        but which packets were promoted into the Fermat part depends on each
        operand's own Tower estimates at insertion time.  The merge equals
        single-stream encoding only when no flow's promotion decision would
        have differed — e.g. flow-disjoint partitions whose cross-partition
        Tower collisions never push a flow across the threshold earlier than
        its own partition did.  The property tests pin seeds where this holds.
        """
        if not isinstance(other, TowerFermat) or self.threshold != other.threshold:
            raise ValueError("TowerFermat instances must share a threshold to be added")
        self.tower.add(other.tower)
        self.fermat.add(other.fermat)
        self._flowset = None
        return self

    # ------------------------------------------------------------------ #
    def insert(self, flow_id: int, count: int = 1) -> None:
        """Insert ``count`` packets of one flow: the one-flow :meth:`insert_batch`."""
        self.insert_batch([flow_id], [count])

    def insert_batch(
        self,
        flow_ids: Union[Sequence[int], np.ndarray, KeyArray],
        counts: Union[Sequence[int], np.ndarray],
    ) -> None:
        """Insert flows in batch order, as inserting their packets one by one would.

        Every packet goes to the Tower part; once its flow's estimate after
        the packet reaches the threshold, it goes to the Fermat part too.
        That is the classifier's split with ``T_l = 1`` (no packet is LL and
        the HL column is the Tower-only packets), so
        :func:`~repro.dataplane.classifier.split_flows` walks all flows at
        once and the Fermat part encodes the HH column in one ``insert_batch``.
        """
        keys = flow_ids if isinstance(flow_ids, KeyArray) else KeyArray(flow_ids)
        self._flowset = None
        _, _, promoted = split_flows(
            [self.tower], np.zeros(keys.size, dtype=np.int64), keys, counts, self.threshold, 1
        )
        rows = np.flatnonzero(promoted)
        if rows.size:
            self.fermat.insert_batch(keys.take(rows), promoted[rows])

    def flowset(self) -> Dict[int, int]:
        """The decoded Fermat Flowset (cached until the next insertion).

        The sketch itself must survive the query (later inserts keep
        accumulating), so the Fermat part is copied and the copy is drained by
        the vectorized frontier decoder — with the array-backed bucket storage
        the copy is two array clones, not a per-bucket loop.
        """
        if self._flowset is None:
            result = self.fermat.decode_nondestructive()
            self._flowset = result.positive_flows()
        return self._flowset

    def query(self, flow_id: int) -> int:
        flowset = self.flowset()
        if flow_id in flowset:
            # The first (threshold - 1) packets stayed below the promotion
            # threshold and were only recorded by the Tower part.
            return self.threshold - 1 + flowset[flow_id]
        return self.tower.query(flow_id)

    def heavy_hitters(self, threshold: int) -> Dict[int, int]:
        return {
            flow_id: self.threshold - 1 + size
            for flow_id, size in self.flowset().items()
            if self.threshold - 1 + size > threshold
        }

    # ------------------------------------------------------------------ #
    # the four statistics tasks
    # ------------------------------------------------------------------ #
    def cardinality(self) -> float:
        return estimate_cardinality(self.tower.widest_array())

    def flow_size_distribution(self, iterations: int = 8) -> Dict[int, float]:
        return tower_flow_size_distribution(
            self.tower,
            [self.threshold - 1 + size for size in self.flowset().values()],
            iterations=iterations,
        )

    def entropy(self, iterations: int = 8) -> float:
        return distribution_entropy(self.flow_size_distribution(iterations=iterations))
