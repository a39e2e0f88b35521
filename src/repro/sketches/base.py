"""Common interfaces shared by the sketches in this package.

The sketches fall into three behavioural groups that mirror the paper's
taxonomy:

* :class:`FrequencySketch` — packet-accumulation sketches that answer
  approximate per-flow size queries (Count-Min, CU, Count sketch, Tower,
  Elastic, FCM, ...).
* :class:`HeavyHitterSketch` — sketches that report the large flows directly
  (HashPipe, Elastic/FCM top-k parts, CountHeap, UnivMon, CocoSketch).
* :class:`InvertibleSketch` — sketches whose whole content can be decoded back
  into exact (flow, count) pairs (FermatSketch, FlowRadar, LossRadar).

Keeping the interfaces small makes the benchmark harness generic: every
figure-11 task runs against any object exposing the right protocol.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Tuple


class Sketch(abc.ABC):
    """Base class for all sketches: supports insertion and memory accounting."""

    @abc.abstractmethod
    def insert(self, flow_id: int, count: int = 1) -> None:
        """Record ``count`` packets of flow ``flow_id``."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Memory footprint of the sketch under the paper's field widths."""

    def insert_batch(self, flow_ids, counts) -> None:
        """Insert parallel arrays of flow IDs and counts.

        The base implementation is the scalar reference loop; sketches with a
        vectorized NumPy backend (Tower, Fermat, CM, Count sketch, and
        Tower+Fermat) override it.  Both paths produce bit-identical state.
        """
        if len(flow_ids) != len(counts):
            raise ValueError("flow_ids and counts must have the same length")
        for flow_id, count in zip(flow_ids, counts):
            self.insert(int(flow_id), int(count))


class FrequencySketch(Sketch):
    """A sketch that answers approximate per-flow size queries."""

    @abc.abstractmethod
    def query(self, flow_id: int) -> int:
        """Return the estimated size of ``flow_id``."""


class HeavyHitterSketch(Sketch):
    """A sketch that reports flows whose size exceeds a threshold."""

    @abc.abstractmethod
    def heavy_hitters(self, threshold: int) -> Dict[int, int]:
        """Return ``{flow_id: estimated_size}`` for flows above ``threshold``."""


class InvertibleSketch(Sketch):
    """A sketch whose full content can be decoded into exact flow records."""

    @abc.abstractmethod
    def decode(self) -> "DecodeResult":
        """Attempt to recover every inserted flow and its size."""


class DecodeResult:
    """Outcome of decoding an invertible sketch.

    Attributes
    ----------
    flows:
        ``{flow_id: count}`` for every extracted flow.  Counts may be negative
        when the sketch is the difference of two sketches (e.g. retransmitted
        or reordered packets); callers interpret the sign.
    success:
        ``True`` when the sketch was fully drained (no non-empty bucket left).
    remaining:
        Number of non-empty buckets left when decoding stopped.
    """

    __slots__ = ("flows", "success", "remaining")

    def __init__(self, flows: Dict[int, int], success: bool, remaining: int = 0) -> None:
        self.flows = flows
        self.success = success
        self.remaining = remaining

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecodeResult(success={self.success}, flows={len(self.flows)}, "
            f"remaining={self.remaining})"
        )

    def positive_flows(self) -> Dict[int, int]:
        """Flows with strictly positive decoded counts."""
        return {f: c for f, c in self.flows.items() if c > 0}

    def items(self) -> List[Tuple[int, int]]:
        return list(self.flows.items())
