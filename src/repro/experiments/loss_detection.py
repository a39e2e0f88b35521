"""Figure 4–6 experiment drivers: loss-detection memory and decoding time.

The paper measures, for FermatSketch / FlowRadar / LossRadar on a single link,
the minimum memory needed to reach a 99.9 % decoding success rate and the
decoding time at that memory, while sweeping (a) the number of victim flows,
(b) the packet-loss rate of victims, and (c) the total number of flows.

The reproduction searches for the smallest memory at which every one of
``trials`` independently-seeded runs decodes successfully (a laptop-friendly
stand-in for the 99.9 % criterion — the search landscape and therefore the
figure shapes are identical), and times the decoding at that memory.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..sketches.registry import FERMAT_BUCKET_BYTES, build
from ..traffic.flow import Trace

SCHEMES = ("fermat", "flowradar", "lossradar")


@dataclass
class LossDetectionMeasurement:
    """One (scheme, workload) measurement point."""

    scheme: str
    memory_bytes: int
    decode_seconds: float
    detected_losses: Dict[int, int]

    @property
    def memory_megabytes(self) -> float:
        return self.memory_bytes / 1e6

    @property
    def decode_milliseconds(self) -> float:
        return self.decode_seconds * 1e3


def _lost_sequences(trace: Trace, seed: int) -> Dict[int, List[int]]:
    """Pick which packet sequence numbers of each victim flow were lost.

    LossRadar identifies packets by (flow ID, 16-bit sequence number); two
    identical identifiers could never be peeled out of the IBF, so the lost
    sequence numbers are drawn without replacement from the 16-bit space —
    the same assumption LossRadar makes by resetting its per-flow counters
    every (short) batch.
    """
    from ..sketches.lossradar import SEQUENCE_BITS

    rng = random.Random(seed)
    lost: Dict[int, List[int]] = {}
    columns = trace.columns()
    flow_ids = columns.flow_ids.tolist()
    sizes = columns.sizes.tolist()
    lost_packets = columns.lost_packets.tolist()
    for index, flow_id in enumerate(flow_ids):
        if lost_packets[index] <= 0:
            continue
        population = min(sizes[index], 1 << SEQUENCE_BITS)
        count = min(lost_packets[index], population)
        lost[int(flow_id)] = sorted(rng.sample(range(population), count))
    return lost


# --------------------------------------------------------------------------- #
# single-run encode + decode for each scheme
# --------------------------------------------------------------------------- #
def _run_fermat(trace: Trace, buckets_per_array: int, seed: int) -> Tuple[bool, float, Dict[int, int]]:
    upstream = build("fermat", buckets_per_array=buckets_per_array, seed=seed)
    downstream = upstream.empty_like()
    # Column-native encode: insert_batch is bit-identical to scalar inserts.
    columns = trace.columns()
    upstream.insert_batch(columns.flow_ids, columns.sizes)
    delivered = columns.sizes - columns.lost_packets
    mask = delivered > 0
    if mask.any():
        downstream.insert_batch(columns.flow_ids[mask], delivered[mask])
    delta = upstream - downstream
    start = time.perf_counter()
    result = delta.decode()
    elapsed = time.perf_counter() - start
    return result.success, elapsed, result.positive_flows()


def _run_flowradar(trace: Trace, num_cells: int, seed: int) -> Tuple[bool, float, Dict[int, int]]:
    upstream = build("flowradar", num_cells=num_cells, seed=seed)
    downstream = build("flowradar", num_cells=num_cells, seed=seed)
    columns = trace.columns()
    flow_ids = columns.flow_ids.tolist()
    sizes = columns.sizes.tolist()
    lost_packets = columns.lost_packets.tolist()
    for index, flow_id in enumerate(flow_ids):
        flow_id = int(flow_id)
        upstream.insert(flow_id, sizes[index])
        delivered = sizes[index] - lost_packets[index]
        if delivered > 0:
            downstream.insert(flow_id, delivered)
    start = time.perf_counter()
    up = upstream.decode()
    down = downstream.decode()
    elapsed = time.perf_counter() - start
    success = up.success and down.success
    losses = {
        flow_id: sent - down.flows.get(flow_id, 0)
        for flow_id, sent in up.flows.items()
        if sent - down.flows.get(flow_id, 0) > 0
    }
    return success, elapsed, losses


def _run_lossradar(trace: Trace, num_cells: int, seed: int) -> Tuple[bool, float, Dict[int, int]]:
    # The upstream and downstream meters differ only in the lost packets, and
    # LossRadar's subtraction is exact, so the delta meter equals a meter that
    # encodes only the lost packet identifiers.  Building the delta directly
    # keeps the experiment linear in the number of *lost* packets while being
    # bit-for-bit identical to encode-both-then-subtract.
    delta = build("lossradar", num_cells=num_cells, seed=seed)
    lost = _lost_sequences(trace, seed)
    flow_ids = [f for f, seqs in lost.items() for _ in seqs]
    sequences = [s for seqs in lost.values() for s in seqs]
    delta.insert_packets(flow_ids, sequences)
    start = time.perf_counter()
    result = delta.decode()
    elapsed = time.perf_counter() - start
    return result.success, elapsed, result.flows


_RUNNERS: Dict[str, Callable[[Trace, int, int], Tuple[bool, float, Dict[int, int]]]] = {
    "fermat": _run_fermat,
    "flowradar": _run_flowradar,
    "lossradar": _run_lossradar,
}

_UNIT_BYTES = {
    "fermat": 3 * FERMAT_BUCKET_BYTES,  # bytes per bucket-per-array step (3 arrays)
    "flowradar": 12,  # bytes per counting-table cell (the flow filter adds 1/9)
    "lossradar": 10,  # bytes per IBF cell
}


def _memory_bytes(scheme: str, units: int) -> int:
    if scheme == "flowradar":
        cells_bytes = units * 12
        return cells_bytes + cells_bytes // 9  # plus the 10 % flow filter
    return units * _UNIT_BYTES[scheme]


def _decode_succeeds(scheme: str, trace: Trace, units: int, trials: int, seed: int) -> bool:
    runner = _RUNNERS[scheme]
    for trial in range(trials):
        success, _, _ = runner(trace, units, seed + 1000 * trial)
        if not success:
            return False
    return True


def minimum_memory(
    scheme: str,
    trace: Trace,
    trials: int = 3,
    seed: int = 0,
    start_units: int = 8,
) -> Tuple[int, int]:
    """Search the smallest structure (in allocation units) that always decodes.

    Returns ``(units, memory_bytes)``.  Units are buckets-per-array for
    FermatSketch and cells for FlowRadar / LossRadar.
    """
    if scheme not in _RUNNERS:
        raise KeyError(f"unknown scheme '{scheme}'; choose one of {SCHEMES}")
    if trials < 1:
        # Zero trials would pass every size vacuously.
        raise ValueError("trials must be at least 1")
    units = max(4, start_units)
    # Exponential search for an upper bound.
    while not _decode_succeeds(scheme, trace, units, trials, seed):
        units *= 2
        if units > 1 << 26:
            raise RuntimeError(f"{scheme} never decoded successfully")
    low, high = units // 2, units
    # Binary search for the minimum.
    while low + max(1, high // 64) < high:
        mid = (low + high) // 2
        if _decode_succeeds(scheme, trace, mid, trials, seed):
            high = mid
        else:
            low = mid
    return high, _memory_bytes(scheme, high)


def measure(
    scheme: str,
    trace: Trace,
    trials: int = 3,
    seed: int = 0,
) -> LossDetectionMeasurement:
    """Minimum memory and decoding time of one scheme on one workload."""
    units, memory_bytes = minimum_memory(scheme, trace, trials=trials, seed=seed)
    _, decode_seconds, losses = _RUNNERS[scheme](trace, units, seed)
    return LossDetectionMeasurement(
        scheme=scheme,
        memory_bytes=memory_bytes,
        decode_seconds=decode_seconds,
        detected_losses=losses,
    )


def compare_schemes(
    trace: Trace,
    schemes: Tuple[str, ...] = SCHEMES,
    trials: int = 3,
    seed: int = 0,
) -> Dict[str, LossDetectionMeasurement]:
    """Measure every scheme on the same workload (one figure-4/5/6 x-value)."""
    return {scheme: measure(scheme, trace, trials=trials, seed=seed) for scheme in schemes}
