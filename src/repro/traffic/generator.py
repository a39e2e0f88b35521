"""Workload generation: flows, victim selection, and loss assignment.

Two generators cover the paper's two evaluation settings:

* :func:`generate_caida_like_trace` — the CPU experiments (Figures 4–6, 10,
  11) use a CAIDA 2018 slice with 32-bit source-IP flow IDs; we synthesise a
  Zipf-skewed equivalent.
* :func:`generate_workload` — the testbed experiments (Figures 7–9, 14–19) use
  UDP flows drawn from the DCTCP / VL2 / HADOOP / CACHE distributions, with
  source/destination hosts chosen uniformly among 8 servers and a controlled
  set of victim flows whose packets are dropped at a configured loss rate.

Both build :class:`~repro.traffic.flow.TraceColumns` directly with vectorized
NumPy RNG draws; no per-flow Python objects are ever created.  Hand-built
traces of :class:`~repro.traffic.flow.FlowRecord` rows replay the same way
(their columns are built on first use).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .distributions import FlowSizeDistribution, get_distribution, zipf_sizes_array
from .flow import Trace, TraceColumns


def sample_binomial(rng: random.Random, n: int, p: float) -> int:
    """Exact Binomial(n, p) sample from one uniform variate.

    Inverse-CDF sampling: the pmf at the scan origin comes from ``lgamma``
    and subsequent terms from the ratio recurrence, so the cost is
    O(spread around the mean) with no per-trial work.  For large ``n`` the
    scan starts ten standard deviations below the mean (the mass below that
    cutoff is far under double precision) instead of at 0, which keeps the
    origin pmf representable.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    u = rng.random()
    mean = n * p
    spread = math.sqrt(mean * (1.0 - p))
    lower = max(0, int(mean - 10.0 * spread))
    log_pmf = (
        _log_comb(n, lower) + lower * math.log(p) + (n - lower) * math.log1p(-p)
    )
    pmf = math.exp(log_pmf)
    cumulative = pmf
    k = lower
    ratio = p / (1.0 - p)
    while cumulative < u and k < n:
        pmf *= (n - k) / (k + 1.0) * ratio
        k += 1
        cumulative += pmf
    return k


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def generate_caida_like_trace(
    num_flows: int,
    total_packets: Optional[int] = None,
    victim_flows: int = 0,
    loss_rate: float = 0.01,
    victim_selection: str = "largest",
    alpha: float = 1.1,
    seed: int = 0,
) -> Trace:
    """Synthesise a CAIDA-like trace with 32-bit flow IDs.

    Parameters
    ----------
    num_flows:
        Number of distinct flows.
    total_packets:
        Total packets across all flows (defaults to ``53 * num_flows``,
        matching the CAIDA slice's mean flow size).
    victim_flows:
        How many flows experience packet losses.
    loss_rate:
        Per-packet loss probability of each victim flow.
    victim_selection:
        ``"largest"`` (the paper marks the largest flows as victims) or
        ``"random"``.
    """
    if num_flows <= 0:
        raise ValueError("num_flows must be positive")
    if victim_flows < 0 or victim_flows > num_flows:
        raise ValueError("victim_flows must be between 0 and num_flows")
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = zipf_sizes_array(num_flows, alpha=alpha, total_packets=total_packets, rng=rng)
    # Source-IP style IDs: uniform over the 32-bit space.  Collisions are
    # kept: duplicate IDs accumulate in the ground truth exactly as the
    # sketches see them.
    flow_ids = rng.integers(1, 1 << 32, num_flows, dtype=np.uint64)
    columns = TraceColumns(
        flow_ids=flow_ids,
        sizes=sizes,
        src_hosts=np.full(num_flows, -1, dtype=np.int64),
        dst_hosts=np.full(num_flows, -1, dtype=np.int64),
        is_victim=np.zeros(num_flows, dtype=bool),
        lost_packets=np.zeros(num_flows, dtype=np.int64),
        loss_rate=np.zeros(num_flows, dtype=np.float64),
    )
    _mark_victims_columns(columns, victim_flows, loss_rate, victim_selection, rng)
    return Trace(columns=columns)


def generate_workload(
    workload: Union[str, FlowSizeDistribution],
    num_flows: int,
    victim_ratio: float = 0.0,
    loss_rate: float = 0.05,
    num_hosts: int = 8,
    victim_selection: str = "random",
    seed: int = 0,
    use_five_tuple: bool = True,
) -> Trace:
    """Generate a testbed-style workload from a named distribution.

    Flows get 5-tuple IDs (104-bit packed) by default, mirroring the testbed;
    source and destination hosts are chosen uniformly so every server sends and
    receives roughly the same number of flows.
    """
    if num_flows <= 0:
        raise ValueError("num_flows must be positive")
    if not 0.0 <= victim_ratio <= 1.0:
        raise ValueError("victim_ratio must be in [0, 1]")
    distribution = (
        workload if isinstance(workload, FlowSizeDistribution) else get_distribution(workload)
    )
    victim_count = int(round(victim_ratio * num_flows))
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = distribution.sample_array(rng.random(num_flows))
    src = rng.integers(0, num_hosts, num_flows)
    dst = rng.integers(0, num_hosts, num_flows)
    if num_hosts > 1:
        clash = dst == src
        while clash.any():
            dst[clash] = rng.integers(0, num_hosts, int(clash.sum()))
            clash = dst == src
    flow_ids = _draw_unique_ids(rng, src, dst, use_five_tuple)
    columns = TraceColumns(
        flow_ids=flow_ids,
        sizes=sizes,
        src_hosts=src.astype(np.int64),
        dst_hosts=dst.astype(np.int64),
        is_victim=np.zeros(num_flows, dtype=bool),
        lost_packets=np.zeros(num_flows, dtype=np.int64),
        loss_rate=np.zeros(num_flows, dtype=np.float64),
    )
    _mark_victims_columns(columns, victim_count, loss_rate, victim_selection, rng)
    return Trace(columns=columns)


# --------------------------------------------------------------------------- #
# columnar draws
# --------------------------------------------------------------------------- #
def _five_tuple_ids(
    rng: np.random.Generator, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Packed 104-bit 5-tuple IDs for the given host columns (object dtype).

    Field layout matches :meth:`FlowKey.packed` / ``fold_key`` with widths
    (32, 32, 16, 16, 8): srcIP << 72 | dstIP << 40 | sport << 24 | dport << 8
    | protocol.
    """
    n = len(src)
    src_ip = (10 << 24) | (src << 8) | rng.integers(1, 255, n)
    dst_ip = (10 << 24) | (dst << 8) | rng.integers(1, 255, n)
    sport = rng.integers(1024, 65536, n)
    dport = rng.integers(1024, 65536, n)
    return (
        (src_ip.astype(object) << 72)
        | (dst_ip.astype(object) << 40)
        | (sport.astype(object) << 24)
        | (dport.astype(object) << 8)
        | 17
    )


def _draw_unique_ids(
    rng: np.random.Generator, src: np.ndarray, dst: np.ndarray, use_five_tuple: bool
) -> np.ndarray:
    """Distinct flow IDs, redrawing colliding rows until all are unique."""
    n = len(src)
    if use_five_tuple:
        ids = _five_tuple_ids(rng, src, dst)
    else:
        ids = rng.integers(1, 1 << 32, n, dtype=np.uint64)
    while True:
        _, first_positions = np.unique(ids, return_index=True)
        if len(first_positions) == n:
            return ids
        duplicates = np.setdiff1d(
            np.arange(n), first_positions, assume_unique=False
        )
        if use_five_tuple:
            ids[duplicates] = _five_tuple_ids(rng, src[duplicates], dst[duplicates])
        else:
            ids[duplicates] = rng.integers(1, 1 << 32, len(duplicates), dtype=np.uint64)


def _mark_victims_columns(
    columns: TraceColumns,
    victim_count: int,
    loss_rate: float,
    victim_selection: str,
    rng: np.random.Generator,
) -> None:
    if victim_count <= 0:
        return
    if victim_selection == "largest":
        chosen = np.argsort(-columns.sizes, kind="stable")[:victim_count]
    elif victim_selection == "random":
        chosen = rng.permutation(len(columns))[:victim_count]
    else:
        raise ValueError("victim_selection must be 'largest' or 'random'")
    sizes = columns.sizes[chosen]
    lost = rng.binomial(sizes, loss_rate)
    # Every designated victim loses at least one packet, so every victim is
    # observable (the testbed's proactive ECN-drop control).
    lost = np.minimum(sizes, np.maximum(1, lost))
    columns.is_victim[chosen] = True
    columns.loss_rate[chosen] = loss_rate
    columns.lost_packets[chosen] = lost


# --------------------------------------------------------------------------- #
# ground-truth helpers (column-native)
# --------------------------------------------------------------------------- #
def largest_flows(trace: Trace, count: int):
    """The ``count`` largest flows of a trace (paper: 'the largest 10K flows').

    Returns row views in descending size order (stable among ties).
    """
    order = np.argsort(-trace.columns().sizes, kind="stable")[:count]
    flows = trace.flows
    return [flows[int(index)] for index in order]


def restrict_to_flows(trace: Trace, flows: Sequence) -> Trace:
    """A new trace containing only the given flows (records or row views)."""
    return Trace(flows=list(flows))


def take_flows(trace: Trace, indices: Sequence[int]) -> Trace:
    """A new trace restricted to the given row indices (column-native)."""
    return Trace(columns=trace.columns().take(np.asarray(indices)))


def ground_truth_heavy_hitters(trace: Trace, threshold: int) -> Dict[int, int]:
    """Ground-truth heavy hitters: flows whose size is at least ``threshold``."""
    columns = trace.columns()
    positions = np.nonzero(columns.sizes >= threshold)[0]
    ids = columns.flow_ids[positions].tolist()
    return dict(
        zip([int(i) for i in ids], columns.sizes[positions].tolist())
    )


def ground_truth_heavy_changes(
    first: Trace, second: Trace, threshold: int
) -> Dict[int, int]:
    """Flows whose size changes by at least ``threshold`` between two traces."""
    sizes_a = first.flow_sizes()
    sizes_b = second.flow_sizes()
    changes: Dict[int, int] = {}
    for flow_id in set(sizes_a) | set(sizes_b):
        delta = abs(sizes_a.get(flow_id, 0) - sizes_b.get(flow_id, 0))
        if delta >= threshold:
            changes[flow_id] = delta
    return changes
