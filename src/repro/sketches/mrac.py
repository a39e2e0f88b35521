"""MRAC — flow-size distribution estimation from a counter array.

MRAC (Kumar et al., SIGMETRICS 2004) estimates the distribution of flow sizes
from a single hashed counter array using expectation maximisation.  ChameleMon
applies MRAC to each TowerSketch counter array: the array with ``delta``-bit
counters contributes the distribution of sizes below its saturation value, and
sizes above it come from the decoded HH Flowset.

The reproduction implements the standard EM formulation on the counter-value
histogram, with the first-order collision model: a counter of value ``v``
holds one flow of size ``v``, or two flows of sizes ``s`` and ``v - s``.

*Support invariant.*  The estimate starts on the set ``S`` of the distinct
observed counter values (non-zero, unsaturated, at most ``max_size``), and
every E-step term for a size ``s`` carries the factor ``prob[s]``, so the
estimate never leaves ``S``.  The EM therefore runs on ``S`` alone: once per
call it lists the ordered pairs ``(i, j, k)`` with ``S[i] + S[j] == S[k]``,
and each iteration is two ``np.bincount`` passes over them, O(V + pairs)
instead of O(V·M) over the dense size range ``1..M``.  Here ``V = |S|`` and
``M`` is the largest counter value.  Over the scoring windows of the four
repository benchmark workloads, ``M`` reaches 20k-37k on a 16-bit Tower
level while ``V`` stays at or below 380, so the dense ``V × V`` pair search
stays small.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def _value_counts(counters: Sequence[int], max_value: int | None) -> np.ndarray:
    """Slots per counter value, indexed by value (zeros and ``>= max_value`` dropped)."""
    values = np.asarray(counters, dtype=np.int64)
    keep = values > 0
    if max_value is not None:
        keep &= values < max_value
    return np.bincount(values[keep])


def counter_value_histogram(counters: Sequence[int], max_value: int | None = None) -> Dict[int, int]:
    """Histogram of observed counter values (excluding zeros)."""
    counts = _value_counts(counters, max_value)
    values = np.flatnonzero(counts)
    return dict(zip(values.tolist(), counts[values].tolist()))


def estimate_flow_size_distribution(
    counters: Sequence[int],
    max_size: int | None = None,
    iterations: int = 20,
    saturation: int | None = None,
) -> Dict[int, float]:
    """Estimate ``{flow_size: number_of_flows}`` from one counter array.

    Parameters
    ----------
    counters:
        Raw counter values of a single hashed array.
    max_size:
        Largest flow size to include in the estimate (defaults to the largest
        observed counter value).
    iterations:
        EM iterations; a handful suffices for the shapes evaluated here.
    saturation:
        Counter values at or above this are treated as saturated and skipped
        (their contribution comes from the HH Flowset in ChameleMon).

    Every returned size is an observed counter value; keys ascend.
    """
    num_slots = len(counters)
    if num_slots == 0:
        return {}
    counts = _value_counts(counters, saturation)
    sizes = np.flatnonzero(counts)
    if max_size is not None:
        sizes = sizes[sizes <= max(1, max_size)]
    if sizes.size == 0:
        return {}

    # Initial guess: every counter holds exactly one flow of its value.
    slots = counts[sizes].astype(float)
    estimate = slots

    # One-collision splits: ordered pairs (i, j) whose sizes add up to S[k].
    position = np.full(2 * int(sizes[-1]) + 1, -1)
    position[sizes] = np.arange(sizes.size)
    pair_k = position[np.add.outer(sizes, sizes)].ravel()
    pairs = np.flatnonzero(pair_k >= 0)
    i, j = np.divmod(pairs, sizes.size)
    k = pair_k[pairs]

    for _ in range(max(0, iterations)):
        # E-step: a counter of value v holds one flow of size v (probability
        # p0 of no collision) or flows of sizes s and v - s, weighted by the
        # collision probability for lambda = flows / slots.  Splitting each
        # counter's slots by those weights and summing per size factors into
        # ``prob * (p0 * ratio + (1 - p0) * sum(ratio[k] * prob[j]))``, where
        # ``ratio`` is slots over the counter's total weight.
        total = estimate.sum()
        lam = float(total) / num_slots
        p_no_collision = np.exp(-lam) if lam < 50 else 0.0
        probabilities = estimate / total
        collided = np.bincount(
            k, weights=probabilities[i] * probabilities[j], minlength=sizes.size
        )
        weight_sum = p_no_collision * probabilities + (1 - p_no_collision) * collided
        usable = weight_sum > 0
        ratio = np.divide(slots, weight_sum, out=np.zeros_like(slots), where=usable)
        shared = np.bincount(i, weights=ratio[k] * probabilities[j], minlength=sizes.size)
        new_estimate = probabilities * (
            p_no_collision * ratio + (1 - p_no_collision) * shared
        )
        # A value no interpretation can explain keeps its slots as-is.
        new_estimate[~usable] += slots[~usable]
        if new_estimate.sum() > 0:
            estimate = new_estimate

    return {
        size: count
        for size, count in zip(sizes.tolist(), estimate.tolist())
        if count > 1e-9
    }


def merge_distributions(parts: List[Dict[int, float]]) -> Dict[int, float]:
    """Merge per-range distribution estimates (one per Tower level + HH part)."""
    merged: Dict[int, float] = {}
    for part in parts:
        for size, count in part.items():
            merged[size] = merged.get(size, 0.0) + count
    return merged


def distribution_entropy(distribution: Dict[int, float]) -> float:
    """Entropy of flow sizes: -sum(n_i * (i/N) * log2(i/N)) per the paper."""
    total_packets = sum(size * count for size, count in distribution.items())
    if total_packets <= 0:
        return 0.0
    entropy = 0.0
    for size, count in distribution.items():
        if size <= 0 or count <= 0:
            continue
        share = size / total_packets
        entropy -= count * share * np.log2(share)
    return float(entropy)
