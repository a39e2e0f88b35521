"""The flow classifier: TowerSketch + thresholds + LL sampling.

Every packet entering the network is first inserted into the classifier.  The
post-insertion size estimate of its flow selects the hierarchy (HH / HL / LL
candidate), and LL candidates are further thinned by flow-level sampling: a
hash of the flow ID compared against ``ceil(65536 * sample_rate)``, exactly
the mechanism the P4 implementation uses (appendix D.1, "Sampling").

:func:`classify_flows` classifies a batch of flows for many switches at once
(each flow at its ingress switch's classifier); every switch of a deployment
shares the classifier's hashes, so each Tower level and the sample hash are
evaluated once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..sketches.hashing import HashFamily, KeyArray
from ..sketches.tower import TowerSketch
from .config import MonitoringConfig, SwitchResources
from .encoder import PartHashes

#: Resolution of the sampling comparison (16-bit hash, as on the switch).
SAMPLE_HASH_RANGE = 1 << 16


class FlowClassifier:
    """Per-epoch flow classifier of one edge switch."""

    def __init__(self, resources: SwitchResources, seed: int = 0) -> None:
        self.resources = resources
        self.tower = TowerSketch(resources.classifier_levels, seed=seed)
        self._sample_hash = HashFamily(seed ^ 0xC1A551F1).draw(SAMPLE_HASH_RANGE)

    def memory_bytes(self) -> int:
        return self.tower.memory_bytes()

    def reset(self) -> None:
        self.tower.reset()

    def query(self, flow_id: int) -> int:
        """Online flow-size query (minimum over non-saturated counters)."""
        return self.tower.query(flow_id)


@dataclass
class ClassifiedBatch:
    """Array-form result of classifying one epoch's flows.

    Per-flow packet totals for each hierarchy tier (``ll`` is split into
    sampled / non-sampled by the ``sampled`` flags).  Because the classifier
    estimate only grows, a flow's segments always appear in LL → HL → HH
    order, so the per-tier totals losslessly encode the ordered segment list
    that sequential classification would produce.  ``keys`` are the flow IDs,
    decomposed once for every hash of the epoch; ``hashes`` holds the encoder
    parts' hashes of these flows once the upstream encoders computed them,
    keyed by part name.
    """

    keys: KeyArray
    sampled: np.ndarray
    ll: np.ndarray
    hl: np.ndarray
    hh: np.ndarray
    hashes: Dict[str, PartHashes] = field(default_factory=dict)


def classify_flows(
    classifiers: Sequence[FlowClassifier],
    owner: np.ndarray,
    flow_ids: Union[Sequence[int], np.ndarray, KeyArray],
    sizes: Union[Sequence[int], np.ndarray],
    config: MonitoringConfig,
) -> ClassifiedBatch:
    """Classify every flow at its switch's classifier, all switches in one pass.

    Flow ``r`` enters at ``classifiers[owner[r]]``; within a switch, flows
    arrive in batch order.  The classifiers must share their seed and
    geometry (one deployment), so each Tower level and the sample hash are
    evaluated once over all flows.

    Although classification is order-dependent (earlier flows' Tower
    insertions inflate later colliding flows' estimates), the value a flow
    *observes* in a counter is ``min(initial + sum of earlier colliding
    flows' sizes, saturation)`` because saturating addition of non-negative
    increments clips only the stored value.  Those exclusive prefix sums are
    computed per ``(switch, counter)`` key with one stable sort and a grouped
    cumulative sum, the three-way LL/HL/HH split then has a closed form per
    flow, and only flows that cross a saturation boundary mid-flow fall back
    to the scalar walk — so every decision and every counter is bit-identical
    to classifying each switch's flows one at a time.
    """
    keys = flow_ids if isinstance(flow_ids, KeyArray) else KeyArray(flow_ids)
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    owner = np.asarray(owner, dtype=np.int64)
    n = sizes_arr.size
    if keys.size != n or owner.size != n:
        raise ValueError("flow_ids, sizes and owners must have the same length")
    sample_threshold = int(round(config.sample_rate * SAMPLE_HASH_RANGE))
    sampled = classifiers[0]._sample_hash.hash_array(keys) < sample_threshold
    towers = [classifier.tower for classifier in classifiers]
    positive = np.maximum(sizes_arr, 0)
    ll = np.zeros(n, dtype=np.int64)
    hl = np.zeros(n, dtype=np.int64)
    hh = np.zeros(n, dtype=np.int64)
    if n and len(towers[0].levels) == 2:
        _classify_two_level(towers, owner, keys, positive, config, ll, hl, hh)
    elif n:
        _classify_generic(towers, owner, keys, positive, config, ll, hl, hh)
    return ClassifiedBatch(keys=keys, sampled=sampled, ll=ll, hl=hl, hh=hh)


def _switch_spans(keys: np.ndarray, width: int, num: int) -> List[Tuple[int, int, int]]:
    """``(switch, lo, hi)`` per switch with keys: ``keys[lo:hi]`` is its run.

    ``keys`` are ascending ``switch * width + index`` keys.
    """
    bounds = np.searchsorted(keys, np.arange(num + 1) * width).tolist()
    return [(s, lo, hi) for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < hi]


def _classify_two_level(
    towers: Sequence[TowerSketch],
    owner: np.ndarray,
    keys: KeyArray,
    positive: np.ndarray,
    config: MonitoringConfig,
    ll: np.ndarray,
    hl: np.ndarray,
    hh: np.ndarray,
) -> None:
    """Fill per-flow LL/HL/HH packet totals for the 2-level testbed tower."""
    threshold_high = config.threshold_high
    threshold_low = config.threshold_low
    n = positive.size
    levels = towers[0].levels
    saturations = [level.saturation for level in levels]
    max_saturation = max(saturations)
    pre_values: List[np.ndarray] = []
    for level_index in range(2):
        width = levels[level_index].num_counters
        saturation = saturations[level_index]
        combined = owner * width + towers[0]._hashes[level_index].hash_array(keys)
        order = np.argsort(combined, kind="stable")
        sorted_keys = combined[order]
        sorted_sizes = positive[order]
        inclusive = np.cumsum(sorted_sizes)
        exclusive = inclusive - sorted_sizes
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(first)
        group_keys = sorted_keys[starts]
        group_of = np.cumsum(first) - 1
        # Each (switch, counter)'s value before this batch, and after it.
        runs = [
            (towers[s]._counters[level_index], lo, hi, group_keys[lo:hi] - s * width)
            for s, lo, hi in _switch_spans(group_keys, width, len(towers))
        ]
        initial = np.empty(starts.size, dtype=np.int64)
        for counters, lo, hi, local in runs:
            initial[lo:hi] = counters[local]
        final = np.minimum(initial + np.add.reduceat(sorted_sizes, starts), saturation)
        for counters, lo, hi, local in runs:
            counters[local] = final[lo:hi]
        seen = np.empty(n, dtype=np.int64)
        seen[order] = np.minimum(
            initial[group_of] + (exclusive - exclusive[starts][group_of]), saturation
        )
        pre_values.append(seen)
    value_0, value_1 = pre_values
    saturation_0, saturation_1 = saturations
    unsat_0 = value_0 < saturation_0
    unsat_1 = value_1 < saturation_1
    entry = np.full(n, max_saturation, dtype=np.int64)
    np.minimum(entry, value_0, where=unsat_0, out=entry)
    np.minimum(entry, value_1, where=unsat_1, out=entry)
    # Closed-form three-way split from the entry estimate.
    next_estimate = entry + 1
    hh_first = next_estimate >= threshold_high
    ll_first = next_estimate < threshold_low
    np.copyto(ll, np.where(ll_first, np.minimum(positive, threshold_low - 1 - entry), 0))
    rem_after_ll = positive - ll
    hl_cap = np.where(
        ll_first, threshold_high - threshold_low,
        np.maximum(threshold_high - 1 - entry, 0),
    )
    np.copyto(hl, np.where(hh_first, 0, np.minimum(rem_after_ll, hl_cap)))
    np.copyto(hh, positive - ll - hl)
    # Flows whose counters cross saturation mid-flow (or degenerate
    # configurations) replay the scalar walk on their exact entry values,
    # unless they start as HH candidates: then every packet is HH either way.
    fallback = (
        (unsat_0 & (value_0 + positive >= saturation_0))
        | (unsat_1 & (value_1 + positive >= saturation_1))
        | ((~unsat_0) & (~unsat_1) & (max_saturation + 1 < threshold_high))
    ) & (positive > 0) & ~hh_first
    if not fallback.any():
        return
    for k in np.nonzero(fallback)[0].tolist():
        v0 = int(value_0[k])
        v1 = int(value_1[k])
        remaining = int(positive[k])
        ll_k = hl_k = hh_k = 0
        while remaining > 0:
            if v0 < saturation_0:
                estimate = v1 if (v1 < saturation_1 and v1 < v0) else v0
            elif v1 < saturation_1:
                estimate = v1
            else:
                estimate = max_saturation
            next_est = estimate + 1
            if next_est >= threshold_high:
                chunk = remaining
                hh_k += chunk
            elif next_est >= threshold_low:
                chunk = max(1, min(remaining, threshold_high - 1 - estimate))
                hl_k += chunk
            else:
                chunk = max(1, min(remaining, threshold_low - 1 - estimate))
                ll_k += chunk
            v0 = min(v0 + chunk, saturation_0)
            v1 = min(v1 + chunk, saturation_1)
            remaining -= chunk
        ll[k] = ll_k
        hl[k] = hl_k
        hh[k] = hh_k


def _classify_generic(
    towers: Sequence[TowerSketch],
    owner: np.ndarray,
    keys: KeyArray,
    positive: np.ndarray,
    config: MonitoringConfig,
    ll: np.ndarray,
    hl: np.ndarray,
    hh: np.ndarray,
) -> None:
    """Scalar-walk classification for towers with != 2 levels.

    Flows walk in batch order over every switch's counters laid end to end,
    indexed by the same ``switch * width + index`` keys as the 2-level path.
    """
    levels = towers[0].levels
    widths = [level.num_counters for level in levels]
    indices = [
        (owner * width + h.hash_array(keys)).tolist()
        for h, width in zip(towers[0]._hashes, widths)
    ]
    counters = [
        np.concatenate([tower._counters[li] for tower in towers]).tolist()
        for li in range(len(levels))
    ]
    saturations = [level.saturation for level in levels]
    max_saturation = max(saturations)
    num_levels = len(saturations)
    threshold_high = config.threshold_high
    threshold_low = config.threshold_low
    for k, num_packets in enumerate(positive.tolist()):
        if num_packets <= 0:
            continue
        remaining = num_packets
        ll_k = hl_k = hh_k = 0
        while remaining > 0:
            estimate = None
            for li in range(num_levels):
                value = counters[li][indices[li][k]]
                if value < saturations[li]:
                    estimate = value if estimate is None else min(estimate, value)
            if estimate is None:
                estimate = max_saturation
            next_estimate = estimate + 1
            if next_estimate >= threshold_high:
                chunk = remaining
                hh_k += chunk
            elif next_estimate >= threshold_low:
                chunk = max(1, min(remaining, threshold_high - 1 - estimate))
                hl_k += chunk
            else:
                chunk = max(1, min(remaining, threshold_low - 1 - estimate))
                ll_k += chunk
            for li in range(num_levels):
                j = indices[li][k]
                counters[li][j] = min(counters[li][j] + chunk, saturations[li])
            remaining -= chunk
        ll[k] = ll_k
        hl[k] = hl_k
        hh[k] = hh_k
    for li, width in enumerate(widths):
        for s, tower in enumerate(towers):
            tower._counters[li][:] = counters[li][s * width:(s + 1) * width]
