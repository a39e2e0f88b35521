"""The flow classifier: TowerSketch + thresholds + LL sampling.

Every packet entering the network is first inserted into the classifier.  The
post-insertion size estimate of its flow selects the hierarchy (HH / HL / LL
candidate), and LL candidates are further thinned by flow-level sampling: a
hash of the flow ID compared against ``ceil(65536 * sample_rate)``, exactly
the mechanism the P4 implementation uses (appendix D.1, "Sampling").

:func:`classify_flows` classifies a batch of flows for many switches at once
(each flow at its ingress switch's classifier); every switch of a deployment
shares the classifier's hashes, so each Tower level and the sample hash are
evaluated once per batch.  :func:`split_flows` is the one LL/HL/HH walk, for
any number of Tower levels; Tower+Fermat (appendix C) runs it too, with one
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple, Union

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
    evaluated once over all flows.  :func:`split_flows` does the insertion
    and the LL/HL/HH split at the config's ``T_l`` and ``T_h``.
    """
    keys = flow_ids if isinstance(flow_ids, KeyArray) else KeyArray(flow_ids)
    ll, hl, hh = split_flows(
        [classifier.tower for classifier in classifiers],
        owner,
        keys,
        sizes,
        config.threshold_high,
        config.threshold_low,
    )
    sample_threshold = int(round(config.sample_rate * SAMPLE_HASH_RANGE))
    sampled = classifiers[0]._sample_hash.hash_array(keys) < sample_threshold
    return ClassifiedBatch(keys=keys, sampled=sampled, ll=ll, hl=hl, hh=hh)


def split_flows(
    towers: Sequence[TowerSketch],
    owner: Union[Sequence[int], np.ndarray],
    keys: KeyArray,
    sizes: Union[Sequence[int], np.ndarray],
    threshold_high: int,
    threshold_low: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Insert flow ``r`` into ``towers[owner[r]]`` in batch order; split its packets.

    Returns each flow's ``(ll, hl, hh)`` packet totals, as inserting the
    packets one at a time would sort them: a packet is HH when its flow's
    estimate after the insertion reaches ``threshold_high``, else HL when it
    reaches ``threshold_low``, else LL.  Flows of size zero or less insert
    nothing.  The towers must share levels and hashes (one deployment).

    Although insertion is order-dependent (earlier flows' packets inflate
    later colliding flows' estimates), the value a flow *observes* in a
    counter on arrival is ``min(initial + sum of earlier colliding flows'
    sizes, saturation)``, because saturating addition of non-negative
    increments clips only the stored value (:func:`_arrival_values`).  From
    those values all flows walk their packets together, one chunk per step:
    a chunk runs to the next threshold, a counter that saturates inside it
    drops out of the next estimate, and a flow whose counters are all
    saturated (estimate stuck at the largest saturation) finishes in one
    chunk.  The tier rises at most twice and each level saturates at most
    once, so a flow takes at most ``levels + 3`` steps, and every split and
    counter is bit-identical to inserting the flows one by one.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    owner = np.asarray(owner, dtype=np.int64)
    n = sizes.size
    if keys.size != n or owner.size != n:
        raise ValueError("flow_ids, sizes and owners must have the same length")
    splits = np.zeros((3, n), dtype=np.int64)  # the LL, HL and HH rows
    positive = np.maximum(sizes, 0)
    rows = np.flatnonzero(positive)
    if rows.size == 0:
        return splits[0], splits[1], splits[2]
    levels = towers[0].levels
    saturation = np.array([[level.saturation] for level in levels], dtype=np.int64)
    stuck = int(saturation.max())
    values = np.stack(
        [_arrival_values(towers, index, owner, keys, positive) for index in range(len(levels))]
    ).take(rows, axis=1)
    remaining = positive[rows]
    flat = splits.reshape(-1)
    while rows.size:
        estimate = np.where(values < saturation, values, stuck).min(axis=0)
        after = estimate + 1
        tier = (after >= threshold_low).astype(np.int64)
        tier[after >= threshold_high] = 2
        # LL and HL chunks stop where the estimate reaches the next threshold.
        room = np.where(tier == 1, threshold_high, threshold_low) - after
        chunk = np.where((tier == 2) | (estimate == stuck), remaining, np.minimum(remaining, room))
        flat[tier * n + rows] += chunk
        remaining -= chunk
        left = np.flatnonzero(remaining)
        rows, remaining = rows[left], remaining[left]
        # A value past its level's saturation reads as saturated: no clip.
        values = values.take(left, axis=1) + chunk[left]
    return splits[0], splits[1], splits[2]


def _arrival_values(
    towers: Sequence[TowerSketch],
    level_index: int,
    owner: np.ndarray,
    keys: KeyArray,
    positive: np.ndarray,
) -> np.ndarray:
    """Each flow's level-``level_index`` counter value on arrival, in batch order.

    Exclusive prefix sums of the sizes per ``(switch, counter)`` key, from
    one stable sort and a grouped cumulative sum; also writes every counter's
    value after the batch.
    """
    level = towers[0].levels[level_index]
    width = level.num_counters
    saturation = level.saturation
    combined = owner * width + towers[0]._hashes[level_index].hash_array(keys)
    order = np.argsort(combined, kind="stable")
    sorted_keys = combined[order]
    sorted_sizes = positive[order]
    exclusive = np.cumsum(sorted_sizes) - sorted_sizes
    first = np.empty(sorted_keys.size, dtype=bool)
    first[0] = True
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    group_keys = sorted_keys[starts]
    group_of = np.cumsum(first) - 1
    # Each (switch, counter)'s value before this batch, and after it; the
    # keys of switch s are the run s * width <= key < (s + 1) * width.
    bounds = np.searchsorted(group_keys, np.arange(len(towers) + 1) * width).tolist()
    runs = [
        (towers[s]._counters[level_index], lo, hi, group_keys[lo:hi] - s * width)
        for s, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if lo < hi
    ]
    initial = np.empty(starts.size, dtype=np.int64)
    for counters, lo, hi, local in runs:
        initial[lo:hi] = counters[local]
    final = np.minimum(initial + np.add.reduceat(sorted_sizes, starts), saturation)
    for counters, lo, hi, local in runs:
        counters[local] = final[lo:hi]
    seen = np.empty(sorted_keys.size, dtype=np.int64)
    seen[order] = np.minimum(
        initial[group_of] + (exclusive - exclusive[starts][group_of]), saturation
    )
    return seen
