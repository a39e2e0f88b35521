"""The six packet-accumulation tasks (paper section 4.2).

All six tasks are answered from the flow classifier (TowerSketch) and the
upstream HH encoder collected from one edge switch; network-wide answers are
obtained by synthesising the per-switch answers (every flow is classified only
at its ingress switch, so per-switch results are disjoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from ..dataplane.switch import SketchGroup
from ..sketches.hashing import KeyArray
from ..sketches.linear_counting import estimate_cardinality
from ..sketches.mrac import (
    distribution_entropy,
    estimate_flow_size_distribution,
    merge_distributions,
)
from ..sketches.tower import TowerSketch

SwitchId = object


@dataclass
class SwitchView:
    """The decoded view of one switch needed by the accumulation tasks."""

    group: SketchGroup
    hh_flowset: Dict[int, int]

    @property
    def threshold_high(self) -> int:
        return self.group.config.threshold_high


def flow_size_estimate(view: SwitchView, flow_id: int) -> int:
    """Estimated size of one flow at one switch.

    Flows in the HH Flowset are estimated as ``T_h + q`` (their pre-promotion
    packets were classified below ``T_h``); other flows fall back to the
    classifier query.
    """
    if flow_id in view.hh_flowset:
        return view.threshold_high + view.hh_flowset[flow_id]
    return view.group.classifier.query(flow_id)


def heavy_hitter_detection(view: SwitchView, threshold: int) -> Dict[int, int]:
    """Flows whose estimated size exceeds ``threshold`` (paper Δ_h)."""
    result: Dict[int, int] = {}
    for flow_id, size in view.hh_flowset.items():
        estimate = view.threshold_high + size
        if estimate > threshold:
            result[flow_id] = estimate
    return result


def heavy_change_detection(
    previous: SwitchView, current: SwitchView, threshold: int
) -> Dict[int, int]:
    """Flows whose estimated size changed by more than ``threshold`` (Δ_c)."""
    candidates = set(previous.hh_flowset) | set(current.hh_flowset)
    changes: Dict[int, int] = {}
    for flow_id in candidates:
        before = flow_size_estimate(previous, flow_id)
        after = flow_size_estimate(current, flow_id)
        delta = abs(after - before)
        if delta > threshold:
            changes[flow_id] = delta
    return changes


def cardinality_estimate(view: SwitchView) -> float:
    """Number of flows at the switch (linear counting on the widest array)."""
    return estimate_cardinality(view.group.classifier.tower.widest_array())


def flow_size_distribution(view: SwitchView, iterations: int = 8) -> Dict[int, float]:
    """Flow-size distribution estimate ``{size: flows}`` for one switch.

    HH Flowset flows are sized ``T_h + q`` (:func:`flow_size_estimate`).
    """
    return tower_flow_size_distribution(
        view.group.classifier.tower,
        [view.threshold_high + size for size in view.hh_flowset.values()],
        iterations=iterations,
    )


def tower_flow_size_distribution(
    tower: TowerSketch, hh_sizes: Iterable[int], iterations: int = 8
) -> Dict[int, float]:
    """Flow-size distribution ``{size: flows}`` from a Tower and its HH sizes.

    Each Tower level contributes MRAC's estimate below its saturation value
    (above the previous level's); ``hh_sizes``, the estimated sizes of the
    flows decoded from the HH part, supply the tail at or above the largest
    saturation.  Tower+Fermat (appendix C) shares it.
    """
    parts = []
    previous_saturation = 1
    for index, level in enumerate(tower.levels):
        estimate = estimate_flow_size_distribution(
            tower.counter_array(index),
            iterations=iterations,
            saturation=level.saturation,
        )
        ranged = {
            size: count
            for size, count in estimate.items()
            if previous_saturation <= size < level.saturation
        }
        parts.append(ranged)
        previous_saturation = level.saturation
    tail: Dict[int, float] = {}
    for size in hh_sizes:
        if size >= previous_saturation:
            tail[size] = tail.get(size, 0.0) + 1.0
    parts.append(tail)
    return merge_distributions(parts)


def entropy_estimate(view: SwitchView, iterations: int = 8) -> float:
    """Entropy of the flow-size distribution at one switch."""
    return distribution_entropy(flow_size_distribution(view, iterations=iterations))


# --------------------------------------------------------------------------- #
# network-wide synthesis
# --------------------------------------------------------------------------- #
def network_flow_sizes(
    views: Mapping[SwitchId, SwitchView], flow_ids: Sequence[int]
) -> List[int]:
    """:func:`network_flow_size` of every flow in ``flow_ids``, in order.

    The flows are hashed once per Tower level (views whose classifiers share
    hashes, as one deployment's do, share the indices) and each view's
    counters are gathered at once.
    """
    flow_ids = list(flow_ids)
    if not views or not flow_ids:
        return [0] * len(flow_ids)
    keys = KeyArray(flow_ids)
    indices_by_hashes: Dict[tuple, List[np.ndarray]] = {}
    best = np.full(len(flow_ids), np.iinfo(np.int64).min, dtype=np.int64)
    for view in views.values():
        tower = view.group.classifier.tower
        hashes = tuple(tower._hashes)
        indices = indices_by_hashes.get(hashes)
        if indices is None:
            indices = indices_by_hashes[hashes] = [h.hash_array(keys) for h in hashes]
        estimates = tower.query_indices(indices)
        flowset = view.hh_flowset
        if flowset:
            for row, flow_id in enumerate(flow_ids):
                if flow_id in flowset:
                    estimates[row] = view.threshold_high + flowset[flow_id]
        np.maximum(best, estimates, out=best)
    return best.tolist()


def network_flow_size(views: Mapping[SwitchId, SwitchView], flow_id: int) -> int:
    """Network-wide flow size: the maximum estimate over switches.

    Each flow is classified at exactly one ingress switch, where its estimate
    is meaningful; at every other switch the query returns (near) zero.
    """
    return network_flow_sizes(views, [flow_id])[0]


def network_heavy_hitters(
    views: Mapping[SwitchId, SwitchView], threshold: int
) -> Dict[int, int]:
    result: Dict[int, int] = {}
    for view in views.values():
        for flow_id, estimate in heavy_hitter_detection(view, threshold).items():
            result[flow_id] = max(result.get(flow_id, 0), estimate)
    return result


def network_cardinality(views: Mapping[SwitchId, SwitchView]) -> float:
    return sum(cardinality_estimate(view) for view in views.values())


def network_flow_size_distribution(
    views: Mapping[SwitchId, SwitchView], iterations: int = 8
) -> Dict[int, float]:
    return merge_distributions(
        [flow_size_distribution(view, iterations=iterations) for view in views.values()]
    )


def network_entropy(views: Mapping[SwitchId, SwitchView], iterations: int = 8) -> float:
    return distribution_entropy(
        network_flow_size_distribution(views, iterations=iterations)
    )


def build_views(
    groups: Mapping[SwitchId, SketchGroup],
    hh_flowsets: Mapping[SwitchId, Dict[int, int]],
) -> Dict[SwitchId, SwitchView]:
    """Pair every collected sketch group with its decoded HH Flowset."""
    return {
        switch_id: SwitchView(group=group, hh_flowset=dict(hh_flowsets.get(switch_id, {})))
        for switch_id, group in groups.items()
    }
