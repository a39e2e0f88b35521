"""The flow classifier: TowerSketch + thresholds + LL sampling.

Every packet entering the network is first inserted into the classifier.  The
post-insertion size estimate of its flow selects the hierarchy (HH / HL / LL
candidate), and LL candidates are further thinned by flow-level sampling: a
hash of the flow ID compared against ``ceil(65536 * sample_rate)``, exactly
the mechanism the P4 implementation uses (appendix D.1, "Sampling").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..sketches.hashing import HashFamily, KeyArray
from ..sketches.tower import TowerSketch
from .config import MonitoringConfig, SwitchResources
from .hierarchy import FlowHierarchy

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

    def classify_flows_arrays(
        self,
        flow_ids: Union[Sequence[int], np.ndarray],
        sizes: Union[Sequence[int], np.ndarray],
        config: MonitoringConfig,
    ) -> "ClassifiedBatch":
        """Vectorized batch classification (the NumPy backend's hot path).

        Although classification is order-dependent (earlier flows' Tower
        insertions inflate later colliding flows' estimates), the value a flow
        *observes* in a counter is ``min(initial + sum of earlier colliding
        flows' sizes, saturation)`` because saturating addition of non-negative
        increments clips only the stored value.  Those exclusive prefix sums
        are computed per counter with a grouped cumulative sum, the three-way
        LL/HL/HH split then has a closed form per flow, and only flows that
        cross a saturation boundary mid-flow fall back to the scalar walk —
        so the result is bit-identical to sequential classification.
        """
        keys = flow_ids if isinstance(flow_ids, KeyArray) else KeyArray(flow_ids)
        if isinstance(flow_ids, np.ndarray):
            ids_arr = flow_ids
        elif isinstance(flow_ids, KeyArray):
            ids_arr = np.array(keys.ints(), dtype=object)
        else:
            try:
                ids_arr = np.asarray(flow_ids, dtype=np.uint64)
            except (OverflowError, TypeError):
                ids_arr = np.array([int(k) for k in flow_ids], dtype=object)
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        n = sizes_arr.size
        if keys.size != n:
            raise ValueError("flow_ids and sizes must have the same length")
        sample_threshold = int(round(config.sample_rate * SAMPLE_HASH_RANGE))
        sampled = self._sample_hash.hash_array(keys) < sample_threshold
        tower = self.tower
        positive = np.maximum(sizes_arr, 0)
        ll = np.zeros(n, dtype=np.int64)
        hl = np.zeros(n, dtype=np.int64)
        hh = np.zeros(n, dtype=np.int64)
        if n and len(tower.levels) == 2:
            self._classify_arrays_two_level(keys, positive, config, ll, hl, hh)
        elif n:
            self._classify_arrays_generic(keys, positive, config, ll, hl, hh)
        active = sizes_arr > 0
        return ClassifiedBatch(
            flow_ids=ids_arr,
            sizes=sizes_arr,
            sampled=sampled,
            ll=ll,
            hl=hl,
            hh=hh,
            packets=int(sizes_arr[active].sum()),
            flows_seen=int(active.sum()),
        )

    def _classify_arrays_two_level(
        self,
        keys: KeyArray,
        positive: np.ndarray,
        config: MonitoringConfig,
        ll: np.ndarray,
        hl: np.ndarray,
        hh: np.ndarray,
    ) -> None:
        """Fill per-flow LL/HL/HH packet totals for the 2-level testbed tower."""
        tower = self.tower
        threshold_high = config.threshold_high
        threshold_low = config.threshold_low
        n = positive.size
        saturations = [level.saturation for level in tower.levels]
        max_saturation = max(saturations)
        pre_values: List[np.ndarray] = []
        for level_index in range(2):
            counters = tower._counters[level_index]
            saturation = saturations[level_index]
            indices = tower._hashes[level_index].hash_array(keys)
            order = np.argsort(indices, kind="stable")
            sorted_idx = indices[order]
            sorted_sizes = positive[order]
            inclusive = np.cumsum(sorted_sizes)
            exclusive = inclusive - sorted_sizes
            first = np.empty(n, dtype=bool)
            first[0] = True
            first[1:] = sorted_idx[1:] != sorted_idx[:-1]
            group_base = np.maximum.accumulate(np.where(first, exclusive, 0))
            seen_sorted = counters[sorted_idx] + (exclusive - group_base)
            seen = np.empty(n, dtype=np.int64)
            seen[order] = np.minimum(seen_sorted, saturation)
            pre_values.append(seen)
            np.add.at(counters, indices, positive)
            np.minimum(counters, saturation, out=counters)
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
        # configurations) replay the scalar walk on their exact entry values.
        fallback = (
            (unsat_0 & (value_0 + positive >= saturation_0))
            | (unsat_1 & (value_1 + positive >= saturation_1))
            | ((~unsat_0) & (~unsat_1) & (max_saturation + 1 < threshold_high))
        ) & (positive > 0)
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

    def _classify_arrays_generic(
        self,
        keys: KeyArray,
        positive: np.ndarray,
        config: MonitoringConfig,
        ll: np.ndarray,
        hl: np.ndarray,
        hh: np.ndarray,
    ) -> None:
        """Scalar-walk batch classification for towers with != 2 levels."""
        tower = self.tower
        indices = [h.hash_array(keys).tolist() for h in tower._hashes]
        counters = [row.tolist() for row in tower._counters]
        saturations = [level.saturation for level in tower.levels]
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
        for li in range(num_levels):
            tower._counters[li][:] = counters[li]

    def query(self, flow_id: int) -> int:
        """Online flow-size query (minimum over non-saturated counters)."""
        return self.tower.query(flow_id)


@dataclass
class ClassifiedBatch:
    """Array-form result of batch classification.

    Per-flow packet totals for each hierarchy tier (``ll`` is split into
    sampled / non-sampled by the ``sampled`` flags).  Because the classifier
    estimate only grows, a flow's segments always appear in LL → HL → HH
    order, so the per-tier totals losslessly encode the ordered segment list
    that sequential classification would produce.
    """

    flow_ids: np.ndarray
    sizes: np.ndarray
    sampled: np.ndarray
    ll: np.ndarray
    hl: np.ndarray
    hh: np.ndarray
    packets: int
    flows_seen: int

    def grouped_arrays(self) -> List[Tuple[FlowHierarchy, np.ndarray, np.ndarray]]:
        """Per-hierarchy ``(flow_ids, counts)`` arrays for the encoders."""
        groups: List[Tuple[FlowHierarchy, np.ndarray, np.ndarray]] = []
        ll_mask = self.ll > 0
        sll_mask = ll_mask & self.sampled
        nsll_mask = ll_mask & ~self.sampled
        for hierarchy, mask, counts in (
            (FlowHierarchy.HH_CANDIDATE, self.hh > 0, self.hh),
            (FlowHierarchy.HL_CANDIDATE, self.hl > 0, self.hl),
            (FlowHierarchy.SAMPLED_LL, sll_mask, self.ll),
            (FlowHierarchy.NON_SAMPLED_LL, nsll_mask, self.ll),
        ):
            if mask.any():
                groups.append((hierarchy, self.flow_ids[mask], counts[mask]))
        return groups

    def totals(self) -> Dict[FlowHierarchy, int]:
        """Total packets per hierarchy (for the switch statistics)."""
        ll_mask = self.ll > 0
        sampled_ll = int(self.ll[ll_mask & self.sampled].sum())
        non_sampled_ll = int(self.ll[ll_mask & ~self.sampled].sum())
        return {
            FlowHierarchy.HH_CANDIDATE: int(self.hh.sum()),
            FlowHierarchy.HL_CANDIDATE: int(self.hl.sum()),
            FlowHierarchy.SAMPLED_LL: sampled_ll,
            FlowHierarchy.NON_SAMPLED_LL: non_sampled_ll,
        }
