"""Per-flow data-plane walks, kept as oracles for the vectorized data plane.

``classify_flow_packets`` is the flow classifier's per-flow walk: it inserts
one flow's packets into the Tower classifier a chunk at a time and returns
the flow's ordered hierarchy segments, exactly as classifying the packets one
by one would (``classify_packet``).  ``FlowClassifier.classify_flows_arrays``
must give every flow the same LL/HL/HH split and leave the same counters as
calling it flow by flow in batch order; ``tests/test_numpy_backend.py`` and
``tests/test_dataplane.py`` check that on random inputs, reading the batch
back as segments with ``batch_segments``.  ``loss_uniform`` is
one loss-draw uniform computed on Python ints, the oracle of the vectorized
``loss_uniforms`` (``tests/test_sharded_plane.py``).

The walks are the classifier methods as they stood in ``src/``, written as
functions of the classifier.
"""

from typing import List, Tuple

from repro.dataplane.classifier import SAMPLE_HASH_RANGE, ClassifiedBatch, FlowClassifier
from repro.dataplane.config import MonitoringConfig
from repro.dataplane.hierarchy import FlowHierarchy
from repro.network.simulator import (
    _INV_2_53,
    _POS_STRIDE,
    _SLOT_STRIDE,
    _U64,
    mix64,
)


def is_sampled(classifier: FlowClassifier, flow_id: int, config: MonitoringConfig) -> bool:
    """Flow-level sampling decision for LL candidates.

    The decision depends only on the flow ID and the configured rate, so
    the upstream and downstream encoders agree on it without extra state.
    """
    threshold = int(round(config.sample_rate * SAMPLE_HASH_RANGE))
    return classifier._sample_hash(flow_id) < threshold


def classify_estimate(
    classifier: FlowClassifier, estimate: int, flow_id: int, config: MonitoringConfig
) -> FlowHierarchy:
    """Hierarchy of a packet whose flow has the given post-insert estimate."""
    if estimate >= config.threshold_high:
        return FlowHierarchy.HH_CANDIDATE
    if estimate >= config.threshold_low:
        return FlowHierarchy.HL_CANDIDATE
    if is_sampled(classifier, flow_id, config):
        return FlowHierarchy.SAMPLED_LL
    return FlowHierarchy.NON_SAMPLED_LL


def classify_packet(
    classifier: FlowClassifier, flow_id: int, config: MonitoringConfig
) -> FlowHierarchy:
    """Insert one packet into the classifier and return its hierarchy."""
    estimate = classifier.tower.insert(flow_id, 1)
    return classify_estimate(classifier, estimate, flow_id, config)


def classify_flow_packets(
    classifier: FlowClassifier, flow_id: int, num_packets: int, config: MonitoringConfig
) -> List[Tuple[FlowHierarchy, int]]:
    """Insert ``num_packets`` of one flow and return its hierarchy segments.

    The result is an ordered list of ``(hierarchy, packet_count)`` segments
    equivalent to classifying the packets one at a time.  Because the
    classifier estimate for a flow grows by exactly one per inserted packet
    (until saturation) while no other flow's packets interleave, the
    segment boundaries can be computed in closed form, which keeps the
    simulation fast without changing any classification decision.
    """
    if num_packets <= 0:
        return []
    segments: List[Tuple[FlowHierarchy, int]] = []
    remaining = num_packets
    sampled = is_sampled(classifier, flow_id, config)
    while remaining > 0:
        estimate = classifier.tower.query(flow_id)
        next_estimate = estimate + 1
        if next_estimate >= config.threshold_high:
            hierarchy = FlowHierarchy.HH_CANDIDATE
            chunk = remaining
        elif next_estimate >= config.threshold_low:
            hierarchy = FlowHierarchy.HL_CANDIDATE
            chunk = min(remaining, config.threshold_high - 1 - estimate)
        else:
            hierarchy = (
                FlowHierarchy.SAMPLED_LL if sampled else FlowHierarchy.NON_SAMPLED_LL
            )
            chunk = min(remaining, config.threshold_low - 1 - estimate)
        chunk = max(1, chunk)
        classifier.tower.insert(flow_id, chunk)
        if segments and segments[-1][0] is hierarchy:
            segments[-1] = (hierarchy, segments[-1][1] + chunk)
        else:
            segments.append((hierarchy, chunk))
        remaining -= chunk
    return segments


def batch_segments(batch: ClassifiedBatch) -> List[List[Tuple[FlowHierarchy, int]]]:
    """Each flow's ordered segments as a :class:`ClassifiedBatch` encodes them.

    A flow's estimate only grows, so its segments run LL, HL, HH; the
    batch's per-tier totals (zeros omitted) are that list.
    """
    segments = []
    for ll, hl, hh, sampled in zip(
        batch.ll.tolist(), batch.hl.tolist(), batch.hh.tolist(), batch.sampled.tolist()
    ):
        flow = []
        if ll:
            tier = FlowHierarchy.SAMPLED_LL if sampled else FlowHierarchy.NON_SAMPLED_LL
            flow.append((tier, ll))
        if hl:
            flow.append((FlowHierarchy.HL_CANDIDATE, hl))
        if hh:
            flow.append((FlowHierarchy.HH_CANDIDATE, hh))
        segments.append(flow)
    return segments


def loss_uniform(key: int, position: int, slot: int) -> float:
    """One uniform in [0, 1) keyed by (epoch key, trace position, segment slot)."""
    z = mix64((key + position * _POS_STRIDE + slot * _SLOT_STRIDE) & _U64)
    return (z >> 11) * _INV_2_53
