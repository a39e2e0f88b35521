"""Figure 11 experiment driver: the six packet-accumulation tasks.

Compares Tower+Fermat against the nine baselines of appendix C (CM, CU,
CountHeap, UnivMon, ElasticSketch, FCM, HashPipe, CocoSketch, MRAC) on
heavy-hitter detection, flow-size estimation, heavy-change detection,
flow-size distribution, entropy, and cardinality, across a range of memory
budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..metrics.accuracy import (
    average_relative_error,
    empirical_entropy,
    f1_score,
    relative_error,
    weighted_mean_relative_error,
)
from ..sketches import registry as sketch_registry
from ..sketches.mrac import estimate_flow_size_distribution
from ..sketches.registry import DEFAULT_THRESHOLD_FALLBACK
from ..traffic.flow import Trace
from ..traffic.generator import ground_truth_heavy_changes, ground_truth_heavy_hitters

#: Paper thresholds: Δ_h ≈ 0.02 % and Δ_c ≈ 0.01 % of the total packets.
HEAVY_HITTER_FRACTION = 0.0002
HEAVY_CHANGE_FRACTION = 0.0001

#: Which algorithms each sub-figure of Figure 11 compares.
TASK_ALGORITHMS: Dict[str, List[str]] = {
    "heavy_hitter": ["tower_fermat", "fcm", "univmon", "countheap", "elastic", "hashpipe", "coco"],
    "flow_size": ["tower_fermat", "fcm", "cm", "cu", "elastic"],
    "heavy_change": ["tower_fermat", "fcm", "univmon", "countheap", "elastic", "coco"],
    "distribution": ["tower_fermat", "fcm", "mrac", "elastic"],
    "entropy": ["tower_fermat", "fcm", "univmon", "elastic", "mrac"],
    "cardinality": ["tower_fermat", "fcm", "univmon", "elastic"],
}

ALL_ALGORITHMS = sorted({name for names in TASK_ALGORITHMS.values() for name in names})


def build_sketch(name: str, memory_bytes: int, seed: int = 0, hh_candidate_threshold: Optional[int] = None):
    """Construct one of the compared algorithms at a memory budget.

    Thin wrapper over :func:`repro.sketches.registry.build` kept for backward
    compatibility.  ``hh_candidate_threshold`` overrides Tower+Fermat's
    ``T_h`` (the paper sets it to the heavy-change threshold so that most
    heavy hitters and heavy changes reach the Fermat part); the registry
    drops it for algorithms without that knob.
    """
    return sketch_registry.build(
        name,
        memory_bytes=memory_bytes,
        seed=seed,
        hh_candidate_threshold=hh_candidate_threshold,
    )


def insert_trace(sketch, trace: Trace) -> None:
    """Feed a whole trace into a sketch in trace order: one ``insert_batch``.

    The base :meth:`~repro.sketches.base.Sketch.insert_batch` is the
    in-order ``insert`` loop, so the order-dependent baselines (HashPipe,
    Elastic, CocoSketch, CU) keep their exact state, while CM and
    Tower+Fermat insert the whole trace in NumPy.
    """
    columns = trace.columns()
    sketch.insert_batch(columns.flow_ids, columns.sizes)


def _estimated_distribution(name: str, sketch, iterations: int = 6) -> Dict[int, float]:
    if name == "tower_fermat":
        return sketch.flow_size_distribution(iterations=iterations)
    if name == "elastic":
        light = estimate_flow_size_distribution(
            sketch.light_counters_view(), iterations=iterations, saturation=255
        )
        heavy: Dict[int, float] = {}
        for size in sketch.tracked_flows().values():
            heavy[size] = heavy.get(size, 0.0) + 1.0
        combined = dict(light)
        for size, count in heavy.items():
            combined[size] = combined.get(size, 0.0) + count
        return combined
    if name == "fcm":
        return estimate_flow_size_distribution(
            sketch.leaf_counters_view(), iterations=iterations, saturation=255
        )
    if name == "mrac":
        return estimate_flow_size_distribution(
            sketch._counters[0], iterations=iterations
        )
    raise KeyError(f"{name} does not provide a flow-size distribution")


def _estimated_cardinality(name: str, sketch) -> float:
    from ..sketches.linear_counting import estimate_cardinality

    if name == "tower_fermat":
        return sketch.cardinality()
    if name == "univmon":
        return sketch.cardinality()
    if name == "elastic":
        light = estimate_cardinality(sketch.light_counters_view())
        return light + len(sketch.tracked_flows())
    if name == "fcm":
        return estimate_cardinality(sketch.leaf_counters_view())
    raise KeyError(f"{name} does not provide a cardinality estimate")


def _estimated_entropy(name: str, sketch, iterations: int = 6) -> float:
    if name == "tower_fermat":
        return sketch.entropy(iterations=iterations)
    if name == "univmon":
        return sketch.entropy()
    return empirical_entropy(_estimated_distribution(name, sketch, iterations))


@dataclass
class AccumulationResult:
    """Per-algorithm metric values for the six tasks at one memory budget."""

    memory_bytes: int
    heavy_hitter_f1: Dict[str, float] = field(default_factory=dict)
    flow_size_are: Dict[str, float] = field(default_factory=dict)
    heavy_change_f1: Dict[str, float] = field(default_factory=dict)
    distribution_wmre: Dict[str, float] = field(default_factory=dict)
    entropy_re: Dict[str, float] = field(default_factory=dict)
    cardinality_re: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            "heavy_hitter_f1": self.heavy_hitter_f1,
            "flow_size_are": self.flow_size_are,
            "heavy_change_f1": self.heavy_change_f1,
            "distribution_wmre": self.distribution_wmre,
            "entropy_re": self.entropy_re,
            "cardinality_re": self.cardinality_re,
        }


def evaluate_tasks(
    trace: Trace,
    second_trace: Trace,
    memory_bytes: int,
    algorithms: Optional[Iterable[str]] = None,
    seed: int = 0,
    distribution_iterations: int = 6,
) -> AccumulationResult:
    """Run all six tasks at one memory budget.

    ``second_trace`` is the adjacent epoch used by heavy-change detection.
    """
    selected = set(algorithms) if algorithms is not None else set(ALL_ALGORITHMS)
    result = AccumulationResult(memory_bytes=memory_bytes)

    total_packets = trace.num_packets()
    hh_threshold = max(1, int(total_packets * HEAVY_HITTER_FRACTION))
    hc_threshold = max(1, int(total_packets * HEAVY_CHANGE_FRACTION))
    truth_sizes = trace.flow_sizes()
    truth_hh = ground_truth_heavy_hitters(trace, hh_threshold + 1)
    truth_hc = ground_truth_heavy_changes(trace, second_trace, hc_threshold + 1)
    truth_distribution = {
        size: float(count) for size, count in trace.size_distribution().items()
    }
    truth_entropy = empirical_entropy(truth_distribution)
    truth_cardinality = float(len(trace))

    sketches = {}
    second_sketches = {}
    for name in ALL_ALGORITHMS:
        if name not in selected:
            continue
        sketch = build_sketch(
            name, memory_bytes, seed=seed, hh_candidate_threshold=hc_threshold
        )
        insert_trace(sketch, trace)
        sketches[name] = sketch
        if name in TASK_ALGORITHMS["heavy_change"]:
            second = build_sketch(
                name, memory_bytes, seed=seed, hh_candidate_threshold=hc_threshold
            )
            insert_trace(second, second_trace)
            second_sketches[name] = second

    for name, sketch in sketches.items():
        if name in TASK_ALGORITHMS["heavy_hitter"] and hasattr(sketch, "heavy_hitters"):
            reported = sketch.heavy_hitters(hh_threshold)
            result.heavy_hitter_f1[name] = f1_score(reported, truth_hh)
        if name in TASK_ALGORITHMS["flow_size"]:
            estimates = {flow_id: sketch.query(flow_id) for flow_id in truth_sizes}
            result.flow_size_are[name] = average_relative_error(truth_sizes, estimates)
        if name in TASK_ALGORITHMS["heavy_change"] and name in second_sketches:
            second = second_sketches[name]
            candidates = set(truth_sizes) | set(second_trace.flow_sizes())
            reported_hc = {}
            for flow_id in candidates:
                delta = abs(sketch.query(flow_id) - second.query(flow_id))
                if delta > hc_threshold:
                    reported_hc[flow_id] = delta
            result.heavy_change_f1[name] = f1_score(reported_hc, truth_hc)
        if name in TASK_ALGORITHMS["distribution"]:
            estimated = _estimated_distribution(name, sketch, distribution_iterations)
            result.distribution_wmre[name] = weighted_mean_relative_error(
                truth_distribution, estimated
            )
        if name in TASK_ALGORITHMS["entropy"]:
            estimated_entropy = _estimated_entropy(name, sketch, distribution_iterations)
            result.entropy_re[name] = relative_error(truth_entropy, estimated_entropy)
        if name in TASK_ALGORITHMS["cardinality"]:
            estimated_cardinality = _estimated_cardinality(name, sketch)
            result.cardinality_re[name] = relative_error(
                truth_cardinality, estimated_cardinality
            )
    return result
