#!/usr/bin/env python3
"""Heavy-hitter telemetry: the Tower+Fermat combination on an ISP-style trace.

The combination of TowerSketch (every packet) and FermatSketch (packets of
flows past the promotion threshold) supports the paper's six packet-
accumulation tasks from a few hundred kilobytes of memory.  This example runs
it on a synthetic CAIDA-like trace and scores every task against the ground
truth, alongside a Count-Min baseline for the per-flow-size task.

Run:  python examples/heavy_hitter_telemetry.py
"""

from __future__ import annotations

from repro.sketches.registry import build
from repro.metrics import (
    average_relative_error,
    empirical_entropy,
    f1_score,
    relative_error,
    weighted_mean_relative_error,
)
from repro.traffic import generate_caida_like_trace

MEMORY_BYTES = 200_000
NUM_FLOWS = 20_000
HEAVY_HITTER_THRESHOLD = 500
PROMOTION_THRESHOLD = 250  # the paper's T_h for the standalone combination


def main() -> None:
    trace = generate_caida_like_trace(num_flows=NUM_FLOWS, seed=11)
    truth_sizes = trace.flow_sizes()
    truth_distribution = {size: float(count) for size, count in trace.size_distribution().items()}
    truth_hh = {flow for flow, size in truth_sizes.items() if size > HEAVY_HITTER_THRESHOLD}

    # Both sketches come from the config-driven registry (repro.sketches).
    combo = build("tower_fermat", memory_bytes=MEMORY_BYTES, threshold=PROMOTION_THRESHOLD, seed=1)
    baseline = build("cm", memory_bytes=MEMORY_BYTES, seed=1)
    # Whole-trace batch inserts: per-flow ``insert`` works too, but makes
    # NumPy calls for every flow.
    columns = trace.columns()
    combo.insert_batch(columns.flow_ids, columns.sizes)
    baseline.insert_batch(columns.flow_ids, columns.sizes)

    print(f"trace: {len(trace)} flows, {trace.num_packets()} packets")
    print(f"Tower+Fermat memory: {combo.memory_bytes() / 1000:.0f} KB "
          f"(Count-Min baseline: {baseline.memory_bytes() / 1000:.0f} KB)\n")

    # 1. Heavy-hitter detection.
    reported_hh = combo.heavy_hitters(HEAVY_HITTER_THRESHOLD)
    print(f"heavy hitters      : {len(reported_hh)} reported, "
          f"F1 = {f1_score(reported_hh, truth_hh):.3f}")

    # 2. Flow-size estimation.
    combo_are = average_relative_error(
        truth_sizes, {flow: combo.query(flow) for flow in truth_sizes}
    )
    cm_are = average_relative_error(
        truth_sizes, {flow: baseline.query(flow) for flow in truth_sizes}
    )
    print(f"flow size ARE      : Tower+Fermat {combo_are:.4f}  vs  Count-Min {cm_are:.4f}")

    # 3. Cardinality estimation.
    cardinality = combo.cardinality()
    print(f"cardinality        : {cardinality:,.0f} "
          f"(truth {len(trace):,}, RE = {relative_error(len(trace), cardinality):.4f})")

    # 4. Flow-size distribution.
    estimated_distribution = combo.flow_size_distribution(iterations=6)
    wmre = weighted_mean_relative_error(truth_distribution, estimated_distribution)
    print(f"size distribution  : WMRE = {wmre:.4f}")

    # 5. Entropy estimation.
    estimated_entropy = combo.entropy(iterations=6)
    true_entropy = empirical_entropy(truth_distribution)
    print(f"entropy            : {estimated_entropy:.3f} "
          f"(truth {true_entropy:.3f}, RE = {relative_error(true_entropy, estimated_entropy):.4f})")

    # 6. Heavy-change detection against a second epoch.
    second = generate_caida_like_trace(num_flows=NUM_FLOWS, seed=12)
    combo2 = build("tower_fermat", memory_bytes=MEMORY_BYTES, threshold=PROMOTION_THRESHOLD, seed=1)
    second_columns = second.columns()
    combo2.insert_batch(second_columns.flow_ids, second_columns.sizes)
    change_threshold = 250
    second_sizes = second.flow_sizes()
    truth_changes = {
        flow
        for flow in set(truth_sizes) | set(second_sizes)
        if abs(truth_sizes.get(flow, 0) - second_sizes.get(flow, 0)) > change_threshold
    }
    reported_changes = {
        flow
        for flow in set(combo.flowset()) | set(combo2.flowset())
        if abs(combo.query(flow) - combo2.query(flow)) > change_threshold
    }
    print(f"heavy changes      : {len(reported_changes)} reported, "
          f"F1 = {f1_score(reported_changes, truth_changes):.3f}")


if __name__ == "__main__":
    main()
