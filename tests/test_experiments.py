"""Tests for the experiment drivers that regenerate the paper's figures."""

import pytest

from repro.experiments.accumulation import (
    ALL_ALGORITHMS,
    TASK_ALGORITHMS,
    build_sketch,
    evaluate_tasks,
)
from repro.experiments.attention import sweep_num_flows, sweep_victim_ratio
from repro.experiments.loss_detection import SCHEMES, compare_schemes, measure, minimum_memory
from repro.scenarios import run_scenario
from repro.traffic.generator import generate_caida_like_trace


@pytest.fixture(scope="module")
def small_trace():
    return generate_caida_like_trace(
        num_flows=800, victim_flows=80, loss_rate=0.01, victim_selection="largest", seed=1
    )


class TestLossDetectionExperiment:
    def test_all_schemes_detect_the_losses(self, small_trace):
        results = compare_schemes(small_trace, trials=2, seed=1)
        truth = small_trace.loss_map()
        assert set(results) == set(SCHEMES)
        for name, measurement in results.items():
            assert measurement.detected_losses == truth, name

    def test_fermat_uses_least_memory(self, small_trace):
        results = compare_schemes(small_trace, trials=2, seed=2)
        assert results["fermat"].memory_bytes < results["flowradar"].memory_bytes
        assert results["fermat"].memory_bytes < results["lossradar"].memory_bytes

    def test_fermat_memory_scales_with_victims_not_flows(self):
        few_victims = generate_caida_like_trace(
            num_flows=800, victim_flows=40, loss_rate=0.01, victim_selection="largest", seed=3
        )
        many_victims = generate_caida_like_trace(
            num_flows=800, victim_flows=160, loss_rate=0.01, victim_selection="largest", seed=3
        )
        _, mem_few = minimum_memory("fermat", few_victims, trials=2, seed=3)
        _, mem_many = minimum_memory("fermat", many_victims, trials=2, seed=3)
        assert mem_many > mem_few * 2

    def test_flowradar_memory_scales_with_flows(self):
        small = generate_caida_like_trace(num_flows=400, victim_flows=40, seed=4)
        large = generate_caida_like_trace(num_flows=1600, victim_flows=40, seed=4)
        _, mem_small = minimum_memory("flowradar", small, trials=2, seed=4)
        _, mem_large = minimum_memory("flowradar", large, trials=2, seed=4)
        assert mem_large > mem_small * 2

    def test_lossradar_memory_scales_with_lost_packets(self):
        low_rate = generate_caida_like_trace(
            num_flows=600, victim_flows=60, loss_rate=0.01, victim_selection="largest", seed=5
        )
        high_rate = generate_caida_like_trace(
            num_flows=600, victim_flows=60, loss_rate=0.2, victim_selection="largest", seed=5
        )
        _, mem_low = minimum_memory("lossradar", low_rate, trials=2, seed=5)
        _, mem_high = minimum_memory("lossradar", high_rate, trials=2, seed=5)
        assert mem_high > mem_low * 2

    def test_measure_reports_positive_time(self, small_trace):
        measurement = measure("fermat", small_trace, trials=2, seed=6)
        assert measurement.decode_seconds > 0
        assert measurement.memory_megabytes > 0

    def test_unknown_scheme_rejected(self, small_trace):
        with pytest.raises(KeyError):
            minimum_memory("bogus", small_trace)


class TestAccumulationExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        first = generate_caida_like_trace(num_flows=1500, seed=7)
        second = generate_caida_like_trace(num_flows=1500, seed=8)
        return evaluate_tasks(first, second, memory_bytes=80_000, seed=7,
                              distribution_iterations=2)

    def test_every_task_has_results(self, result):
        as_dict = result.as_dict()
        for task, algorithms in TASK_ALGORITHMS.items():
            metric_key = {
                "heavy_hitter": "heavy_hitter_f1",
                "flow_size": "flow_size_are",
                "heavy_change": "heavy_change_f1",
                "distribution": "distribution_wmre",
                "entropy": "entropy_re",
                "cardinality": "cardinality_re",
            }[task]
            for algorithm in algorithms:
                assert algorithm in as_dict[metric_key], (task, algorithm)

    def test_tower_fermat_heavy_hitter_quality(self, result):
        assert result.heavy_hitter_f1["tower_fermat"] > 0.9

    def test_tower_fermat_flow_size_competitive(self, result):
        # Comparable accuracy to the per-flow-size baselines (paper: at least
        # comparable; at laptop scale every sketch is near-exact, so we only
        # require a small absolute error).
        assert result.flow_size_are["tower_fermat"] < 0.05

    def test_cardinality_accuracy(self, result):
        assert result.cardinality_re["tower_fermat"] < 0.1

    def test_build_sketch_knows_all_algorithms(self):
        for name in ALL_ALGORITHMS:
            sketch = build_sketch(name, 50_000, seed=1)
            assert sketch.memory_bytes() > 0
        with pytest.raises(KeyError):
            build_sketch("nope", 1000)


class TestAttentionExperiment:
    def test_sweep_num_flows_shapes(self):
        sweep = sweep_num_flows(
            flow_counts=(200, 400), victim_ratio=0.1, scale=0.05, max_epochs=5, seed=1
        )
        assert len(sweep.points) == 2
        for point in sweep.points:
            assert point.level in ("healthy", "ill")
            assert sum(point.memory_division.values()) == pytest.approx(1.0)
            assert 1 <= point.epochs_to_stabilise <= 5
        assert [x for x, _ in sweep.series("threshold_high")] == [200.0, 400.0]

    def test_sweep_victim_ratio_shapes(self):
        sweep = sweep_victim_ratio(
            victim_ratios=(0.05, 0.2), num_flows=400, scale=0.05, max_epochs=5, seed=2
        )
        assert len(sweep.points) == 2
        assert sweep.points[0].victim_ratio == 0.05

    def test_timeline_records_every_epoch(self):
        timeline = run_scenario(
            "fig9",
            overrides=dict(
                schedule=((200, 0.05), (600, 0.2), (200, 0.05)),
                epochs_per_stage=2,
                scale=0.05,
            ),
            seed=3,
        )
        assert len(timeline.rows()) == 6
        assert len(timeline.extras()["shift_epochs"]) == 2
        assert timeline.extras()["max_shift_epochs"] <= 2
