"""End-to-end integration tests for the ChameleMon façade (epoch loop)."""

import pytest

from repro import ChameleMon, SwitchResources, generate_workload
from repro.controlplane.reconfig import NetworkLevel


def make_system(scale=0.05, seed=0, **kwargs):
    return ChameleMon(resources=SwitchResources.scaled(scale), seed=seed, **kwargs)


def trace_for(system, num_flows, victim_ratio, seed):
    return generate_workload(
        "DCTCP",
        num_flows=num_flows,
        victim_ratio=victim_ratio,
        loss_rate=0.05,
        num_hosts=system.num_hosts,
        seed=seed,
    )


class TestHealthyOperation:
    def test_detects_all_losses_in_small_healthy_network(self):
        system = make_system(seed=1)
        # Warm-up epoch lets the controller size the HL encoders, then the
        # following epochs must detect every victim flow exactly.
        for epoch in range(3):
            result = system.run_epoch(trace_for(system, 300, 0.1, seed=10 + epoch))
        accuracy = result.loss_accuracy()
        assert result.level is NetworkLevel.HEALTHY
        assert accuracy["f1"] == 1.0
        assert accuracy["are"] == 0.0

    def test_no_losses_reported_without_victims(self):
        system = make_system(seed=2)
        for epoch in range(2):
            result = system.run_epoch(trace_for(system, 300, 0.0, seed=20 + epoch))
        assert result.report.loss_report.all_losses() == {}

    def test_thresholds_stay_at_one_when_everything_fits(self):
        system = make_system(seed=3)
        for epoch in range(3):
            result = system.run_epoch(trace_for(system, 200, 0.05, seed=30 + epoch))
        assert result.config.threshold_high == 1
        assert result.config.threshold_low == 1
        assert result.config.sample_rate == 1.0

    def test_memory_division_sums_to_one(self):
        system = make_system(seed=4)
        result = system.run_epoch(trace_for(system, 300, 0.1, seed=40))
        division = result.memory_division()
        assert sum(division.values()) == pytest.approx(1.0)

    def test_config_changes_apply_next_epoch(self):
        system = make_system(seed=5)
        first = system.run_epoch(trace_for(system, 600, 0.15, seed=50))
        second = system.run_epoch(trace_for(system, 600, 0.15, seed=51))
        assert second.config == first.next_config


class TestAttentionShifts:
    def test_threshold_rises_with_many_flows(self):
        system = make_system(seed=6)
        result = None
        for epoch in range(5):
            result = system.run_epoch(trace_for(system, 2500, 0.02, seed=60 + epoch))
        # The tiny switches cannot record 2500 flows with T_h = 1.
        assert result.config.threshold_high > 1

    def test_transitions_to_ill_with_many_victims(self):
        system = make_system(seed=7)
        level_history = []
        for epoch in range(8):
            result = system.run_epoch(trace_for(system, 3000, 0.25, seed=70 + epoch))
            level_history.append(result.level)
        assert NetworkLevel.ILL in level_history
        final = system.results[-1]
        assert final.config.layout.m_ll > 0 or final.level is NetworkLevel.ILL

    def test_fabric_at_scale_0_2_runs_the_ill_layout(self):
        # At scale 0.2 the ill layout used to round HL one bucket past the
        # downstream encoder, so the healthy -> ill transition raised.
        from repro.network.topology import FatTreeSpec, FatTreeTopology
        from repro.sketches.fermat import MERSENNE_PRIME_61

        topology = FatTreeTopology(FatTreeSpec(k=8))
        system = make_system(
            scale=0.2, seed=5, prime=MERSENNE_PRIME_61, topology=topology,
            history_limit=2, destructive_analysis=True,
        )
        levels = []
        for epoch in range(4):
            trace = generate_workload(
                "DCTCP", num_flows=3000, victim_ratio=0.5, loss_rate=0.1,
                num_hosts=system.num_hosts, seed=5 + epoch, use_five_tuple=False,
            )
            levels.append(system.run_epoch(trace).level)
        assert NetworkLevel.ILL in levels[:3]
        ill = system.resources.ill_layout
        assert system.current_config().layout == ill
        assert ill.m_hl + ill.m_ll <= system.resources.downstream_buckets

    def test_returns_to_healthy_when_losses_stop(self):
        system = make_system(seed=8)
        for epoch in range(7):
            system.run_epoch(trace_for(system, 3000, 0.25, seed=80 + epoch))
        went_ill = system.level is NetworkLevel.ILL
        for epoch in range(6):
            result = system.run_epoch(trace_for(system, 300, 0.02, seed=90 + epoch))
        assert system.level is NetworkLevel.HEALTHY
        assert went_ill  # the scenario really exercised both directions

    def test_precision_stays_high_in_ill_state(self):
        system = make_system(seed=9)
        for epoch in range(8):
            result = system.run_epoch(trace_for(system, 3000, 0.25, seed=100 + epoch))
        accuracy = result.loss_accuracy()
        if result.report.loss_report.all_losses():
            assert accuracy["precision"] > 0.95


class TestRunHelpers:
    def test_run_until_stable_stops_early(self):
        system = make_system(seed=10)
        results = system.run_until_stable(
            lambda epoch: trace_for(system, 200, 0.05, seed=200 + epoch), max_epochs=8
        )
        assert 1 <= len(results) <= 8
        assert results[-1].next_config == results[-2].next_config if len(results) > 1 else True

    def test_history_recorded(self):
        system = make_system(seed=12)
        system.run_epoch(trace_for(system, 100, 0.0, seed=400))
        system.run_epoch(trace_for(system, 100, 0.0, seed=401))
        assert len(system.results) == 2

    def test_tasks_computed_when_enabled(self):
        system = make_system(seed=13, compute_tasks=True)
        result = system.run_epoch(trace_for(system, 200, 0.0, seed=500))
        assert result.report.cardinality > 0
        assert result.report.flow_size_distribution
