"""Acceptance tests for the sharded data plane.

The contract under test: ``run_epoch(shards=N)`` is *bit-identical* to the
serial batched path — same ``EpochTruth``, same sketch state on every switch
(classifier Tower counters, every Fermat encoder part's counts and IDsums),
same per-switch statistics, and same streaming-engine records — for
N ∈ {1, 2, 4}, across seeds, ID widths, and a live fault schedule.  Also
covered: the counter-based loss-draw sub-streams the identity rests on, the
fresh-switch guard, and clean pool shutdown on worker exceptions.
"""

import numpy as np
import pytest

from repro.dataplane.config import SwitchResources
from repro.dataplane.sharded import ShardPool, collect_dataplane_state
from repro.network.simulator import (
    MAX_LOSS_SEGMENTS,
    build_testbed_simulator,
    distribute_losses_uniform,
    epoch_loss_key,
    loss_uniforms,
)
from repro.network.topology import FatTreeSpec, FatTreeTopology
from repro.stream import (
    EventSchedule,
    LinkFailureEvent,
    LinkRecoveryEvent,
    LossRateShiftEvent,
    MemorySink,
    StreamingEngine,
    SyntheticSource,
    comparable,
)
from repro.traffic.generator import generate_workload

from dataplane_reference import loss_uniform

RESOURCES = SwitchResources.scaled(0.05)
SEEDS = (1, 2, 3)
SHARD_COUNTS = (1, 2, 4)


def _run(trace, *, sim_seed, shards=None, **sim_kwargs):
    simulator = build_testbed_simulator(
        resources=RESOURCES, seed=sim_seed, **sim_kwargs
    )
    try:
        truth = simulator.run_epoch(trace, shards=shards)
        state = collect_dataplane_state(simulator)
    finally:
        simulator.close()
    return truth, state


def _assert_truth_equal(a, b):
    assert a.flow_sizes == b.flow_sizes
    assert a.losses == b.losses
    assert a.per_switch_flows == b.per_switch_flows


class TestLossSubStreams:
    """The counter-based uniforms both paths draw from."""

    def test_vectorized_uniforms_match_scalar(self):
        key = epoch_loss_key(seed=42, epoch=7)
        positions = np.array([0, 1, 17, 999, 2**31, 2**63 - 1], dtype=np.uint64)
        grid = loss_uniforms(key, positions)
        assert grid.shape == (len(positions), MAX_LOSS_SEGMENTS)
        for row, position in enumerate(positions.tolist()):
            for slot in range(MAX_LOSS_SEGMENTS):
                assert grid[row, slot] == loss_uniform(key, position, slot)

    def test_uniforms_in_unit_interval(self):
        key = epoch_loss_key(seed=0, epoch=0)
        grid = loss_uniforms(key, np.arange(1000))
        assert float(grid.min()) >= 0.0
        assert float(grid.max()) < 1.0

    def test_epoch_keys_distinct(self):
        keys = {epoch_loss_key(seed, epoch) for seed in range(8) for epoch in range(8)}
        assert len(keys) == 64

    def test_distribute_losses_uniform_conserves_totals(self):
        from repro.dataplane.hierarchy import FlowHierarchy

        key = epoch_loss_key(seed=3, epoch=1)
        segments = [
            (FlowHierarchy.NON_SAMPLED_LL, 40),
            (FlowHierarchy.HL_CANDIDATE, 25),
            (FlowHierarchy.HH_CANDIDATE, 60),
        ]
        for position in range(50):
            uniforms = [loss_uniform(key, position, s) for s in range(MAX_LOSS_SEGMENTS)]
            for lost in (0, 1, 60, 125, 999):
                delivered = distribute_losses_uniform(segments, lost, uniforms)
                assert [h for h, _ in delivered] == [h for h, _ in segments]
                assert all(count >= 0 for _, count in delivered)
                total = sum(count for _, count in segments)
                assert sum(count for _, count in delivered) == total - min(lost, total)


class TestSerialShardedIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_epoch_truth_and_sketch_state(self, seed, shards):
        trace = generate_workload(
            "DCTCP", num_flows=400, victim_ratio=0.1, loss_rate=0.1, seed=seed
        )
        serial_truth, serial_state = _run(trace, sim_seed=seed)
        sharded_truth, sharded_state = _run(trace, sim_seed=seed, shards=shards)
        _assert_truth_equal(serial_truth, sharded_truth)
        assert serial_state == sharded_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wide_five_tuple_ids(self, seed):
        # 104-bit object-dtype IDs exercise the limb-split shared-memory path.
        trace = generate_workload(
            "HADOOP",
            num_flows=200,
            victim_ratio=0.2,
            seed=seed,
            use_five_tuple=True,
        )
        assert trace.columns().flow_ids.dtype == object
        serial_truth, serial_state = _run(trace, sim_seed=seed)
        sharded_truth, sharded_state = _run(trace, sim_seed=seed, shards=2)
        _assert_truth_equal(serial_truth, sharded_truth)
        assert serial_state == sharded_state

    def test_shard_count_invariance(self):
        trace = generate_workload(
            "VL2", num_flows=300, victim_ratio=0.1, loss_rate=0.08, seed=9
        )
        states = []
        for shards in SHARD_COUNTS:
            _, state = _run(trace, sim_seed=9, shards=shards)
            states.append(state)
        assert states[0] == states[1] == states[2]

    def test_larger_fabric(self):
        # A k=8 fat-tree (32 edge switches) so shards own many switches each.
        topology = FatTreeTopology(FatTreeSpec(k=8))
        trace = generate_workload(
            "DCTCP",
            num_flows=500,
            victim_ratio=0.1,
            num_hosts=topology.num_hosts,
            seed=4,
            use_five_tuple=False,
        )
        serial_truth, serial_state = _run(
            trace, sim_seed=4, topology=FatTreeTopology(FatTreeSpec(k=8))
        )
        sharded_truth, sharded_state = _run(
            trace, sim_seed=4, shards=4, topology=FatTreeTopology(FatTreeSpec(k=8))
        )
        _assert_truth_equal(serial_truth, sharded_truth)
        assert serial_state == sharded_state

    def test_multi_epoch_reuses_pool(self):
        serial = build_testbed_simulator(resources=RESOURCES, seed=11)
        sharded = build_testbed_simulator(resources=RESOURCES, seed=11)
        try:
            for epoch in range(3):
                trace = generate_workload(
                    "DCTCP", num_flows=200, victim_ratio=0.1, seed=100 + epoch
                )
                serial_truth = serial.run_epoch(trace)
                sharded_truth = sharded.run_epoch(trace, shards=2)
                _assert_truth_equal(serial_truth, sharded_truth)
                assert collect_dataplane_state(serial) == collect_dataplane_state(
                    sharded
                )
                pool = sharded.shard_pool
                assert pool is not None and not pool.closed
                serial.rotate_all()
                sharded.rotate_all()
        finally:
            serial.close()
            sharded.close()


class TestStreamRecordsIdentity:
    def _fault_schedule(self):
        return EventSchedule(
            [
                LinkFailureEvent(
                    epoch=1,
                    endpoint_a=("edge", 0),
                    endpoint_b=("host", 0),
                    loss_rate=0.4,
                ),
                LossRateShiftEvent(epoch=2, loss_rate=0.2),
                LinkRecoveryEvent(
                    epoch=3, endpoint_a=("edge", 0), endpoint_b=("host", 0)
                ),
            ]
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_schedule_records_identical(self, seed):
        """Serial vs sharded engine runs emit identical records under a live
        fault schedule (link failure, loss shift, recovery)."""
        outputs = {}
        for label, shards in (("serial", None), ("sharded", 2)):
            sink = MemorySink()
            StreamingEngine(
                SyntheticSource.steady(
                    num_flows=100, epochs=4, victim_ratio=0.1, seed=seed
                ),
                events=self._fault_schedule(),
                sinks=[sink],
                resources=RESOURCES,
                seed=seed,
                shards=shards,
            ).run()
            outputs[label] = [comparable(record) for record in sink.records]
        assert outputs["serial"] == outputs["sharded"]


class TestPoolLifecycle:
    def test_dirty_switches_rejected(self):
        trace = generate_workload("DCTCP", num_flows=50, victim_ratio=0.1, seed=0)
        simulator = build_testbed_simulator(resources=RESOURCES, seed=0)
        try:
            simulator.run_epoch(trace)  # leaves traffic on the switches
            with pytest.raises(ValueError, match="freshly rotated"):
                simulator.run_epoch(trace, shards=2)
        finally:
            simulator.close()

    def test_mixed_deployment_rejected(self):
        from repro.dataplane.config import MonitoringConfig

        trace = generate_workload("DCTCP", num_flows=50, victim_ratio=0.1, seed=0)
        simulator = build_testbed_simulator(resources=RESOURCES, seed=0)
        node = simulator.edge_nodes[1]
        switch = simulator.switches[node]
        switch.apply_config(MonitoringConfig(
            layout=RESOURCES.ill_layout, threshold_high=9, threshold_low=3,
            sample_rate=0.5,
        ))
        switch.begin_epoch()
        try:
            with pytest.raises(ValueError, match=f"edge switch .*{node[1]}.* differs"):
                simulator.run_epoch(trace, shards=2)
            assert simulator.shard_pool is None
        finally:
            simulator.close()

    def test_worker_exception_closes_pool(self):
        # Detach one edge switch: the owning worker raises the same KeyError
        # the serial path would, and the simulator tears the pool down.
        trace = generate_workload("DCTCP", num_flows=100, victim_ratio=0.1, seed=2)
        simulator = build_testbed_simulator(resources=RESOURCES, seed=2)
        victim_node = simulator.edge_nodes[0]
        del simulator.switches[victim_node]
        with pytest.raises(KeyError, match="no ChameleMon data plane"):
            simulator.run_epoch(trace, shards=2)
        assert simulator.shard_pool is None

    def test_close_unlinks_buffers(self):
        trace = generate_workload("DCTCP", num_flows=80, victim_ratio=0.1, seed=5)
        simulator = build_testbed_simulator(resources=RESOURCES, seed=5)
        simulator.run_epoch(trace, shards=2)
        pool = simulator.shard_pool
        data_name = pool._data_shm.name
        simulator.close()
        assert pool.closed
        assert pool._data_shm is None and pool._scratch_shm is None
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=data_name)

    def test_shard_count_change_rebuilds_pool(self):
        trace = generate_workload("DCTCP", num_flows=60, victim_ratio=0.1, seed=6)
        simulator = build_testbed_simulator(resources=RESOURCES, seed=6)
        try:
            simulator.run_epoch(trace, shards=2)
            first = simulator.shard_pool
            simulator.rotate_all()
            simulator.run_epoch(trace, shards=4)
            second = simulator.shard_pool
            assert first is not second
            assert first.closed and not second.closed
            assert second.num_shards == 4
        finally:
            simulator.close()

    def test_invalid_shard_count_rejected(self):
        simulator = build_testbed_simulator(resources=RESOURCES, seed=0)
        with pytest.raises(ValueError, match="num_shards"):
            ShardPool.for_simulator(simulator, 0)

    def test_empty_trace_needs_no_pool(self):
        from repro.traffic.flow import Trace, TraceColumns

        simulator = build_testbed_simulator(resources=RESOURCES, seed=0)
        truth = simulator.run_epoch(Trace(columns=TraceColumns.empty()), shards=2)
        assert truth.num_flows() == 0
        assert simulator.shard_pool is None
