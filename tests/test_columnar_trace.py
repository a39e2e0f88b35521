"""Acceptance tests for the columnar-first trace plane.

The contract under test: a trace consumed through the lazy row views and the
same trace consumed through its backing columns produce *bit-identical*
results — EpochTruth and sketch state from the simulator, records from the
streaming engine — across seeds, ID widths, and replay formats, including a
fault-schedule run.
"""

import numpy as np
import pytest

from repro.dataplane.config import SwitchResources
from repro.dataplane.sharded import collect_dataplane_state
from repro.network.simulator import build_testbed_simulator
from repro.stream import (
    EventSchedule,
    FlowBurstEvent,
    LinkFailureEvent,
    LinkRecoveryEvent,
    LossRateShiftEvent,
    MemorySink,
    StreamingEngine,
    SyntheticSource,
    TraceFileSource,
    comparable,
    write_trace_file,
)
from repro.traffic.flow import FlowRecord, Trace, TraceColumns
from repro.traffic.generator import (
    generate_caida_like_trace,
    generate_workload,
    take_flows,
)

RESOURCES = SwitchResources.scaled(0.05)
SEEDS = (0, 1, 2)


def _row_rebuilt(trace: Trace) -> Trace:
    """The same trace, round-tripped through standalone FlowRecord objects."""
    return Trace(flows=[flow.to_record() for flow in trace.flows])


class TestFlowViewSemantics:
    def test_row_views_read_columns(self):
        trace = generate_workload("DCTCP", num_flows=20, victim_ratio=0.3, seed=1)
        columns = trace.columns()
        for index, flow in enumerate(trace.flows):
            assert flow.flow_id == int(columns.flow_ids[index])
            assert flow.size == int(columns.sizes[index])
            assert flow.is_victim == bool(columns.is_victim[index])
        assert all(isinstance(f.size, int) for f in trace.flows)

    def test_row_writes_reach_columns(self):
        trace = generate_workload("DCTCP", num_flows=5, seed=2)
        trace.flows[0].size = 123
        trace.flows[0].is_victim = True
        trace.flows[0].lost_packets = 7
        assert trace.columns().sizes[0] == 123
        assert bool(trace.columns().is_victim[0])
        assert trace.total_losses() >= 7

    def test_rebuild_from_records_is_identity(self):
        for seed in SEEDS:
            trace = generate_workload(
                "Hadoop", num_flows=30, victim_ratio=0.2, seed=seed
            )
            rebuilt = _row_rebuilt(trace)
            assert list(rebuilt.flows) == list(trace.flows)
            assert rebuilt.flow_sizes() == trace.flow_sizes()
            assert rebuilt.loss_map() == trace.loss_map()

    def test_frozen_trace_rejects_row_writes(self):
        trace = generate_workload("DCTCP", num_flows=4, seed=3).freeze()
        assert trace.frozen
        with pytest.raises((ValueError, RuntimeError)):
            trace.flows[0].size = 1

    def test_take_flows_shares_nothing_unexpected(self):
        trace = generate_caida_like_trace(num_flows=40, victim_flows=4, seed=4)
        subset = take_flows(trace, np.array([3, 1, 2]))
        assert [f.flow_id for f in subset.flows] == [
            trace.flows[3].flow_id, trace.flows[1].flow_id, trace.flows[2].flow_id
        ]


class TestRowColumnBitIdentity:
    """Acceptance: row-backed vs column-backed runs are bit-identical."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("use_five_tuple", [True, False])
    def test_epoch_truth_identical(self, seed, use_five_tuple):
        trace = generate_workload(
            "DCTCP",
            num_flows=150,
            victim_ratio=0.1,
            seed=seed,
            use_five_tuple=use_five_tuple,
        )
        row_trace = _row_rebuilt(trace)
        rows_sim = build_testbed_simulator(resources=RESOURCES, seed=seed)
        cols_sim = build_testbed_simulator(resources=RESOURCES, seed=seed)
        truth_rows = rows_sim.run_epoch(row_trace)
        truth_cols = cols_sim.run_epoch(trace)
        assert truth_rows.flow_sizes == truth_cols.flow_sizes
        assert truth_rows.losses == truth_cols.losses
        assert truth_rows.per_switch_flows == truth_cols.per_switch_flows
        assert collect_dataplane_state(rows_sim) == collect_dataplane_state(cols_sim)

    def _fault_schedule(self):
        return EventSchedule([
            LinkFailureEvent(epoch=1, endpoint_a=("edge", 0),
                             endpoint_b=("host", 0), loss_rate=0.4),
            FlowBurstEvent(epoch=1, extra_flows=60, duration=2,
                           victim_ratio=0.1, loss_rate=0.05),
            LossRateShiftEvent(epoch=2, loss_rate=0.2),
            LinkRecoveryEvent(epoch=3, endpoint_a=("edge", 0),
                              endpoint_b=("host", 0)),
        ])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_schedule_stream_records_identical(self, tmp_path, seed):
        """Direct, JSONL replay, and binary replay all yield the same records
        under a live fault schedule (failures, bursts, loss shifts)."""
        source = SyntheticSource.steady(
            num_flows=100, epochs=4, victim_ratio=0.1, seed=seed
        )
        jsonl = str(tmp_path / f"s{seed}.jsonl")
        binary = str(tmp_path / f"s{seed}.rtbin")
        write_trace_file(jsonl, source)
        write_trace_file(binary, source)

        outputs = {}
        for label, src in (
            ("direct", source),
            ("jsonl", TraceFileSource(jsonl)),
            ("binary", TraceFileSource(binary)),
        ):
            sink = MemorySink()
            StreamingEngine(
                src,
                events=self._fault_schedule(),
                sinks=[sink],
                resources=RESOURCES,
                seed=seed,
            ).run()
            outputs[label] = [comparable(r) for r in sink.records]
        assert outputs["direct"] == outputs["jsonl"]
        assert outputs["direct"] == outputs["binary"]

    def test_binary_replay_preserves_numpy_free_records(self, tmp_path):
        # Regression (wide-ID spill + numpy scalars): an engine run over a
        # binary store must emit JSON-serializable records.
        import json

        source = SyntheticSource.steady(num_flows=50, epochs=2, victim_ratio=0.2,
                                        seed=5)
        path = str(tmp_path / "wide.rtbin")
        write_trace_file(path, source)
        sink = MemorySink()
        StreamingEngine(
            TraceFileSource(path), sinks=[sink], resources=RESOURCES, seed=5
        ).run()
        json.dumps(sink.records)  # raises TypeError on numpy leakage


class TestGeneratorInvariants:
    def test_workload_invariants(self):
        trace = generate_workload("DCTCP", num_flows=80, victim_ratio=0.25, seed=6)
        assert len(trace) == 80
        assert trace.num_victims() == 20
        assert all(f.lost_packets >= 1 for f in trace.flows if f.is_victim)
        assert all(f.lost_packets <= f.size for f in trace.flows)

    def test_caida_invariants(self):
        trace = generate_caida_like_trace(num_flows=60, victim_flows=6, seed=7)
        assert len(trace) == 60
        assert trace.num_victims() == 6
        assert all(f.src_host is None for f in trace.flows)


class TestColumnOps:
    def test_concat_widens_ids(self):
        narrow = generate_caida_like_trace(num_flows=10, seed=8).columns()
        wide = generate_workload("DCTCP", num_flows=10, seed=8,
                                 use_five_tuple=True).columns()
        merged = TraceColumns.concat([narrow, wide])
        assert len(merged) == 20
        assert merged.wide_ids
        assert int(merged.flow_ids[0]) == int(narrow.flow_ids[0])

    def test_concat_empty_parts(self):
        empty = TraceColumns.empty()
        cols = generate_workload("DCTCP", num_flows=5, seed=9).columns()
        merged = TraceColumns.concat([empty, cols, empty])
        assert len(merged) == 5

    def test_with_loss_state_shares_identity_columns(self):
        cols = generate_workload("DCTCP", num_flows=8, seed=10).columns()
        new = cols.with_loss_state(
            np.ones(8, dtype=bool),
            np.full(8, 0.5),
            np.ones(8, dtype=np.int64),
        )
        assert new.flow_ids is cols.flow_ids
        assert new.sizes is cols.sizes
        assert bool(new.is_victim.all())
        assert not cols.is_victim.all()

    def test_trace_from_records_via_flows_kwarg(self):
        records = [FlowRecord(flow_id=i, size=i + 1) for i in range(5)]
        trace = Trace(flows=records)
        assert trace.flow_sizes() == {i: i + 1 for i in range(5)}
        with pytest.raises(ValueError):
            Trace(flows=records, columns=trace.columns())
