"""Tests for the repro.stream subsystem: sources, events, sinks, engine."""

import csv
import json
import threading

import pytest

from repro.dataplane.config import SwitchResources
from repro.network.topology import FatTreeTopology
from repro.stream import (
    ConsoleSink,
    CsvSink,
    EventSchedule,
    FlowBurstEvent,
    JsonlSink,
    LimitedSource,
    LinkFailureEvent,
    LinkRecoveryEvent,
    LossRateShiftEvent,
    MemorySink,
    MergeSource,
    NetworkConditions,
    Phase,
    StreamingEngine,
    SyntheticSource,
    TraceFileSource,
    TraceSource,
    comparable,
    write_trace_file,
)

RESOURCES = SwitchResources.scaled(0.05)


def make_engine(source, events=(), sinks=(), **kwargs):
    return StreamingEngine(
        source,
        events=events,
        sinks=sinks,
        resources=RESOURCES,
        seed=3,
        **kwargs,
    )


class CountingSource(TraceSource):
    """Another source's epochs, counting the traces drawn; raises at ``fail_at``."""

    def __init__(self, source, fail_at=None):
        self.source = source
        self.fail_at = fail_at
        self.drawn = 0

    def epochs(self):
        for epoch, trace in enumerate(self.source):
            if epoch == self.fail_at:
                raise OSError(f"source failed at epoch {epoch}")
            self.drawn += 1
            yield trace


# --------------------------------------------------------------------------- #
# sources
# --------------------------------------------------------------------------- #
class TestSyntheticSource:
    def test_phase_schedule_lengths_and_flow_counts(self):
        source = SyntheticSource(
            phases=(Phase(epochs=2, num_flows=100), Phase(epochs=3, num_flows=200)),
            seed=1,
        )
        assert len(source) == 5
        traces = list(source)
        assert [len(trace) for trace in traces] == [100, 100, 200, 200, 200]

    def test_phase_at(self):
        source = SyntheticSource(
            phases=(Phase(epochs=2, num_flows=100), Phase(epochs=3, num_flows=200)),
        )
        assert source.phase_at(0).num_flows == 100
        assert source.phase_at(1).num_flows == 100
        assert source.phase_at(2).num_flows == 200
        assert source.phase_at(4).num_flows == 200
        with pytest.raises(IndexError):
            source.phase_at(5)

    def test_reiteration_is_identical(self):
        source = SyntheticSource.steady(num_flows=80, epochs=3, victim_ratio=0.1, seed=4)
        first = [[flow.flow_id for flow in trace.flows] for trace in source]
        second = [[flow.flow_id for flow in trace.flows] for trace in source]
        assert first == second

    def test_epochs_are_distinct(self):
        source = SyntheticSource.steady(num_flows=60, epochs=2, seed=5)
        traces = list(source)
        assert {f.flow_id for f in traces[0].flows} != {f.flow_id for f in traces[1].flows}

    def test_from_schedule_mirrors_fig9_stages(self):
        source = SyntheticSource.from_schedule(
            ((100, 0.05), (200, 0.2)), epochs_per_stage=2, seed=6
        )
        traces = list(source)
        assert [len(trace) for trace in traces] == [100, 100, 200, 200]
        assert traces[2].num_victims() == pytest.approx(40, abs=1)

    def test_rejects_empty_or_bad_phases(self):
        with pytest.raises(ValueError):
            SyntheticSource(phases=())
        with pytest.raises(ValueError):
            Phase(epochs=0, num_flows=10)
        with pytest.raises(ValueError):
            Phase(epochs=1, num_flows=0)


class TestTraceFileSource:
    @pytest.mark.parametrize("extension", ["jsonl", "csv"])
    def test_round_trip(self, tmp_path, extension):
        source = SyntheticSource.steady(num_flows=40, epochs=3, victim_ratio=0.2, seed=7)
        path = str(tmp_path / f"trace.{extension}")
        assert write_trace_file(path, source) == 3
        replayed = list(TraceFileSource(path))
        original = list(source)
        assert len(replayed) == 3
        for a, b in zip(original, replayed):
            assert [
                (f.flow_id, f.size, f.src_host, f.dst_host, f.is_victim, f.lost_packets)
                for f in a.flows
            ] == [
                (f.flow_id, f.size, f.src_host, f.dst_host, f.is_victim, f.lost_packets)
                for f in b.flows
            ]

    def test_chunking_without_epoch_column(self, tmp_path):
        path = str(tmp_path / "flat.jsonl")
        with open(path, "w") as handle:
            for index in range(10):
                handle.write(json.dumps({"flow_id": index + 1, "size": 5}) + "\n")
        epochs = list(TraceFileSource(path, flows_per_epoch=4))
        assert [len(trace) for trace in epochs] == [4, 4, 2]

    def test_unknown_extension_rejected(self):
        with pytest.raises(ValueError):
            TraceFileSource("trace.txt")


class TestMergeSource:
    def test_concatenates_tenants_per_epoch(self):
        a = SyntheticSource.steady(num_flows=30, epochs=2, seed=1)
        b = SyntheticSource.steady(num_flows=50, epochs=2, seed=2)
        merged = list(MergeSource([a, b]))
        assert [len(trace) for trace in merged] == [80, 80]

    def test_longest_keeps_going_as_tenants_drop_out(self):
        a = SyntheticSource.steady(num_flows=30, epochs=1, seed=1)
        b = SyntheticSource.steady(num_flows=50, epochs=3, seed=2)
        merged = list(MergeSource([a, b], stop="longest"))
        assert [len(trace) for trace in merged] == [80, 50, 50]

    def test_shortest_stops_with_first_exhausted_tenant(self):
        a = SyntheticSource.steady(num_flows=30, epochs=1, seed=1)
        b = SyntheticSource.steady(num_flows=50, epochs=3, seed=2)
        merged = list(MergeSource([a, b], stop="shortest"))
        assert [len(trace) for trace in merged] == [80]

    def test_validation(self):
        with pytest.raises(ValueError):
            MergeSource([])
        with pytest.raises(ValueError):
            MergeSource([SyntheticSource.steady(10, 1)], stop="bogus")


class TestLimitedSource:
    def test_truncates(self):
        source = LimitedSource(SyntheticSource.steady(num_flows=20, epochs=5), 2)
        assert [len(trace) for trace in source] == [20, 20]


# --------------------------------------------------------------------------- #
# events
# --------------------------------------------------------------------------- #
class TestEventSchedule:
    def test_lookup_by_epoch(self):
        events = [LossRateShiftEvent(epoch=2, loss_rate=0.5), FlowBurstEvent(epoch=2, extra_flows=10)]
        schedule = EventSchedule(events)
        assert len(schedule) == 2
        assert schedule.at(2) == tuple(events)
        assert schedule.at(0) == ()
        assert schedule.last_epoch() == 2

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            EventSchedule([LossRateShiftEvent(epoch=-1, loss_rate=0.5)])


class TestNetworkConditions:
    def topology(self):
        return FatTreeTopology.testbed()

    def test_link_failure_overlays_and_recovery_clears(self):
        topology = self.topology()
        conditions = NetworkConditions(topology, seed=1)
        edge = topology.edge_switch_of_host(0)
        host = topology.host(0)
        trace = SyntheticSource.steady(num_flows=120, epochs=1, seed=2).epochs().__next__()
        conditions.apply_events([LinkFailureEvent(epoch=0, endpoint_a=edge, endpoint_b=host, loss_rate=0.4)])
        failed = conditions.transform(trace, 0)
        crossing = [f for f in failed.flows if f.src_host == 0 or f.dst_host == 0]
        assert crossing and all(f.is_victim for f in crossing)
        assert all(not f.is_victim for f in failed.flows if not (f.src_host == 0 or f.dst_host == 0))
        # endpoint order must not matter for recovery
        conditions.apply_events([LinkRecoveryEvent(epoch=1, endpoint_a=host, endpoint_b=edge)])
        recovered = conditions.transform(trace, 1)
        assert recovered.num_victims() == 0

    def test_overlay_keeps_source_victims(self):
        topology = self.topology()
        conditions = NetworkConditions(topology, seed=1)
        trace = SyntheticSource.steady(num_flows=100, epochs=1, victim_ratio=0.3, seed=3).epochs().__next__()
        edge = topology.edge_switch_of_host(1)
        conditions.apply_events([LinkFailureEvent(epoch=0, endpoint_a=edge, endpoint_b=topology.host(1), loss_rate=1.0)])
        overlaid = conditions.transform(trace, 0)
        # source victims stay victims; flows crossing the dead link lose everything
        source_victims = {f.flow_id for f in trace.flows if f.is_victim}
        assert source_victims <= {f.flow_id for f in overlaid.flows if f.is_victim}
        for flow in overlaid.flows:
            if flow.src_host == 1 or flow.dst_host == 1:
                assert flow.lost_packets == flow.size

    def test_loss_rate_shift_redraws_victims(self):
        conditions = NetworkConditions(self.topology(), seed=1)
        trace = SyntheticSource.steady(num_flows=100, epochs=1, victim_ratio=0.2, loss_rate=0.01, seed=4).epochs().__next__()
        before = trace.total_losses()
        conditions.apply_events([LossRateShiftEvent(epoch=0, loss_rate=0.6)])
        shifted = conditions.transform(trace, 0)
        assert shifted.num_victims() == trace.num_victims()
        assert shifted.total_losses() > 3 * before
        conditions.apply_events([LossRateShiftEvent(epoch=1, loss_rate=None)])
        assert conditions.transform(trace, 1).total_losses() == before

    def test_flow_burst_lasts_its_duration(self):
        conditions = NetworkConditions(self.topology(), seed=1)
        trace = SyntheticSource.steady(num_flows=50, epochs=1, seed=5).epochs().__next__()
        conditions.apply_events([FlowBurstEvent(epoch=0, extra_flows=25, duration=2)])
        assert len(conditions.transform(trace, 0)) == 75
        assert len(conditions.transform(trace, 1)) == 75
        assert len(conditions.transform(trace, 2)) == 50


# --------------------------------------------------------------------------- #
# sinks
# --------------------------------------------------------------------------- #
class TestSinks:
    RECORD = {"epoch": 0, "num_flows": 10, "num_victims": 1, "level": "healthy",
              "mem_hh": 0.8, "mem_hl": 0.2, "mem_ll": 0.0, "loss_f1": 1.0,
              "rolling_f1": 1.0, "loss_are": 0.0}

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        sink = JsonlSink(path)
        sink.write(self.RECORD)
        sink.write({**self.RECORD, "epoch": 1})
        sink.close()
        lines = [json.loads(line) for line in open(path)]
        assert [line["epoch"] for line in lines] == [0, 1]

    def test_csv_sink_header_and_rows(self, tmp_path):
        path = str(tmp_path / "records.csv")
        sink = CsvSink(path)
        sink.write(self.RECORD)
        sink.write({**self.RECORD, "epoch": 1})
        sink.close()
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 2 and rows[1]["epoch"] == "1"

    def test_console_sink_writes_one_line(self, capsys):
        ConsoleSink().write(self.RECORD)
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "healthy" in out


# --------------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------------- #
class TestStreamingEngine:
    def source(self, epochs=6, flows=120):
        return SyntheticSource(
            phases=(
                Phase(epochs=epochs // 2, num_flows=flows, victim_ratio=0.1),
                Phase(epochs=epochs - epochs // 2, num_flows=2 * flows, victim_ratio=0.2),
            ),
            seed=3,
        )

    def events(self):
        topology = FatTreeTopology.testbed()
        edge = topology.edge_switch_of_host(0)
        host = topology.host(0)
        return [
            LinkFailureEvent(epoch=2, endpoint_a=edge, endpoint_b=host, loss_rate=0.3),
            FlowBurstEvent(epoch=3, extra_flows=60, duration=1),
            LinkRecoveryEvent(epoch=4, endpoint_a=edge, endpoint_b=host),
        ]

    def test_events_change_the_stream(self):
        with_sink, without_sink = MemorySink(), MemorySink()
        make_engine(self.source(), events=self.events(), sinks=[with_sink]).run()
        make_engine(self.source(), sinks=[without_sink]).run()
        with_victims = [r["num_victims"] for r in with_sink.records]
        without_victims = [r["num_victims"] for r in without_sink.records]
        assert with_victims[:2] == without_victims[:2]  # before the failure
        assert with_victims[2] > without_victims[2]  # failure epoch
        assert with_sink.records[3]["num_flows"] == without_sink.records[3]["num_flows"] + 60

    def test_bounded_memory_over_fifty_epochs(self):
        flows = 60
        source = SyntheticSource.steady(num_flows=flows, epochs=50, victim_ratio=0.1, seed=2)
        engine = make_engine(source)
        summary = engine.run()
        assert summary.epochs == 50
        # O(epoch), not O(run): one epoch of flows resident at a time, and
        # the facade's result history stays capped.
        assert summary.peak_resident_flows == flows
        assert len(engine.system.results) <= 2

    def test_peak_resident_is_the_largest_epoch(self):
        source = SyntheticSource(
            phases=(Phase(epochs=2, num_flows=60), Phase(epochs=2, num_flows=120)),
            seed=2,
        )
        assert make_engine(source).run().peak_resident_flows == 120

    def test_runs_on_the_callers_thread_only(self):
        before = threading.active_count()
        counts = []
        engine = StreamingEngine(self.source(epochs=3), resources=RESOURCES)
        engine.run(record_hook=lambda *_: counts.append(threading.active_count()))
        assert counts == [before] * 3

    def test_stop_draws_no_trace_past_the_last_record(self):
        source = CountingSource(self.source())
        sink = MemorySink()
        make_engine(source, sinks=[sink]).run(
            should_stop=lambda: len(sink.records) >= 2
        )
        assert len(sink.records) == 2
        assert source.drawn == 2

    def test_source_error_keeps_the_records_before_it(self):
        sink = MemorySink()
        engine = make_engine(CountingSource(self.source(), fail_at=2), sinks=[sink])
        with pytest.raises(OSError, match="epoch 2"):
            engine.run()
        assert [record["epoch"] for record in sink.records] == [0, 1]

    def test_summary_totals_and_rates(self):
        sink = MemorySink()
        engine = make_engine(self.source(epochs=4), sinks=[sink])
        summary = engine.run()
        assert summary.epochs == len(sink.records) == 4
        assert summary.flows == sum(r["num_flows"] for r in sink.records)
        assert summary.packets == sum(r["packets"] for r in sink.records)
        assert summary.epochs_per_second == pytest.approx(
            summary.epochs / summary.wall_seconds
        )
        assert summary.final_level == sink.records[-1]["level"]
        payload = summary.to_dict()
        assert payload["epochs"] == 4 and "epochs_per_second" in payload

    def test_max_epochs_stops_early(self):
        sink = MemorySink()
        engine = make_engine(self.source(epochs=6), sinks=[sink])
        summary = engine.run(max_epochs=2)
        assert summary.epochs == 2
        assert [r["epoch"] for r in sink.records] == [0, 1]

    def test_rolling_window_smooths_f1(self):
        sink = MemorySink()
        engine = make_engine(self.source(epochs=4), sinks=[sink], rolling_window=2)
        engine.run()
        records = sink.records
        for previous, current in zip(records, records[1:]):
            expected = (previous["loss_f1"] + current["loss_f1"]) / 2
            assert current["rolling_f1"] == pytest.approx(expected)

    def test_records_carry_attention_observables(self):
        sink = MemorySink()
        make_engine(self.source(epochs=2), sinks=[sink]).run()
        record = sink.records[0]
        for key in ("level", "mem_hh", "mem_hl", "mem_ll", "threshold_high",
                    "threshold_low", "sample_rate", "loss_precision",
                    "loss_recall", "loss_f1", "loss_are", "wall_ms"):
            assert key in record
        assert record["mem_hh"] + record["mem_hl"] + record["mem_ll"] == pytest.approx(1.0)

    def test_file_replay_matches_synthetic_run(self, tmp_path):
        source = self.source(epochs=4)
        path = str(tmp_path / "replay.jsonl")
        write_trace_file(path, source)
        direct, replayed = MemorySink(), MemorySink()
        make_engine(source, sinks=[direct]).run()
        make_engine(TraceFileSource(path), sinks=[replayed]).run()
        assert [comparable(r) for r in direct.records] == [
            comparable(r) for r in replayed.records
        ]

    def test_sinks_closed_after_run(self, tmp_path):
        path = str(tmp_path / "closed.jsonl")
        sink = JsonlSink(path)
        make_engine(self.source(epochs=2), sinks=[sink]).run()
        assert sink._handle.closed

    def test_validation(self):
        with pytest.raises(ValueError):
            make_engine(self.source(), rolling_window=0)
        with pytest.raises(ValueError):
            StreamingEngine(self.source(), pipelined="bogus")
