"""Tests for repro.service: checkpoints, alerts, state diffs, the service."""

import io
import json
import os
import signal
import struct
import subprocess
import sys

import pytest

from repro.dataplane.config import SwitchResources
from repro.service import (
    Alert,
    AlertEngine,
    CallbackAlertSink,
    CheckpointError,
    ConsoleAlertSink,
    DecodeFailureStreak,
    EpochLatencySlo,
    NetworkStateError,
    RollingAreCeiling,
    RollingF1Floor,
    StateDiff,
    TelemetryService,
    compile_state_diff,
    compile_state_diffs,
    inspect_checkpoint,
    parse_device,
    read_checkpoint,
    read_state_diffs,
    synthesize_churn_diffs,
    write_checkpoint,
    write_state_diffs,
)
from repro.stream import (
    CsvSink,
    EpochSink,
    FlowBurstEvent,
    JsonlSink,
    LinkFailureEvent,
    LinkRecoveryEvent,
    MemorySink,
    StreamingEngine,
    SyntheticSource,
    comparable,
)
from repro.stream.events import (
    LinkFailureEvent as Failure,
    LinkRecoveryEvent as Recovery,
    LossRateShiftEvent,
)

RESOURCES = SwitchResources.scaled(0.05)

#: A fault schedule whose failure window and burst countdown straddle the
#: interrupt epochs used below, so checkpoints land mid-fault-schedule.
FAULTS = (
    LinkFailureEvent(
        epoch=2, endpoint_a=("edge", 0), endpoint_b=("host", 0), loss_rate=0.6
    ),
    FlowBurstEvent(epoch=3, extra_flows=150, duration=3, victim_ratio=0.2),
    LinkRecoveryEvent(epoch=6, endpoint_a=("edge", 0), endpoint_b=("host", 0)),
)


def make_engine(seed, sinks=(), epochs=8, events=FAULTS, flows=150):
    source = SyntheticSource.steady(
        num_flows=flows, epochs=epochs, victim_ratio=0.1, seed=seed
    )
    return StreamingEngine(
        source,
        events=events,
        sinks=sinks,
        resources=RESOURCES,
        seed=seed,
        rolling_window=4,
    )


# --------------------------------------------------------------------------- #
# checkpoint format
# --------------------------------------------------------------------------- #
def sample_state():
    return {
        "meta": {"seed": 3, "rolling_window": 8,
                 "heavy_hitter_threshold": 100,
                 "schedule_fingerprint": "ab" * 8, "source_epochs": 12},
        "engine": {
            "next_epoch": 4,
            "f1_window": [0.5, 1.0, 0.875],
            "are_window": [0.01, 0.02, 0.125],
            "f1_total": 2.375,
            "are_total": 0.155,
            "summary": {"epochs": 4, "flows": 100, "packets": 5000,
                        "lost_packets": 17, "final_level": "L1"},
        },
        "system": {
            "controller": {"rng": {"version": 3,
                                   "state": [2**64 - 1, 0, 12345] + [7] * 622,
                                   "gauss": None}},
            "simulator": {"epoch_counter": 4,
                          "rng": {"version": 3, "state": list(range(625)),
                                  "gauss": 0.25}},
        },
        "alerts": {"rolling_f1_floor": {"firing": True}},
        "sinks": [{"kind": "jsonl", "path": "out.jsonl", "offset": 812}],
    }


class TestCheckpointFormat:
    def test_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "state.rtck")
        state = sample_state()
        write_checkpoint(path, state)
        assert read_checkpoint(path) == state

    def test_write_does_not_mutate_input(self, tmp_path):
        state = sample_state()
        frozen = json.loads(json.dumps(state))
        write_checkpoint(str(tmp_path / "s.rtck"), state)
        assert state == frozen

    def test_64_bit_rng_words_survive(self, tmp_path):
        path = str(tmp_path / "wide.rtck")
        state = sample_state()
        state["system"]["controller"]["rng"]["state"] = [2**64 - 1, 2**63, 1]
        write_checkpoint(path, state)
        restored = read_checkpoint(path)
        assert restored["system"]["controller"]["rng"]["state"] == [
            2**64 - 1, 2**63, 1
        ]
        assert all(
            isinstance(w, int)
            for w in restored["system"]["controller"]["rng"]["state"]
        )

    def test_atomic_no_temp_residue(self, tmp_path):
        path = str(tmp_path / "state.rtck")
        write_checkpoint(path, sample_state())
        write_checkpoint(path, sample_state())
        assert os.listdir(tmp_path) == ["state.rtck"]

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.rtck")
        write_checkpoint(path, sample_state())
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path = str(tmp_path / "vnext.rtck")
        write_checkpoint(path, sample_state())
        blob = bytearray(open(path, "rb").read())
        struct.pack_into("<H", blob, 4, 99)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "cut.rtck")
        write_checkpoint(path, sample_state())
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_inspect_summary(self, tmp_path):
        path = str(tmp_path / "state.rtck")
        write_checkpoint(path, sample_state())
        info = inspect_checkpoint(path)
        assert info["next_epoch"] == 4
        assert info["seed"] == 3
        assert info["alerts_firing"] == ["rolling_f1_floor"]
        assert info["sinks"][0]["path"] == "out.jsonl"


# --------------------------------------------------------------------------- #
# network-state diffs
# --------------------------------------------------------------------------- #
class TestStateDiffs:
    def test_parse_device(self):
        assert parse_device("edge0") == ("edge", 0)
        assert parse_device("host12") == ("host", 12)
        with pytest.raises(NetworkStateError):
            parse_device("spine3")

    def test_diff_validation(self):
        with pytest.raises(NetworkStateError, match="epoch"):
            StateDiff(-1, "edge0", "x")
        with pytest.raises(NetworkStateError, match="op"):
            StateDiff(0, "edge0", "x", op="merge")
        with pytest.raises(NetworkStateError, match="device"):
            StateDiff(0, "leaf9", "x")
        with pytest.raises(NetworkStateError, match="missing"):
            StateDiff.from_dict({"epoch": 1, "device": "edge0"})

    def test_oper_status_down_up(self):
        path = "interfaces/interface[name=to-host2]/state/oper-status"
        down = compile_state_diff(StateDiff(4, "edge1", path, "replace", "DOWN"))
        assert isinstance(down, Failure)
        assert (down.endpoint_a, down.endpoint_b) == (("edge", 1), ("host", 2))
        assert down.loss_rate == 1.0
        up = compile_state_diff(StateDiff(6, "edge1", path, "replace", "UP"))
        assert isinstance(up, Recovery)
        with pytest.raises(NetworkStateError, match="UP or DOWN"):
            compile_state_diff(StateDiff(4, "edge1", path, "replace", "FLAP"))

    def test_interface_loss_rate_gray_and_clear(self):
        path = "interfaces/interface[name=to-host0]/state/counters/loss-rate"
        gray = compile_state_diff(StateDiff(2, "edge0", path, "replace", 0.3))
        assert isinstance(gray, Failure) and gray.loss_rate == 0.3
        clear = compile_state_diff(StateDiff(5, "edge0", path, "replace", 0.0))
        assert isinstance(clear, Recovery)
        with pytest.raises(NetworkStateError, match="outside"):
            compile_state_diff(StateDiff(2, "edge0", path, "replace", 1.5))

    def test_ecmp_member_remove_add(self):
        path = (
            "network-instances/network-instance[name=fabric]/protocols/"
            "ecmp/members/member[name=to-host3]"
        )
        gone = compile_state_diff(StateDiff(3, "edge1", path, "remove"))
        assert isinstance(gone, Failure) and gone.endpoint_b == ("host", 3)
        back = compile_state_diff(StateDiff(7, "edge1", path, "add"))
        assert isinstance(back, Recovery)
        with pytest.raises(NetworkStateError, match="add/remove"):
            compile_state_diff(StateDiff(3, "edge1", path, "replace"))

    def test_fabric_loss_shift(self):
        path = "qos/interfaces/state/loss-rate"
        shift = compile_state_diff(StateDiff(8, "fabric", path, "replace", 0.2))
        assert isinstance(shift, LossRateShiftEvent) and shift.loss_rate == 0.2
        restore = compile_state_diff(StateDiff(12, "fabric", path, "remove"))
        assert isinstance(restore, LossRateShiftEvent)
        assert restore.loss_rate is None

    def test_unsupported_path(self):
        with pytest.raises(NetworkStateError, match="unsupported"):
            compile_state_diff(StateDiff(0, "edge0", "system/state/hostname"))

    def test_jsonl_round_trip_and_line_numbers(self, tmp_path):
        feed = str(tmp_path / "diffs.jsonl")
        diffs = synthesize_churn_diffs(epochs=12, period=4)
        assert write_state_diffs(feed, diffs) == len(diffs)
        assert read_state_diffs(feed) == diffs
        with open(feed, "a") as handle:
            handle.write("# comment\n\n{not json\n")
        with pytest.raises(NetworkStateError, match=rf"{len(diffs) + 3}"):
            read_state_diffs(feed)

    def test_synthesized_churn_is_deterministic_and_compiles(self):
        first = synthesize_churn_diffs(epochs=16, period=4)
        second = synthesize_churn_diffs(epochs=16, period=4)
        assert first == second
        schedule = compile_state_diffs(first)
        fired = [schedule.at(epoch) for epoch in range(16)]
        assert any(fired)
        paths = {diff.path.split("/")[0] for diff in first}
        assert {"interfaces", "network-instances", "qos"} <= paths


# --------------------------------------------------------------------------- #
# alerting
# --------------------------------------------------------------------------- #
def record_for(epoch, f1=1.0, are=0.0, decode_failures=0, wall_ms=1.0):
    return {"epoch": epoch, "rolling_f1": f1, "rolling_are": are,
            "decode_failures": decode_failures, "wall_ms": wall_ms}


class TestAlertEngine:
    def test_transitions_only(self):
        sink = MemorySink()
        engine = AlertEngine([RollingF1Floor(0.9)], sinks=[sink])
        assert engine.observe(record_for(0, f1=0.95)) == []
        fired = engine.observe(record_for(1, f1=0.5))
        assert [a.tag for a in fired] == ["rolling_f1_floor:firing"]
        assert engine.observe(record_for(2, f1=0.5)) == []  # still breached
        cleared = engine.observe(record_for(3, f1=0.95))
        assert [a.tag for a in cleared] == ["rolling_f1_floor:cleared"]
        assert [a["status"] for a in sink.records] == ["firing", "cleared"]
        assert engine.firing() == []

    def test_warmup_suppresses_early_epochs(self):
        engine = AlertEngine([RollingF1Floor(0.9, warmup=3)])
        assert engine.observe(record_for(0, f1=0.0)) == []
        assert engine.observe(record_for(3, f1=0.0)) != []

    def test_are_ceiling(self):
        engine = AlertEngine([RollingAreCeiling(0.1)])
        assert engine.observe(record_for(0, are=0.05)) == []
        assert [a.tag for a in engine.observe(record_for(1, are=0.2))] == [
            "rolling_are_ceiling:firing"
        ]

    def test_decode_failure_streak(self):
        engine = AlertEngine([DecodeFailureStreak(2)])
        assert engine.observe(record_for(0, decode_failures=1)) == []
        fired = engine.observe(record_for(1, decode_failures=2))
        assert [a.tag for a in fired] == ["decode_failure_streak:firing"]
        cleared = engine.observe(record_for(2, decode_failures=0))
        assert [a.tag for a in cleared] == ["decode_failure_streak:cleared"]

    def test_latency_slo_is_timing_only(self):
        engine = AlertEngine([EpochLatencySlo(10.0)])
        fired = engine.observe(record_for(0, wall_ms=50.0))
        assert [a.deterministic for a in fired] == [False]

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            AlertEngine([RollingF1Floor(0.9), RollingF1Floor(0.5)])

    def test_state_round_trip_preserves_firing_and_streaks(self):
        engine = AlertEngine([RollingF1Floor(0.9), DecodeFailureStreak(3)])
        engine.observe(record_for(0, f1=0.1, decode_failures=1))
        snapshot = engine.snapshot_state()
        resumed = AlertEngine([RollingF1Floor(0.9), DecodeFailureStreak(3)])
        resumed.restore_state(snapshot)
        assert resumed.firing() == ["rolling_f1_floor"]
        # The streak continues from the restored counter: 1 + 2 more = 3.
        resumed.observe(record_for(1, f1=0.1, decode_failures=1))
        fired = resumed.observe(record_for(2, f1=0.1, decode_failures=1))
        assert [a.tag for a in fired] == ["decode_failure_streak:firing"]

    def test_callback_and_jsonl_sinks(self, tmp_path):
        seen = []
        path = str(tmp_path / "alerts.jsonl")
        engine = AlertEngine(
            [RollingF1Floor(0.9)],
            sinks=[CallbackAlertSink(seen.append), JsonlSink(path)],
        )
        fired = engine.observe(record_for(0, f1=0.1))
        engine.close()
        assert seen == [fired[0].to_dict()]
        # One json.dumps(alert.to_dict()) line per transition.
        with open(path) as handle:
            assert handle.read() == json.dumps(fired[0].to_dict()) + "\n"

    def test_console_sink_renders_the_transition(self):
        handle = io.StringIO()
        engine = AlertEngine([RollingF1Floor(0.9)], sinks=[ConsoleAlertSink(handle)])
        engine.observe(record_for(3, f1=0.25))
        engine.observe(record_for(4, f1=0.95))
        assert handle.getvalue().splitlines() == [
            "[ALERT] epoch    3  rolling_f1_floor: value 0.25 vs threshold 0.9",
            "[clear] epoch    4  rolling_f1_floor: value 0.95 vs threshold 0.9",
        ]


# --------------------------------------------------------------------------- #
# crash-safe sinks
# --------------------------------------------------------------------------- #
RECORDS = [
    {"epoch": epoch, "flows": 10 * epoch, "f1": 1.0 - 0.1 * epoch}
    for epoch in range(4)
]


class TestCrashSafeSinks:
    def test_jsonl_truncate_discards_post_checkpoint_records(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSink(path)
        for record in RECORDS[:2]:
            sink.write(record)
        sink.sync()
        offset = sink.tell()
        sink.write(RECORDS[2])  # written but past the durable checkpoint
        sink.close()
        resumed = JsonlSink(path)
        resumed.truncate_to(offset)
        for record in RECORDS[2:]:
            resumed.write(record)
        resumed.close()
        assert [json.loads(l) for l in open(path)] == RECORDS

    def test_csv_resume_suppresses_header(self, tmp_path):
        path = str(tmp_path / "out.csv")
        sink = CsvSink(path)
        for record in RECORDS[:2]:
            sink.write(record)
        sink.sync()
        offset, fields = sink.tell(), sink.sink_state()["fieldnames"]
        sink.close()
        resumed = CsvSink(path)
        resumed.truncate_to(offset, fieldnames=fields)
        for record in RECORDS[2:]:
            resumed.write(record)
        resumed.close()
        lines = open(path).read().splitlines()
        assert len(lines) == 1 + len(RECORDS)  # exactly one header
        assert lines[0] == "epoch,flows,f1,degraded,degraded_streak"

    def test_truncate_missing_file(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "never.jsonl"))
        sink.truncate_to(0)  # fresh run: fine
        with pytest.raises(FileNotFoundError):
            JsonlSink(str(tmp_path / "gone.jsonl")).truncate_to(100)

    def test_truncate_shorter_file_rejected(self, tmp_path):
        path = str(tmp_path / "short.jsonl")
        sink = JsonlSink(path)
        sink.write(RECORDS[0])
        sink.close()
        size = os.path.getsize(path)
        with pytest.raises(ValueError, match="shorter"):
            JsonlSink(path).truncate_to(size + 50)


# --------------------------------------------------------------------------- #
# service: resume bit-identity
# --------------------------------------------------------------------------- #
def run_service(seed, tmp_path, *, stop_at=None, resume=False, epochs=8,
                interval=2, tag=""):
    sink = MemorySink()
    alert_sink = MemorySink()
    engine = make_engine(seed, sinks=[sink], epochs=epochs)
    alerts = AlertEngine(
        [RollingF1Floor(0.9, warmup=1), DecodeFailureStreak(2)],
        sinks=[alert_sink],
    )
    service = TelemetryService(
        engine,
        alert_engine=alerts,
        checkpoint_path=str(tmp_path / f"svc{tag}.rtck"),
        checkpoint_interval=interval,
    )
    service.run(max_epochs=stop_at, resume=resume)
    return sink.records, alert_sink.records, engine


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_resume_is_bit_identical(seed, tmp_path):
    full, full_alerts, _ = run_service(seed, tmp_path, tag="full")
    part, part_alerts, _ = run_service(seed, tmp_path, stop_at=4)
    rest, rest_alerts, engine = run_service(seed, tmp_path, resume=True)
    assert [comparable(r) for r in part + rest] == [comparable(r) for r in full]
    assert part_alerts + rest_alerts == full_alerts
    # Wide five-tuple flow IDs really are in play (>64-bit checkpoint edge).
    trace = next(iter(engine.source))
    assert max(flow.flow_id for flow in trace.flows).bit_length() > 64


def test_resume_rewinds_alert_feed_listed_with_the_old_kind(tmp_path):
    # Checkpoints written while the alert feed had its own sink class list
    # it with kind "alerts_jsonl"; a resume must still rewind the file (it
    # is matched by path), or the first later transition would reopen it
    # with mode "w" and drop the epoch-0 transition.
    def run(feed, checkpoint, stop_at=None, resume=False):
        alerts = AlertEngine(
            [RollingF1Floor(2.0), RollingAreCeiling(-1.0, warmup=6)],
            sinks=[JsonlSink(feed)],
        )
        TelemetryService(
            make_engine(11, sinks=[MemorySink()]),
            alert_engine=alerts,
            checkpoint_path=checkpoint,
            checkpoint_interval=2,
        ).run(max_epochs=stop_at, resume=resume)

    full = str(tmp_path / "full_alerts.jsonl")
    run(full, str(tmp_path / "full.rtck"))
    feed, checkpoint = str(tmp_path / "alerts.jsonl"), str(tmp_path / "svc.rtck")
    run(feed, checkpoint, stop_at=4)
    state = read_checkpoint(checkpoint)
    (entry,) = [sink for sink in state["sinks"] if sink["path"] == feed]
    assert entry["kind"] == "jsonl"
    entry["kind"] = "alerts_jsonl"
    write_checkpoint(checkpoint, state)
    run(feed, checkpoint, resume=True)
    with open(full) as handle:
        expected = [json.loads(line) for line in handle]
    assert [(a["epoch"], a["rule"]) for a in expected] == [
        (0, "rolling_f1_floor"), (6, "rolling_are_ceiling"),
    ]
    with open(feed) as handle:
        assert [json.loads(line) for line in handle] == expected


def test_resume_mid_fault_schedule_snapshot(tmp_path):
    # Epoch 4 sits inside the failure window (2..6) with the epoch-3 burst's
    # countdown still live; fast_forward must reconstruct both exactly.
    full, _, _ = run_service(21, tmp_path, tag="full")
    part, _, _ = run_service(21, tmp_path, stop_at=4)
    rest, _, _ = run_service(21, tmp_path, resume=True)
    assert [comparable(r) for r in part + rest] == [comparable(r) for r in full]


def test_resume_from_checkpoint_with_shards_meta(tmp_path):
    # Checkpoints written before the data plane lost its shard pool carry a
    # "shards" meta key; they still resume bit-identically.
    full, _, _ = run_service(31, tmp_path, tag="full")
    part, _, _ = run_service(31, tmp_path, stop_at=4)
    path = str(tmp_path / "svc.rtck")
    state = read_checkpoint(path)
    assert "shards" not in state["meta"]
    state["meta"]["shards"] = 2
    write_checkpoint(path, state)
    rest, _, _ = run_service(31, tmp_path, resume=True)
    assert [comparable(r) for r in part + rest] == [comparable(r) for r in full]


def test_resume_final_system_state_matches(tmp_path):
    _, _, full_engine = run_service(41, tmp_path, tag="full")
    run_service(41, tmp_path, stop_at=3)
    _, _, resumed_engine = run_service(41, tmp_path, resume=True)
    assert resumed_engine.snapshot_system() == full_engine.snapshot_system()


def test_resumed_run_reports_its_own_rate(tmp_path):
    # The totals cover the whole run; the rates divide the epochs and packets
    # this process ran by this process's wall time.
    checkpoint = str(tmp_path / "rate.rtck")
    TelemetryService(
        make_engine(61), checkpoint_path=checkpoint, checkpoint_interval=2,
    ).run(max_epochs=4)
    sink = MemorySink()
    summary = TelemetryService(
        make_engine(61, sinks=[sink]), checkpoint_path=checkpoint,
        checkpoint_interval=2,
    ).run(resume=True)
    ran_packets = sum(record["packets"] for record in sink.records)
    assert [record["epoch"] for record in sink.records] == [4, 5, 6, 7]
    assert summary.epochs == 8 and summary.packets > ran_packets
    assert summary.epochs_per_second * summary.wall_seconds == pytest.approx(4)
    assert summary.packets_per_second * summary.wall_seconds == pytest.approx(ran_packets)


def test_resume_rejects_mismatched_spec(tmp_path):
    run_service(51, tmp_path, stop_at=4)
    with pytest.raises(CheckpointError, match="different run"):
        run_service(52, tmp_path, resume=True, tag="")


def test_resume_with_file_sinks_is_concatenation(tmp_path):
    def run(stop_at=None, resume=False):
        jsonl = JsonlSink(str(tmp_path / "svc.jsonl"))
        engine = make_engine(61, sinks=[jsonl], epochs=6)
        TelemetryService(
            engine,
            checkpoint_path=str(tmp_path / "svc.rtck"),
            checkpoint_interval=2,
        ).run(max_epochs=stop_at, resume=resume)

    run(stop_at=3)
    run(resume=True)
    resumed = [comparable(json.loads(l)) for l in open(tmp_path / "svc.jsonl")]

    reference = MemorySink()
    make_engine(61, sinks=[reference], epochs=6).run()
    assert resumed == [comparable(r) for r in reference.records]
    assert [r["epoch"] for r in resumed] == list(range(6))


# --------------------------------------------------------------------------- #
# service: lifecycle
# --------------------------------------------------------------------------- #
class FailingSink(EpochSink):
    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.closed = False

    def write(self, record):
        if record["epoch"] >= self.fail_at:
            raise RuntimeError("sink exploded")

    def close(self):
        self.closed = True


class StopSink(EpochSink):
    """Requests a service stop when a chosen epoch's record is written."""

    def __init__(self, stop_at):
        self.stop_at = stop_at
        self.service = None

    def write(self, record):
        if record["epoch"] == self.stop_at:
            self.service.request_stop()


class TestLifecycle:
    def test_engine_closes_sinks_on_sink_error(self):
        failing, memory = FailingSink(2), MemorySink()
        engine = make_engine(71, sinks=[failing, memory], epochs=6)
        with pytest.raises(RuntimeError, match="exploded"):
            engine.run()
        assert failing.closed

    def test_service_closes_sinks_on_interrupt(self, tmp_path):
        failing = FailingSink(3)
        engine = make_engine(72, sinks=[failing], epochs=6)
        service = TelemetryService(
            engine, checkpoint_path=str(tmp_path / "crash.rtck")
        )
        with pytest.raises(RuntimeError, match="exploded"):
            service.run()
        assert failing.closed
        # Epochs 0..2 were recorded and checkpointed before the crash.
        assert inspect_checkpoint(str(tmp_path / "crash.rtck"))["next_epoch"] == 3

    def test_request_stop_checkpoints_and_resumes(self, tmp_path):
        stop_sink, records = StopSink(2), MemorySink()
        engine = make_engine(73, sinks=[stop_sink, records], epochs=6)
        service = TelemetryService(
            engine, checkpoint_path=str(tmp_path / "stop.rtck")
        )
        stop_sink.service = service
        service.run()
        assert [r["epoch"] for r in records.records] == [0, 1, 2]

        rest = MemorySink()
        TelemetryService(
            make_engine(73, sinks=[rest], epochs=6),
            checkpoint_path=str(tmp_path / "stop.rtck"),
        ).run(resume=True)
        reference = MemorySink()
        make_engine(73, sinks=[reference], epochs=6).run()
        combined = records.records + rest.records
        assert [comparable(r) for r in combined] == [
            comparable(r) for r in reference.records
        ]

    def test_sigterm_triggers_graceful_stop(self, tmp_path):
        class KillSink(EpochSink):
            def write(self, record):
                if record["epoch"] == 1:
                    os.kill(os.getpid(), signal.SIGTERM)

        records = MemorySink()
        engine = make_engine(74, sinks=[KillSink(), records], epochs=6)
        service = TelemetryService(
            engine,
            checkpoint_path=str(tmp_path / "sig.rtck"),
            handle_signals=True,
        )
        service.run()
        assert [r["epoch"] for r in records.records] == [0, 1]
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        assert inspect_checkpoint(str(tmp_path / "sig.rtck"))["next_epoch"] == 2

    def test_final_checkpoint_written_without_interval(self, tmp_path):
        engine = make_engine(75, sinks=[MemorySink()], epochs=4)
        TelemetryService(
            engine,
            checkpoint_path=str(tmp_path / "final.rtck"),
            checkpoint_interval=0,
        ).run()
        assert inspect_checkpoint(str(tmp_path / "final.rtck"))["next_epoch"] == 4


# --------------------------------------------------------------------------- #
# CLI: serve end to end
# --------------------------------------------------------------------------- #
def serve(tmp_path, *extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    base = [
        sys.executable, "-m", "repro.cli", "serve",
        "--seed", "9", "--phases", "200:0.1:6", "--quiet",
        "--checkpoint", str(tmp_path / "cli.rtck"),
        "--checkpoint-interval", "2",
        "--jsonl", str(tmp_path / "cli.jsonl"),
        "--alerts", str(tmp_path / "cli_alerts.jsonl"),
        "--alert-f1-floor", "0.9", "--alert-warmup", "1",
    ]
    return subprocess.run(
        base + list(extra), env=env, capture_output=True, text=True, timeout=120
    )


class TestServeCli:
    def test_kill_and_resume_record_stream_identity(self, tmp_path):
        assert serve(tmp_path, "--epochs", "3").returncode == 0
        assert serve(tmp_path, "--epochs", "6", "--resume").returncode == 0
        resumed = [comparable(json.loads(l)) for l in open(tmp_path / "cli.jsonl")]

        full_dir = tmp_path / "full"
        full_dir.mkdir()
        assert serve(full_dir, "--epochs", "6").returncode == 0
        full = [comparable(json.loads(l)) for l in open(full_dir / "cli.jsonl")]
        assert resumed == full
        assert len(full) == 6

    def test_inspect(self, tmp_path):
        assert serve(tmp_path, "--epochs", "2").returncode == 0
        result = serve(tmp_path, "--inspect")
        assert result.returncode == 0
        assert json.loads(result.stdout)["next_epoch"] == 2

    def test_resume_without_checkpoint_flag_fails(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src"
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--resume"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "--resume needs --checkpoint" in result.stderr
