"""Tests for repro.chaos: deterministic injection, recovery, degradation.

The contracts under test: (1) every fault decision is a pure function of
(seed, spec, visit order) — two runs with the same chaos spec inject
identically; (2) the service's checkpoint chain quarantines corrupt files
(every corruption mode the injector knows) and resumes bit-identically from
the last good link; (3) sink I/O errors are retried/dropped per policy
without corrupting the record stream; (4) lenient netstate parsing skips and
counts bad lines.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.chaos import (
    CHECKPOINT_CORRUPTIONS,
    FAULT_KINDS,
    ChaosMonitor,
    ChaosSpecError,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    chaos_key,
    chaos_uniform,
    corrupt_checkpoint,
)
from repro.dataplane.config import SwitchResources
from repro.network.simulator import mix64
from repro.obs import MetricsRegistry, prometheus_text
from repro.service import (
    AlertEngine,
    CheckpointError,
    NetworkStateError,
    RollingAreCeiling,
    RollingF1Floor,
    StateDiff,
    TelemetryService,
    read_checkpoint,
    read_state_diffs,
    write_checkpoint,
    write_state_diffs,
)
from repro.stream import (
    EpochSink,
    JsonlSink,
    MemorySink,
    ResilientSink,
    StreamingEngine,
    SyntheticSource,
    comparable,
)

RESOURCES = SwitchResources.scaled(0.05)


def make_engine(seed, sinks=(), epochs=6, flows=120, chaos=None, metrics=None):
    source = SyntheticSource.steady(
        num_flows=flows, epochs=epochs, victim_ratio=0.1, seed=seed
    )
    return StreamingEngine(
        source,
        sinks=sinks,
        resources=RESOURCES,
        seed=seed,
        rolling_window=4,
        chaos=chaos,
        metrics=metrics,
    )


def injector(spec, seed=11):
    return FaultInjector.from_spec(spec, default_seed=seed)


# --------------------------------------------------------------------------- #
# deterministic substreams
# --------------------------------------------------------------------------- #
class TestChaosSubstreams:
    def test_uniforms_in_unit_interval(self):
        for draw in range(64):
            value = chaos_uniform(3, "site", 2, draw)
            assert 0.0 <= value < 1.0

    def test_deterministic_across_calls(self):
        first = [chaos_uniform(9, "backoff/sink", 4, d) for d in range(8)]
        second = [chaos_uniform(9, "backoff/sink", 4, d) for d in range(8)]
        assert first == second

    def test_site_epoch_and_seed_all_matter(self):
        base = chaos_key(5, "a", 0)
        assert base != chaos_key(5, "b", 0)
        assert base != chaos_key(5, "a", 1)
        assert base != chaos_key(6, "a", 0)

    def test_mix64_avalanches(self):
        outputs = {mix64(value) for value in range(128)}
        assert len(outputs) == 128
        assert all(0 <= value < 2 ** 64 for value in outputs)


# --------------------------------------------------------------------------- #
# spec parsing and validation
# --------------------------------------------------------------------------- #
class TestSpecParsing:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosSpecError, match="unknown fault kind"):
            FaultSpec(kind="disk_on_fire")

    def test_count_must_be_positive(self):
        with pytest.raises(ChaosSpecError, match="count"):
            FaultSpec(kind="sink_flush_error", count=0)

    def test_dict_round_trip(self):
        spec = FaultSpec.from_dict(
            {"kind": "checkpoint_corrupt", "epoch": 3, "mode": "truncate", "key": 5}
        )
        assert spec.epoch == 3
        assert spec.params == {"mode": "truncate", "key": 5}
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_missing_kind_rejected(self):
        with pytest.raises(ChaosSpecError, match="no 'kind'"):
            FaultSpec.from_dict({"epoch": 2})

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(ChaosSpecError, match="unknown chaos spec keys"):
            FaultInjector.from_spec({"seeed": 1})

    @pytest.mark.parametrize("spec, named", [
        ({"supervision": {"max_respawns": 2}}, "supervision"),
        ({"faults": [{"kind": "shard_crash", "epoch": 1}]}, "shard_crash"),
        ({"faults": [{"kind": "shard_hang", "epoch": 1}]}, "shard_hang"),
    ])
    def test_retired_shard_spec_rejected(self, spec, named):
        with pytest.raises(ChaosSpecError, match=named):
            FaultInjector.from_spec(spec)

    def test_default_seed_applies_only_when_unset(self):
        assert injector({}, seed=9).seed == 9
        assert injector({"seed": 4}, seed=9).seed == 4

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ChaosSpecError, match="not valid JSON"):
            FaultInjector.load(str(path))

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2]")
        with pytest.raises(ChaosSpecError, match="JSON object"):
            FaultInjector.load(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ChaosSpecError, match="cannot read"):
            FaultInjector.load(str(tmp_path / "absent.json"))


# --------------------------------------------------------------------------- #
# arming and consumption
# --------------------------------------------------------------------------- #
class TestArming:
    def test_epoch_pinned_spec_waits_for_its_epoch(self):
        inj = injector({"faults": [{"kind": "sink_flush_error", "epoch": 2}]})
        assert inj.take("sink_flush_error", 1) is None
        assert inj.take("sink_flush_error", None) is None
        assert inj.take("sink_flush_error", 2) is not None
        assert inj.take("sink_flush_error", 2) is None  # consumed

    def test_unpinned_spec_fires_on_first_visit(self):
        inj = injector({"faults": [{"kind": "metrics_bind_error"}]})
        assert inj.take("metrics_bind_error", 7) is not None
        assert inj.take("metrics_bind_error", 7) is None

    def test_count_fires_that_many_times(self):
        inj = injector({"faults": [{"kind": "sink_flush_error", "count": 3}]})
        assert inj.pending("sink_flush_error") == 3
        fired = [inj.take("sink_flush_error", e) for e in range(5)]
        assert [spec is not None for spec in fired] == [True] * 3 + [False] * 2

    def test_where_predicate_leaves_spec_armed(self):
        inj = injector({"faults": [
            {"kind": "sink_flush_error", "target": "alerts"},
        ]})
        taken = inj.take(
            "sink_flush_error", 0,
            where=lambda s: s.params.get("target", "records") == "records",
        )
        assert taken is None
        assert inj.pending("sink_flush_error") == 1  # not consumed
        assert inj.monitor.total_faults() == 0  # and not counted

    def test_sink_hook_respects_target(self):
        inj = injector({"faults": [
            {"kind": "sink_flush_error", "target": "alerts"},
        ]})
        inj.sink_hook("records")({"epoch": 0})  # must not fire or consume
        with pytest.raises(OSError, match="alerts"):
            inj.sink_hook("alerts")({"epoch": 0})
        # An untargeted spec is meant for the record sinks.
        inj = injector({"faults": [{"kind": "sink_flush_error", "epoch": 0}]})
        inj.sink_hook("alerts")({"epoch": 0})  # must not fire or consume
        with pytest.raises(OSError, match="records"):
            inj.sink_hook("records")({"epoch": 0})

    def test_identical_specs_inject_identically(self):
        spec = {"faults": [
            {"kind": "checkpoint_corrupt", "epoch": 2, "mode": "truncate"},
            {"kind": "sink_flush_error", "count": 2},
        ]}
        trace_a, trace_b = [], []
        for trace in (trace_a, trace_b):
            inj = injector(spec)
            for epoch in range(4):
                fired = inj.checkpoint_fault(epoch)
                trace.append(fired.params.get("mode") if fired else None)
                trace.append(inj.take("sink_flush_error", epoch) is not None)
        assert trace_a == trace_b

    def test_monitor_counts_fired_faults(self):
        inj = injector({"faults": [{"kind": "netstate_corrupt", "count": 2}]})
        hook = inj.netstate_hook()
        assert hook(1, '{"a": 1}') != '{"a": 1}'
        assert hook(2, '{"b": 2}') != '{"b": 2}'
        assert hook(3, '{"c": 3}') == '{"c": 3}'
        assert inj.monitor.faults_injected == {"netstate_corrupt": 2}

    def test_netstate_hook_explicit_lines(self):
        inj = injector({"faults": [
            {"kind": "netstate_corrupt", "lines": [2, 4]},
        ]})
        hook = inj.netstate_hook()
        untouched = '{"epoch": 0}'
        assert hook(1, untouched) == untouched
        assert hook(2, untouched) != untouched
        assert hook(3, untouched) == untouched
        assert hook(4, untouched) != untouched


# --------------------------------------------------------------------------- #
# resilient sinks
# --------------------------------------------------------------------------- #
class FlakySink(EpochSink):
    """Fails the first ``failures`` writes with ``exc``, then succeeds."""

    kind = "flaky"
    path = None

    def __init__(self, failures, exc=OSError):
        self.failures = failures
        self.exc = exc
        self.records = []
        self.attempts = 0

    def write(self, record):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise self.exc("flaky write")
        self.records.append(record)


def fast_retry(retries=3, fail_open=True):
    return RetryPolicy(retries=retries, backoff_base=0.0, fail_open=fail_open)


class TestResilientSink:
    def test_retries_oserror_then_recovers(self):
        monitor = ChaosMonitor()
        inner = FlakySink(failures=2)
        sink = ResilientSink(inner, policy=fast_retry(), monitor=monitor)
        sink.write({"epoch": 4, "f1": 1.0})
        assert [r["epoch"] for r in inner.records] == [4]
        assert inner.attempts == 3
        assert monitor.sink_retries == 2
        assert monitor.recoveries == {"sink": 1}

    def test_fail_open_drops_with_warning(self):
        monitor = ChaosMonitor()
        warnings = []
        sink = ResilientSink(
            FlakySink(failures=10), policy=fast_retry(retries=2),
            monitor=monitor, warn=warnings.append,
        )
        sink.write({"epoch": 1})
        assert monitor.sink_drops == 1
        assert len(warnings) == 1 and "dropped epoch 1" in warnings[0]

    def test_fail_closed_raises(self):
        sink = ResilientSink(
            FlakySink(failures=10),
            policy=fast_retry(retries=1, fail_open=False),
        )
        with pytest.raises(OSError, match="flaky"):
            sink.write({"epoch": 1})

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.2)
        delays = [policy.backoff_delay(5, "sink", 3, a) for a in range(6)]
        assert delays == [policy.backoff_delay(5, "sink", 3, a) for a in range(6)]
        assert all(0.0 < delay <= 0.2 for delay in delays)
        assert delays[-1] == 0.2  # the exponential hits the cap

    def test_non_oserror_propagates_immediately(self):
        inner = FlakySink(failures=10, exc=RuntimeError)
        sink = ResilientSink(inner, policy=fast_retry())
        with pytest.raises(RuntimeError):
            sink.write({"epoch": 1})
        assert inner.attempts == 1

    def test_wrapper_is_checkpoint_transparent(self, tmp_path):
        inner = JsonlSink(str(tmp_path / "r.jsonl"))
        sink = ResilientSink(inner)
        sink.write({"epoch": 0, "f1": 1.0})
        sink.sync()
        assert sink.kind == inner.kind
        assert sink.path == inner.path
        assert sink.sink_state() == inner.sink_state()
        assert sink.tell() == inner.tell()
        assert sink._sink is inner  # install_sinks reaches the hook through this
        sink.close()


# --------------------------------------------------------------------------- #
# degraded mode
# --------------------------------------------------------------------------- #
class TestDegradedMode:
    def _service(self, degraded_after=2):
        return TelemetryService(
            make_engine(31, sinks=[MemorySink()]), degraded_after=degraded_after
        )

    def test_annotates_only_past_the_streak_threshold(self):
        service = self._service(degraded_after=2)
        records = [
            {"epoch": 0, "decode_failures": 1},
            {"epoch": 1, "decode_failures": 2},
            {"epoch": 2, "decode_failures": 0},
            {"epoch": 3, "decode_failures": 1},
        ]
        for record in records:
            service._record_hook(record["epoch"], record, None)
        assert "degraded" not in records[0]  # streak 1 < threshold
        assert records[1]["degraded"] is True
        assert records[1]["degraded_streak"] == 2
        assert "degraded" not in records[2]  # clean epoch resets the streak
        assert "degraded" not in records[3]
        assert service.monitor.degraded_epochs == 1

    def test_healthy_records_stay_unannotated(self):
        service = self._service()
        record = {"epoch": 0, "decode_failures": 0}
        service._record_hook(0, record, None)
        assert "degraded" not in record

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            self._service(degraded_after=0)

    def test_streak_is_checkpointed(self, tmp_path):
        path = str(tmp_path / "svc.rtck")
        service = TelemetryService(
            make_engine(32, sinks=[MemorySink()], epochs=4),
            checkpoint_path=path, checkpoint_interval=2,
        )
        service.run(max_epochs=4)
        state = read_checkpoint(path)
        assert state["service"]["decode_fail_streak"] == 0


# --------------------------------------------------------------------------- #
# lenient netstate parsing
# --------------------------------------------------------------------------- #
def diff_feed(tmp_path, extra_lines=()):
    path = str(tmp_path / "diffs.jsonl")
    write_state_diffs(path, [
        StateDiff(epoch=1, device="edge0", path="interfaces/interface[name=to-host0]/enabled", value=False),
        StateDiff(epoch=2, device="edge0", path="interfaces/interface[name=to-host0]/enabled", value=True),
    ])
    if extra_lines:
        with open(path, "a") as handle:
            for line in extra_lines:
                handle.write(line + "\n")
    return path


class TestNetstateLenient:
    def test_strict_mode_fails_fast_with_line_number(self, tmp_path):
        path = diff_feed(tmp_path, ["{broken json"])
        with pytest.raises(NetworkStateError, match=":3:"):
            read_state_diffs(path)

    def test_lenient_mode_skips_and_reports(self, tmp_path):
        path = diff_feed(tmp_path, [
            "{broken json",
            '{"epoch": 3, "device": "edge0"}',  # missing required 'path'
        ])
        rejected = []
        diffs = read_state_diffs(
            path, strict=False,
            on_reject=lambda line, reason: rejected.append((line, reason)),
        )
        assert [diff.epoch for diff in diffs] == [1, 2]
        assert [line for line, _ in rejected] == [3, 4]
        assert "path" in rejected[1][1]

    def test_lenient_default_warns_on_stderr(self, tmp_path, capsys):
        path = diff_feed(tmp_path, ["{broken json"])
        diffs = read_state_diffs(path, strict=False)
        assert len(diffs) == 2
        assert ":3:" in capsys.readouterr().err

    def test_injected_corruption_is_skipped_and_counted(self, tmp_path):
        path = diff_feed(tmp_path)
        inj = injector({"faults": [{"kind": "netstate_corrupt", "lines": [1]}]})
        rejected = []
        diffs = read_state_diffs(
            path, strict=False,
            on_reject=lambda line, reason: rejected.append(line),
            fault_hook=inj.netstate_hook(),
        )
        assert [diff.epoch for diff in diffs] == [2]
        assert rejected == [1]
        assert inj.monitor.faults_injected == {"netstate_corrupt": 1}


# --------------------------------------------------------------------------- #
# checkpoint corruption: every mode quarantines, resume stays bit-identical
# --------------------------------------------------------------------------- #
def service_to(seed, jsonl_path, checkpoint, *, max_epochs, resume=False,
               epochs=6, keep=2):
    engine = make_engine(seed, sinks=[JsonlSink(jsonl_path)], epochs=epochs)
    service = TelemetryService(
        engine, checkpoint_path=checkpoint, checkpoint_interval=2,
        keep_checkpoints=keep,
    )
    service.run(max_epochs=max_epochs, resume=resume)
    return service


def jsonl_records(path):
    with open(path) as handle:
        return [comparable(json.loads(line)) for line in handle]


@pytest.fixture(scope="module")
def reference_records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chaos_ref")
    path = str(tmp / "ref.jsonl")
    service_to(41, path, checkpoint=None, max_epochs=6)
    return jsonl_records(path)


class TestCheckpointCorruption:
    @pytest.mark.parametrize("mode", CHECKPOINT_CORRUPTIONS)
    def test_every_corruption_mode_is_detected(self, tmp_path, mode):
        path = str(tmp_path / "svc.rtck")
        service_to(41, str(tmp_path / "out.jsonl"), path, max_epochs=4, keep=1)
        corrupt_checkpoint(path, mode=mode, key=chaos_key(41, "checkpoint", 4))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    @pytest.mark.parametrize("key", range(12))
    def test_single_bitflips_never_restore_silently(self, tmp_path, key):
        path = str(tmp_path / "svc.rtck")
        service_to(41, str(tmp_path / "out.jsonl"), path, max_epochs=4, keep=1)
        corrupt_checkpoint(path, mode="bitflip", key=key)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            read_checkpoint(path)

    @pytest.mark.parametrize("mode", CHECKPOINT_CORRUPTIONS)
    def test_resume_falls_back_to_last_good_link(
        self, tmp_path, mode, reference_records
    ):
        checkpoint = str(tmp_path / "svc.rtck")
        out = str(tmp_path / "out.jsonl")
        service_to(41, out, checkpoint, max_epochs=4)
        corrupt_checkpoint(
            checkpoint, mode=mode, key=chaos_key(41, "checkpoint", 4)
        )
        resumed = service_to(41, out, checkpoint, max_epochs=6, resume=True)
        assert os.path.exists(checkpoint + ".bad")
        assert resumed.monitor.recoveries.get("checkpoint", 0) == 1
        assert jsonl_records(out) == reference_records

    def test_all_links_corrupt_restarts_fresh_and_identical(
        self, tmp_path, reference_records
    ):
        checkpoint = str(tmp_path / "svc.rtck")
        out = str(tmp_path / "out.jsonl")
        service_to(41, out, checkpoint, max_epochs=4)
        for candidate in (checkpoint, checkpoint + ".1"):
            corrupt_checkpoint(candidate, mode="truncate")
        resumed = service_to(41, out, checkpoint, max_epochs=6, resume=True)
        assert os.path.exists(checkpoint + ".bad")
        assert os.path.exists(checkpoint + ".1.bad")
        assert resumed.monitor.recoveries.get("checkpoint", 0) == 1
        assert jsonl_records(out) == reference_records

    def test_chain_rotates_keeping_n_newest(self, tmp_path):
        checkpoint = str(tmp_path / "svc.rtck")
        service_to(41, str(tmp_path / "out.jsonl"), checkpoint,
                   max_epochs=6, keep=3)
        boundaries = [
            int(read_checkpoint(candidate)["engine"]["next_epoch"])
            for candidate in (checkpoint, checkpoint + ".1", checkpoint + ".2")
        ]
        assert boundaries == sorted(boundaries, reverse=True)

    def test_crc_survives_round_trip(self, tmp_path):
        path = str(tmp_path / "plain.rtck")
        state = {
            "meta": {"seed": 1},
            "engine": {"next_epoch": 2, "f1_window": [1.0, 0.5]},
        }
        write_checkpoint(path, state)
        assert read_checkpoint(path)["engine"]["f1_window"] == [1.0, 0.5]


# --------------------------------------------------------------------------- #
# metrics endpoint degradation + end-to-end service chaos
# --------------------------------------------------------------------------- #
class TestServiceChaos:
    def test_metrics_bind_failure_degrades_not_dies(self, capsys):
        chaos = injector({"faults": [{"kind": "metrics_bind_error"}]})
        sink = MemorySink()
        engine = make_engine(
            33, sinks=[sink], epochs=3, chaos=chaos, metrics=MetricsRegistry()
        )
        service = TelemetryService(engine, metrics_port=0)
        service.run(max_epochs=3)
        assert service.metrics_server is None
        assert chaos.monitor.recoveries == {"metrics": 1}
        assert len(sink.records) == 3
        assert "metrics endpoint unavailable" in capsys.readouterr().err

    def test_chaos_counters_surface_in_metrics_exposition(self, tmp_path):
        registry = MetricsRegistry()
        chaos = injector({"faults": [
            {"kind": "sink_flush_error", "epoch": 1},
        ]})
        chaos.monitor.bind(registry)
        sink = JsonlSink(str(tmp_path / "out.jsonl"))
        engine = make_engine(34, sinks=[sink], epochs=3, chaos=chaos,
                             metrics=registry)
        TelemetryService(engine, retry=fast_retry()).run()
        text = prometheus_text(registry)
        assert 'repro_faults_injected_total{kind="sink_flush_error"} 1' in text
        assert 'repro_recoveries_total{site="sink"} 1' in text

    def test_sink_fault_is_retried_exactly_once_through_service(self, tmp_path):
        out = str(tmp_path / "chaos.jsonl")
        ref = str(tmp_path / "ref.jsonl")
        TelemetryService(make_engine(35, sinks=[JsonlSink(ref)], epochs=4)).run()
        chaos = injector({"faults": [
            {"kind": "sink_flush_error", "epoch": 2},
        ]})
        service = TelemetryService(
            make_engine(35, sinks=[JsonlSink(out)], epochs=4, chaos=chaos),
            retry=fast_retry(),
        )
        service.run()
        assert chaos.monitor.sink_retries == 1
        assert chaos.monitor.recoveries == {"sink": 1}
        assert jsonl_records(out) == jsonl_records(ref)

    def test_alert_sink_fault_is_retried_exactly_once_through_service(self, tmp_path):
        # The alert feed is a plain JsonlSink: the service wraps it in the
        # same ResilientSink as the records and counts the same site.
        path = str(tmp_path / "alerts.jsonl")
        chaos = injector({"faults": [
            {"kind": "sink_flush_error", "target": "alerts"},
        ]})
        transitions = MemorySink()
        alerts = AlertEngine(
            [RollingF1Floor(2.0), RollingAreCeiling(-1.0, warmup=2)],
            sinks=[JsonlSink(path), transitions],
        )
        service = TelemetryService(
            make_engine(36, sinks=[MemorySink()], epochs=4, chaos=chaos),
            alert_engine=alerts, retry=fast_retry(),
        )
        service.run()
        assert [(t["epoch"], t["rule"]) for t in transitions.records] == [
            (0, "rolling_f1_floor"), (2, "rolling_are_ceiling"),
        ]
        with open(path) as handle:
            assert [json.loads(line) for line in handle] == transitions.records
        assert chaos.monitor.sink_retries == 1
        assert chaos.monitor.recoveries == {"sink": 1}

    def test_serve_chaos_scenario_verdict(self):
        from repro.scenarios import get_scenario

        spec = get_scenario("serve_chaos")
        params = dict(spec.params)
        params.update(spec.smoke or {})
        extras = spec.func(params, spec.seed)["extras"]
        assert extras["verdict"] == "pass"
        assert extras["stream_identical"] is True
        assert extras["recovered"] is True
        assert extras["quarantined"]


# --------------------------------------------------------------------------- #
# serve --chaos CLI
# --------------------------------------------------------------------------- #
class TestServeChaosCli:
    def _serve(self, tmp_path, *extra):
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src"
        )
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        base = [
            sys.executable, "-m", "repro.cli", "serve",
            "--seed", "9", "--phases", "150:0.1:4", "--quiet",
            "--scale", "0.05",
            "--jsonl", str(tmp_path / "cli.jsonl"),
        ]
        return subprocess.run(
            base + list(extra), env=env, capture_output=True, text=True,
            timeout=180,
        )

    def test_serve_with_chaos_recovers_and_reports(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "faults": [{"kind": "sink_flush_error", "epoch": 1}],
        }))
        (tmp_path / "ref").mkdir()
        reference = self._serve(tmp_path / "ref")
        assert reference.returncode == 0, reference.stderr
        chaotic = self._serve(tmp_path, "--chaos", str(spec))
        assert chaotic.returncode == 0, chaotic.stderr
        assert "chaos: faults {'sink_flush_error': 1}" in chaotic.stderr
        assert "recoveries {'sink': 1}" in chaotic.stderr
        chaos_records = jsonl_records(tmp_path / "cli.jsonl")
        ref_records = jsonl_records(tmp_path / "ref" / "cli.jsonl")
        assert chaos_records == ref_records

    def test_bad_spec_is_a_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"faults": [{"kind": "nope"}]}))
        result = self._serve(tmp_path, "--chaos", str(spec))
        assert result.returncode == 2
        assert "unknown fault kind" in result.stderr

    @pytest.mark.parametrize("spec, named", [
        ({"supervision": {"max_respawns": 2}}, "supervision"),
        ({"faults": [{"kind": "shard_crash", "epoch": 1}]}, "shard_crash"),
        ({"faults": [{"kind": "shard_hang", "epoch": 1}]}, "shard_hang"),
    ])
    def test_retired_shard_spec_is_a_usage_error(self, tmp_path, spec, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        result = self._serve(tmp_path, "--chaos", str(path))
        assert result.returncode == 2
        assert named in result.stderr

    def test_fault_kinds_documented_in_error(self):
        for kind in ("checkpoint_corrupt", "sink_flush_error",
                     "netstate_corrupt", "metrics_bind_error"):
            assert kind in FAULT_KINDS
