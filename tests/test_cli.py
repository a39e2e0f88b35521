"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import build_parser, main


COMMANDS = ("list", "describe", "run", "serve", "trace", "perf")
REMOVED_COMMANDS = ("stream", "fig4", "fig7", "fig8", "fig9", "fig11", "overheads", "demo")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_command_has_help(self):
        parser = build_parser()
        for args in (
            ["list"],
            ["describe", "fig4"],
            ["run", "fig4", "--seed", "1"],
            ["serve", "--seed", "1"],
            ["trace", "inspect", "t.rtbin"],
            ["perf", "report", "spans.jsonl"],
        ):
            parsed = parser.parse_args(args)
            assert callable(parsed.handler)

    def test_help_lists_exactly_the_six_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", REMOVED_COMMANDS)
    def test_removed_command_is_an_invalid_choice(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "demo" in out

    def test_overheads_runs(self, capsys):
        assert main([
            "run", "overheads", "--set", "epochs_ms=50,100",
            "--set", "include_live=false", "--set", "reconfig_samples=30",
        ]) == 0
        out = capsys.readouterr().out
        assert "[bandwidth] ===" in out and "[response_model] ===" in out

    def test_fig4_runs_small(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=300", "--set", "victims=40",
            "--set", "trials=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "=== fig4: " in out and "fermat_bytes" in out
        assert "[fig4] 1 point(s)" in out

    def test_demo_runs_small(self, capsys):
        assert main([
            "run", "demo", "--set", "flows=150", "--set", "epochs=2",
            "--scale", "0.05", "--set", "victim_ratio=0.05", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["points"][0]["rows"]
        assert [row["epoch"] for row in rows] == [0, 1]
        assert payload["params"]["scale"] == 0.05


class TestRegistryCommands:
    """The registry-facing surface: run / list / describe."""

    def test_list_shows_registry_without_aliases(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "repro.scenarios registry" in out
        assert "alias" not in out
        # Every registered scenario appears, not only the paper figures.
        for name in ("fig5", "fig6", "fig10", "workloads", "fabric_scale"):
            assert name in out

    def test_describe_prints_parameters(self, capsys):
        assert main(["describe", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "victims" in out and "sweep axis" in out

    def test_describe_unknown_scenario(self, capsys):
        assert main(["describe", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_fig4_json_stdout_is_parseable(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=200", "--set", "victims=30",
            "--set", "trials=1", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "fig4"
        assert payload["points"][0]["rows"][0]["victims"] == 30

    def test_run_unknown_scenario_fails(self, capsys):
        assert main(["run", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_bad_override_fails(self, capsys):
        assert main(["run", "fig4", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_run_malformed_set_fails(self, capsys):
        assert main(["run", "fig4", "--set", "flows"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, override, message", [
        ("fig4", "flows=0", "num_flows must be positive"),
        ("fig4", "trials=0", "trials must be at least 1"),
        ("fig10", "trials=0", "trials must be at least 1"),
        ("fig10", "buckets_per_flow=0", "buckets_per_flow must be positive"),
        ("fig10", "buckets_per_flow=-1", "buckets_per_flow must be positive"),
        ("fig11", "distribution_iterations=-1", "iterations must be non-negative"),
        ("ablation_fermat", "trials=0", "trials and decode_trials must be at least 1"),
        ("ablation_fermat", "decode_trials=0", "trials and decode_trials must be at least 1"),
        ("fig7", "max_epochs=0", "max_epochs must be at least 1"),
        ("fig8", "max_epochs=0", "max_epochs must be at least 1"),
        ("fig9", "epochs_per_stage=0", "epochs_per_stage must be at least 1"),
        ("fig5", "loss_rate=3", "loss_rate must be in [0, 1]"),
        ("fig4", "loss_rate=-1", "loss_rate must be in [0, 1]"),
        ("fig9", "schedule=", "SyntheticSource needs at least one phase"),
        *[
            (name, "workload=NOPE",
             "unknown workload 'NOPE'; choose one of CACHE, DCTCP, HADOOP, VL2")
            for name in ("fig7", "fig9", "stream_timeline", "demo", "workloads")
        ],
        ("overheads", "reconfig_samples=0", "reconfig_samples must be at least 1"),
        ("stream_failover", "fail_host=99", "fail_host must be in [0, 8)"),
        ("stream_failover", "fail_host=-1", "fail_host must be in [0, 8)"),
        ("ablation_classifier", "memory_kb=0",
         "sketch 'tower' needs a positive memory_bytes, got 0"),
        ("ablation_classifier", "memory_kb=-4",
         "sketch 'tower' needs a positive memory_bytes, got -4000"),
        ("demo", "epochs=-1", "epochs must be at least 1"),
        ("fabric_scale", "epochs=0", "epochs must be at least 1"),
    ])
    def test_run_rejects_invalid_values(self, capsys, scenario, override, message):
        assert main(["run", scenario, "--set", override, "--quiet"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_run_rejects_zero_jobs(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=100", "--set", "victims=10",
            "--set", "trials=1", "--jobs", "0", "--json", "-",
        ]) == 2
        captured = capsys.readouterr()
        assert "error: jobs must be >= 1" in captured.err
        assert captured.out == ""

    def test_global_seed_before_subcommand(self, capsys):
        assert main([
            "--seed", "11", "run", "fig4", "--set", "flows=150",
            "--set", "victims=20", "--set", "trials=1", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 11

    def test_registry_only_scenario_runs_via_cli(self, capsys):
        assert main([
            "run", "fig6", "--set", "flows=100,200", "--set", "victims=20",
            "--set", "trials=1", "--jobs", "2", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["rows"][0]["flows"] for p in payload["points"]] == [100, 200]

    def test_run_csv_stdout(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=150", "--set", "victims=20",
            "--set", "trials=1", "--csv", "-",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("victims,")

    def test_run_honours_global_loss_rate_flag(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=150", "--set", "victims=20",
            "--set", "trials=1", "--loss-rate", "0.5", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["loss_rate"] == 0.5

    def test_json_and_csv_cannot_both_stream_to_stdout(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=150", "--json", "-", "--csv", "-",
        ]) == 2
        assert "cannot share stdout" in capsys.readouterr().err

    def test_json_file_plus_csv_stdout_keeps_stream_pure(self, capsys, tmp_path):
        """File-write status lines go to stderr, never into a stdout stream."""
        out_path = str(tmp_path / "fig4.json")
        assert main([
            "run", "fig4", "--set", "flows=150", "--set", "victims=20",
            "--set", "trials=1", "--json", out_path, "--csv", "-",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("victims,")
        assert "wrote" not in captured.out
        assert out_path in captured.err
        assert json.loads(open(out_path).read())["scenario"] == "fig4"

    def test_run_csv_stdout_is_pure(self, capsys):
        """--csv - must not interleave the human table into the CSV stream."""
        assert main([
            "run", "fig4", "--set", "flows=150", "--set", "victims=20",
            "--set", "trials=1", "--csv", "-",
        ]) == 0
        out = capsys.readouterr().out
        assert "===" not in out and "[fig4]" not in out
        assert out.splitlines()[0].startswith("victims,")

    def test_json_stdout_streams_rows_per_point(self, capsys):
        """The JSON stream is one valid document whose rows arrive per point."""
        assert main([
            "run", "fig6", "--set", "flows=100,200", "--set", "victims=20",
            "--set", "trials=1", "--json", "-",
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert [p["rows"][0]["flows"] for p in payload["points"]] == [100, 200]
        # Each point's rows start on their own line (written as the point
        # completed), so a consumer tailing stdout sees them incrementally.
        row_lines = [line for line in out.splitlines() if line.startswith('{"flows"')]
        assert len(row_lines) == 2

    def test_csv_stdout_streams_rows_per_point(self, capsys):
        assert main([
            "run", "fig6", "--set", "flows=100,200", "--set", "victims=20",
            "--set", "trials=1", "--csv", "-",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("flows,")
        assert [line.split(",")[0] for line in lines[1:3]] == ["100", "200"]

    def test_fig9_schedule_override_via_set(self, capsys):
        assert main([
            "run", "fig9", "--set", "schedule=150:0.05,300:0.15",
            "--set", "epochs_per_stage=1", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["schedule"] == [[150, 0.05], [300, 0.15]]

    def test_fig9_malformed_schedule_fails_cleanly(self, capsys):
        assert main(["run", "fig9", "--set", "schedule=150-0.05"]) == 2
        assert "':'-separated" in capsys.readouterr().err


class TestServeCommand:
    """The continuous streaming engine behind ``repro.cli serve``."""

    @staticmethod
    def _engine_records(phases, events):
        """Records of a bare engine run with the CLI's defaults (seed 0, scale 0.05)."""
        from repro.dataplane.config import SwitchResources
        from repro.stream import MemorySink, StreamingEngine, SyntheticSource

        sink = MemorySink()
        engine = StreamingEngine(
            SyntheticSource(phases=phases, seed=0),
            events=events,
            sinks=[sink],
            resources=SwitchResources.scaled(0.05),
            seed=0,
        )
        engine.run()
        engine.close()
        return sink.records

    def test_serve_writes_jsonl_records(self, capsys, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        assert main([
            "serve", "--phases", "100:0.05:2,200:0.2:1", "--scale", "0.05",
            "--jsonl", path, "--quiet",
        ]) == 0
        records = [json.loads(line) for line in open(path)]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert [r["num_flows"] for r in records] == [100, 100, 200]
        assert "[serve] 3 epochs" in capsys.readouterr().err

    def test_serve_console_lines_and_summary(self, capsys):
        assert main(["serve", "--phases", "80:0.1:2", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "epoch    0" in out and "epoch    1" in out
        summary = next(line for line in out.splitlines() if line.startswith("[serve]"))
        assert summary.startswith("[serve] 2 epochs")
        assert "pkt/s" in summary and "peak resident" in summary

    def test_serve_csv_stdout_is_pure(self, capsys):
        assert main([
            "serve", "--phases", "80:0.1:2", "--scale", "0.05", "--csv", "-",
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3
        assert "[serve]" in captured.err

    def test_serve_epoch_cap_and_failure_flags(self, capsys, tmp_path):
        path = str(tmp_path / "failover.jsonl")
        assert main([
            "serve", "--phases", "100:0.0:6", "--scale", "0.05",
            "--fail-epoch", "1", "--recover-epoch", "3", "--fail-loss", "1.0",
            "--epochs", "4", "--jsonl", path, "--quiet",
        ]) == 0
        records = [json.loads(line) for line in open(path)]
        assert len(records) == 4
        victims = [r["num_victims"] for r in records]
        assert victims[0] == 0 and victims[1] > 0 and victims[3] == 0

    def test_serve_event_flags_match_engine_run(self, capsys, tmp_path):
        """The event flags build exactly the events a hand-built engine gets."""
        from repro.network.topology import FatTreeTopology
        from repro.obs import comparable_records
        from repro.stream import (
            FlowBurstEvent,
            LinkFailureEvent,
            LinkRecoveryEvent,
            Phase,
        )

        path = str(tmp_path / "events.jsonl")
        assert main([
            "serve", "--phases", "100:0.05:2,200:0.1:3", "--scale", "0.05",
            "--fail-epoch", "1", "--recover-epoch", "3", "--burst-epoch", "2",
            "--jsonl", path, "--quiet",
        ]) == 0
        topology = FatTreeTopology.testbed()
        edge, host = topology.edge_switch_of_host(0), topology.host(0)
        expected = self._engine_records(
            [Phase(epochs=2, num_flows=100, victim_ratio=0.05),
             Phase(epochs=3, num_flows=200, victim_ratio=0.1)],
            [LinkFailureEvent(epoch=1, endpoint_a=edge, endpoint_b=host, loss_rate=0.5),
             LinkRecoveryEvent(epoch=3, endpoint_a=edge, endpoint_b=host),
             FlowBurstEvent(epoch=2, extra_flows=500, duration=1)],
        )
        records = [json.loads(line) for line in open(path)]
        assert len(records) == 5
        assert comparable_records(records) == comparable_records(expected)

    def test_serve_event_flags_append_to_state_diffs(self, capsys, tmp_path):
        from repro.obs import comparable_records
        from repro.service import (
            compile_state_diff,
            synthesize_churn_diffs,
            write_state_diffs,
        )
        from repro.stream import FlowBurstEvent, Phase

        diffs = synthesize_churn_diffs(epochs=6, period=2, gray_loss=0.5)
        diffs_path = str(tmp_path / "churn.jsonl")
        write_state_diffs(diffs_path, diffs)
        path = str(tmp_path / "records.jsonl")
        assert main([
            "serve", "--phases", "150:0.05:6", "--scale", "0.05",
            "--state-diffs", diffs_path, "--burst-epoch", "4",
            "--burst-flows", "100", "--burst-duration", "2",
            "--jsonl", path, "--quiet",
        ]) == 0
        expected = self._engine_records(
            [Phase(epochs=6, num_flows=150, victim_ratio=0.05)],
            [compile_state_diff(diff) for diff in diffs]
            + [FlowBurstEvent(epoch=4, extra_flows=100, duration=2)],
        )
        records = [json.loads(line) for line in open(path)]
        assert comparable_records(records) == comparable_records(expected)
        assert records[4]["num_flows"] == records[5]["num_flows"] == 250

    def test_serve_csv_keeps_degraded_annotation(self, capsys, tmp_path):
        """Degraded-mode fields appear from a later epoch on; the CSV keeps them."""
        jsonl_path = str(tmp_path / "o.jsonl")
        csv_path = str(tmp_path / "o.csv")
        assert main([
            "serve", "--phases", "4000:0.1:6", "--scale", "0.05",
            "--jsonl", jsonl_path, "--csv", csv_path, "--quiet",
        ]) == 0
        records = [json.loads(line) for line in open(jsonl_path)]
        rows = list(csv.DictReader(open(csv_path)))
        assert len(rows) == len(records) == 6
        assert any(record.get("degraded") for record in records)
        assert not records[0].get("degraded")
        for record, row in zip(records, rows):
            for field in ("degraded", "degraded_streak"):
                expected = str(record[field]) if field in record else ""
                assert row[field] == expected

    def test_serve_trace_replay(self, capsys, tmp_path):
        from repro.stream import SyntheticSource, write_trace_file

        trace_path = str(tmp_path / "replay.jsonl")
        write_trace_file(trace_path, SyntheticSource.steady(60, 2, seed=3))
        assert main([
            "serve", "--trace", trace_path, "--scale", "0.05", "--quiet",
        ]) == 0
        assert "[serve] 2 epochs" in capsys.readouterr().err

    def test_serve_rejects_double_stdout(self, capsys):
        assert main(["serve", "--jsonl", "-", "--csv", "-"]) == 2
        assert "cannot share stdout" in capsys.readouterr().err

    def test_serve_rejects_malformed_phases(self, capsys):
        assert main(["serve", "--phases", "100-0.05-2"]) == 2
        assert "flows:victim_ratio:epochs" in capsys.readouterr().err

    def test_serve_rejects_missing_trace_file(self, capsys):
        assert main(["serve", "--trace", "no_such_trace.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_rejects_out_of_range_fail_host(self, capsys):
        assert main([
            "serve", "--phases", "50:0.0:1", "--fail-epoch", "0",
            "--fail-host", "99",
        ]) == 2
        assert "--fail-host" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--rolling-window", "0", "rolling_window"),
        ("--keep-checkpoints", "0", "keep_checkpoints"),
        ("--checkpoint-interval", "-1", "checkpoint_interval"),
        ("--scale", "0", "scale"),
        ("--loss-rate", "3", "loss_rate must be in [0, 1]"),
        ("--phases", "100:1.5:2", "bad --phases value '100:1.5:2': victim_ratio"),
        ("--epochs", "-2", "--epochs must be >= 0"),
        ("--alert-decode-streak", "0", "max_streak must be >= 1"),
    ])
    def test_serve_rejects_invalid_values(self, capsys, flag, value, name):
        assert main(["serve", "--phases", "50:0.0:1", "--quiet", flag, value]) == 2
        assert f"error: {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("loss", ["1.5", "-0.5"])
    def test_serve_rejects_fail_loss_outside_unit_interval(self, capsys, loss):
        assert main([
            "serve", "--phases", "50:0.0:1", "--quiet",
            "--fail-epoch", "0", "--fail-loss", loss,
        ]) == 2
        assert "error: loss_rate must be in [0, 1]" in capsys.readouterr().err


class TestTraceCommand:
    """The trace inspect/convert surface over the columnar trace plane."""

    @staticmethod
    def _write_jsonl(tmp_path):
        from repro.stream import SyntheticSource
        from repro.stream.sources import write_trace_file

        path = str(tmp_path / "t.jsonl")
        source = SyntheticSource.steady(num_flows=40, epochs=3, victim_ratio=0.1,
                                        seed=2)
        write_trace_file(path, source)
        return path

    def test_convert_jsonl_to_binary_and_back(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        binary = str(tmp_path / "t.rtbin")
        csv_path = str(tmp_path / "t.csv")
        assert main(["trace", "convert", jsonl, binary]) == 0
        assert "3 epochs" in capsys.readouterr().out
        assert main(["trace", "convert", binary, csv_path]) == 0
        assert "3 epochs" in capsys.readouterr().out

        from repro.stream.sources import TraceFileSource
        original = list(TraceFileSource(jsonl).epochs())
        round_tripped = list(TraceFileSource(csv_path).epochs())
        assert len(original) == len(round_tripped)
        for a, b in zip(original, round_tripped):
            assert list(a.flows) == list(b.flows)

    def test_inspect_binary(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        binary = str(tmp_path / "t.rtbin")
        assert main(["trace", "convert", jsonl, binary, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["trace", "inspect", binary]) == 0
        out = capsys.readouterr().out
        assert "format:       binary" in out
        assert "epochs:       3" in out
        assert "flow_id_lo" in out

    def test_inspect_text_and_json_output(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        assert main(["trace", "inspect", jsonl, "--json", "-"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format"] == "jsonl"
        assert summary["epochs"] == 3
        assert summary["flows"] == 120

    def test_inspect_missing_file(self, capsys):
        assert main(["trace", "inspect", "no_such.rtbin"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_inspect_corrupt_binary(self, capsys, tmp_path):
        path = str(tmp_path / "bad.rtbin")
        with open(path, "wb") as handle:
            handle.write(b"RTRC" + b"\0" * 20)  # header only, no manifest
        assert main(["trace", "inspect", path]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "convert", "inspect"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_rejects_flows_per_epoch_below_one(self, capsys, tmp_path, command, value):
        flat = str(tmp_path / "flat.jsonl")
        with open(flat, "w") as handle:
            for index in range(10):
                handle.write(json.dumps({"flow_id": index + 1, "size": 5}) + "\n")
        args = {
            "serve": ["serve", "--trace", flat, "--quiet"],
            "convert": ["trace", "convert", flat, str(tmp_path / "flat.rtbin")],
            "inspect": ["trace", "inspect", flat],
        }[command]
        assert main([*args, "--flows-per-epoch", value]) == 2
        assert (
            f"error: flows_per_epoch must be >= 1, got {value}"
            in capsys.readouterr().err
        )

    def test_convert_unknown_extension(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        assert main(["trace", "convert", jsonl, str(tmp_path / "t.txt")]) == 2
        assert "cannot infer trace format" in capsys.readouterr().err
