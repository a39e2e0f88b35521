"""Command-line interface: a thin shell over the scenario registry.

Every experiment surface of the repository is a registered scenario (see
``repro/scenarios/catalog.py``); the CLI only resolves names, parses
overrides, and formats results.  Usage::

    python -m repro.cli list
    python -m repro.cli describe fig4
    python -m repro.cli run fig4 --set victims=100,200 --jobs 4 --json out.json
    python -m repro.cli run fig11 --set memory_kb=50,100 --csv fig11.csv
    python -m repro.cli --seed 3 run fig7 --set flows=400,800

``run`` executes any registered scenario; ``--jobs N`` fans the sweep points
out over a process pool (rows are identical to the serial run).  ``--json -``
and ``--csv -`` stream the machine-readable result to stdout *as sweep points
complete* (flushed row by row, so long sweeps are tail-able); the full JSON
stream still parses as one document.

``serve`` runs the continuous :mod:`repro.stream` engine as an always-on
telemetry service (:mod:`repro.service`) in O(epoch) memory: phase-scheduled
synthetic traffic or a trace-file replay, live link failures/recoveries and
flow bursts, per-epoch JSONL/CSV sinks::

    python -m repro.cli serve --phases 400:0.05:6,1600:0.2:6 --jsonl run.jsonl
    python -m repro.cli serve --trace traffic.jsonl --csv - --quiet
    python -m repro.cli serve --fail-epoch 4 --recover-epoch 8

On top of the stream it offers periodic ``.rtck`` checkpoints with
bit-identical ``--resume``, threshold alerting, JSONL device state-diff
ingestion, and graceful SIGINT/SIGTERM shutdown::

    python -m repro.cli serve --epochs 32 --checkpoint run.rtck \
        --state-diffs churn.jsonl --alert-f1-floor 0.9 --jsonl run.jsonl
    python -m repro.cli serve --epochs 32 --checkpoint run.rtck --resume ...
    python -m repro.cli serve --checkpoint run.rtck --inspect
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .scenarios import SweepRunner, get_scenario, iter_scenarios
from .scenarios.results import RunResult, SweepResult, _jsonable, row_columns
from .scenarios.spec import ScenarioError


def _print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    rows = [list(map(str, row)) for row in rows]
    widths = [
        max(len(str(header)), max((len(row[i]) for row in rows), default=0))
        for i, header in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _print_rows(title: str, rows: List[Dict[str, Any]]) -> None:
    """Print row dicts as one aligned table per ``kind`` group."""
    if not rows:
        print(f"\n=== {title} === (no rows)")
        return
    groups: List[tuple] = []
    for row in rows:
        kind = row.get("kind")
        if not groups or groups[-1][0] != kind:
            groups.append((kind, []))
        groups[-1][1].append(row)
    for kind, group in groups:
        headers: List[str] = []
        for row in group:
            for key in row:
                if key != "kind" and key not in headers:
                    headers.append(key)
        label = f"{title} [{kind}]" if kind is not None else title
        _print_table(
            label, headers, [[_format_cell(row.get(h, "")) for h in headers] for row in group]
        )


class _JsonRowStream:
    """Streams a sweep's JSON document to stdout as sweep points complete.

    The concatenated output is the same document :meth:`SweepResult.to_json`
    produces (``json.loads`` of the full stream works), but each point's rows
    are written — and flushed row by row — the moment that point finishes, so
    a long sweep is tail-able while it runs.
    """

    @staticmethod
    def _fields(obj: Dict[str, Any]) -> str:
        """``"key": value`` pairs of an object body, without the braces."""
        return ", ".join(
            f"{json.dumps(key)}: {json.dumps(_jsonable(value))}"
            for key, value in obj.items()
        )

    def __init__(self, scenario: str, params: Dict[str, Any], seed: int, jobs: int):
        header = {"scenario": scenario, "params": params, "seed": seed, "jobs": jobs}
        self._wrote_point = False
        sys.stdout.write("{" + self._fields(header) + ', "points": [')
        sys.stdout.flush()

    def point(self, result: RunResult) -> None:
        head = {
            "scenario": result.scenario,
            "params": result.params,
            "seed": result.seed,
            "wall_seconds": result.wall_seconds,
        }
        sys.stdout.write(
            (",\n" if self._wrote_point else "\n")
            + "{" + self._fields(head) + ', "rows": ['
        )
        self._wrote_point = True
        for index, row in enumerate(result.rows):
            sys.stdout.write(("," if index else "") + "\n" + json.dumps(_jsonable(row)))
            sys.stdout.flush()
        sys.stdout.write('], "extras": ' + json.dumps(_jsonable(result.extras)) + "}")
        sys.stdout.flush()

    def close(self, wall_seconds: float) -> None:
        sys.stdout.write('\n], "wall_seconds": ' + json.dumps(wall_seconds) + "}\n")
        sys.stdout.flush()


class _CsvRowStream:
    """Streams CSV rows to stdout as sweep points complete (flush per row).

    The header comes from the first point that produces rows; later points
    with extra keys have them dropped (sweep points of one scenario share
    their row shape, so in practice the column set never changes mid-run).
    """

    def __init__(self) -> None:
        self._writer: Optional[csv.DictWriter] = None

    def point(self, result: RunResult) -> None:
        if not result.rows:
            return
        if self._writer is None:
            self._writer = csv.DictWriter(
                sys.stdout,
                fieldnames=row_columns(result.rows),
                restval="",
                extrasaction="ignore",
            )
            self._writer.writeheader()
        for row in result.rows:
            self._writer.writerow(row)
            sys.stdout.flush()

    def close(self, wall_seconds: float) -> None:  # symmetry with _JsonRowStream
        sys.stdout.flush()


def _emit(result: SweepResult, args: argparse.Namespace) -> None:
    """Write/print a sweep result according to --json/--csv/--quiet.

    Stdout streams (``--json -`` / ``--csv -``) were already written row by
    row while the sweep ran (see ``cmd_run``); only files and the
    human-readable table are handled here.
    """
    json_out, csv_out = args.json_out, args.csv_out
    if json_out and json_out != "-":
        result.to_json(path=json_out)
        print(f"wrote {json_out}", file=sys.stderr)
    if csv_out and csv_out != "-":
        result.to_csv(path=csv_out)
        print(f"wrote {csv_out}", file=sys.stderr)
    if json_out == "-" or csv_out == "-" or args.quiet:
        return
    spec = get_scenario(result.scenario)
    _print_rows(f"{result.scenario}: {spec.title}", result.rows())
    for key, value in result.extras().items():
        rendered = str(value)
        if len(rendered) <= 120:  # skip bulky payloads like full CDFs
            print(f"{key}: {rendered}")
    print(
        f"[{result.scenario}] {len(result.points)} point(s), jobs={result.jobs}, "
        f"seed={result.seed}, {result.wall_seconds:.2f}s"
    )


def _parse_overrides(pairs: Iterable[str]) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ScenarioError(f"--set expects KEY=VALUE, got '{pair}'")
        overrides[key.strip()] = value
    return overrides


# --------------------------------------------------------------------------- #
# registry-facing commands
# --------------------------------------------------------------------------- #
def cmd_list(_args: argparse.Namespace) -> int:
    print("scenarios (repro.scenarios registry):")
    for spec in iter_scenarios():
        axis = f"sweep: {spec.axis}" if spec.axis else "single point"
        print(f"  {spec.name:<20} {spec.title}  [{axis}]")
    print("\nusage: run <scenario> [--set key=value ...] [--jobs N] [--json out.json]")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    try:
        spec = get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    print(f"{spec.name}: {spec.title}")
    doc = (spec.func.__doc__ or "").strip()
    if doc:
        print(f"  {doc}")
    print(f"  axis: {spec.axis or '(single point)'}   seed: {spec.seed} "
          f"({spec.seed_policy})   tags: {', '.join(spec.tags) or '-'}")
    print("  parameters:")
    for key, value in spec.params.items():
        marker = "  (sweep axis)" if key == spec.axis else ""
        print(f"    {key} = {value!r}{marker}")
    if spec.smoke:
        print(f"  smoke overrides: {dict(spec.smoke)!r}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.json_out == "-" and args.csv_out == "-":
        print("error: --json - and --csv - cannot share stdout; write one "
              "of them to a file", file=sys.stderr)
        return 2
    try:
        spec = get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    try:
        overrides: Dict[str, Any] = _parse_overrides(args.overrides)
        # The global --scale / --loss-rate knobs apply wherever the scenario
        # has the matching parameter; explicit --set overrides win.
        for knob in ("scale", "loss_rate"):
            value = getattr(args, knob)
            if value is not None and knob in spec.params and knob not in overrides:
                overrides[knob] = value
        # The runner validates --jobs before a stdout stream writes anything.
        with SweepRunner(jobs=args.jobs) as runner:
            # Stdout streams emit rows as each sweep point completes; files
            # and tables still come from the collected SweepResult afterwards.
            streamer = None
            if args.json_out == "-":
                streamer = _JsonRowStream(
                    spec.name, spec.merged_params(overrides),
                    spec.point_seed(args.seed, 0), args.jobs,
                )
            elif args.csv_out == "-":
                streamer = _CsvRowStream()
            result = runner.run(
                spec,
                overrides=overrides,
                seed=args.seed,
                point_callback=streamer.point if streamer else None,
            )
        if streamer is not None:
            streamer.close(result.wall_seconds)
    except ValueError as error:  # ScenarioError included
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    _emit(result, args)
    return 0


# --------------------------------------------------------------------------- #
# always-on service
# --------------------------------------------------------------------------- #
def _parse_phases(text: str):
    """Parse ``flows:victim_ratio:epochs[,...]`` into stream phases."""
    from .stream import Phase

    phases = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ScenarioError(
                f"--phases expects flows:victim_ratio:epochs groups, got '{part}'"
            )
        try:
            phases.append(
                Phase(
                    num_flows=int(pieces[0]),
                    victim_ratio=float(pieces[1]),
                    epochs=int(pieces[2]),
                )
            )
        except ValueError as error:
            raise ScenarioError(f"bad --phases value '{part}': {error}") from None
    return phases


def _build_stream_source(args: argparse.Namespace, seed: int):
    """The trace source the ``serve`` flags describe."""
    from .stream import Phase, SyntheticSource, TraceFileSource

    if args.trace:
        if not os.path.isfile(args.trace):
            raise ScenarioError(f"trace file '{args.trace}' does not exist")
        return TraceFileSource(args.trace, flows_per_epoch=args.flows_per_epoch)
    from .traffic.distributions import get_distribution

    get_distribution(args.workload)  # fail fast on unknown workloads
    phase_text = args.phases or "400:0.05:6,800:0.15:6,400:0.05:6"
    phases = [
        Phase(
            epochs=phase.epochs,
            num_flows=phase.num_flows,
            victim_ratio=phase.victim_ratio,
            loss_rate=args.loss_rate if args.loss_rate is not None else 0.05,
            workload=args.workload,
        )
        for phase in _parse_phases(phase_text)
    ]
    return SyntheticSource(phases=phases, seed=seed)


def _build_flag_events(args: argparse.Namespace) -> list:
    """The link failure/recovery and flow-burst events the ``serve`` flags describe."""
    from .network.topology import FatTreeTopology
    from .stream import FlowBurstEvent, LinkFailureEvent, LinkRecoveryEvent

    events = []
    if args.fail_epoch is not None or args.recover_epoch is not None:
        topology = FatTreeTopology.testbed()
        if not 0 <= args.fail_host < topology.num_hosts:
            raise ScenarioError(f"--fail-host must be in [0, {topology.num_hosts})")
        edge = topology.edge_switch_of_host(args.fail_host)
        host = topology.host(args.fail_host)
        if args.fail_epoch is not None:
            events.append(
                LinkFailureEvent(
                    epoch=args.fail_epoch,
                    endpoint_a=edge,
                    endpoint_b=host,
                    loss_rate=args.fail_loss,
                )
            )
        if args.recover_epoch is not None:
            events.append(
                LinkRecoveryEvent(
                    epoch=args.recover_epoch, endpoint_a=edge, endpoint_b=host
                )
            )
    if args.burst_epoch is not None:
        events.append(
            FlowBurstEvent(
                epoch=args.burst_epoch,
                extra_flows=args.burst_flows,
                duration=args.burst_duration,
            )
        )
    return events


def _build_observability(args: argparse.Namespace):
    """``(tracer, metrics, span_sink)`` from the obs flags.

    ``--spans PATH`` turns on stage tracing and streams span JSONL to
    ``PATH`` (input for ``repro.cli perf report``); ``--metrics PATH`` and
    ``--metrics-port`` attach a metrics registry to the engine.
    """
    from .obs import JsonlSpanSink, MetricsRegistry, StageTracer

    tracer = span_sink = None
    if args.spans_out:
        tracer = StageTracer()
        span_sink = JsonlSpanSink(args.spans_out)
    metrics = None
    if args.metrics_out or args.metrics_port is not None:
        metrics = MetricsRegistry()
    return tracer, metrics, span_sink


def _build_alert_engine(args: argparse.Namespace):
    """The alert engine the ``serve`` flags describe (None when no rules)."""
    from .service import (
        AlertEngine,
        ConsoleAlertSink,
        DecodeFailureStreak,
        EpochLatencySlo,
        RollingAreCeiling,
        RollingF1Floor,
    )
    from .stream import JsonlSink

    rules = []
    if args.alert_f1_floor is not None:
        rules.append(RollingF1Floor(args.alert_f1_floor, warmup=args.alert_warmup))
    if args.alert_are_ceiling is not None:
        rules.append(RollingAreCeiling(args.alert_are_ceiling, warmup=args.alert_warmup))
    if args.alert_decode_streak is not None:
        rules.append(DecodeFailureStreak(args.alert_decode_streak))
    if args.alert_latency_ms is not None:
        rules.append(EpochLatencySlo(args.alert_latency_ms))
    if not rules:
        return None
    sinks = []
    if args.alerts_out:
        sinks.append(JsonlSink(args.alerts_out))
    if not args.quiet:
        sinks.append(ConsoleAlertSink())
    return AlertEngine(rules, sinks=sinks)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on telemetry service: stream + checkpoints + alerts."""
    from .dataplane.config import SwitchResources
    from .service import (
        CheckpointError,
        NetworkStateError,
        TelemetryService,
        compile_state_diff,
        inspect_checkpoint,
        read_state_diffs,
    )
    from .stream import ConsoleSink, CsvSink, JsonlSink, StreamingEngine

    if args.inspect:
        if not args.checkpoint:
            print("error: --inspect needs --checkpoint PATH", file=sys.stderr)
            return 2
        try:
            print(json.dumps(inspect_checkpoint(args.checkpoint), indent=2))
        except CheckpointError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        return 0
    if args.jsonl_out == "-" and args.csv_out == "-":
        print("error: --jsonl - and --csv - cannot share stdout; write one "
              "of them to a file", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume needs --checkpoint PATH", file=sys.stderr)
        return 2
    if args.epochs is not None and args.epochs < 0:
        print("error: --epochs must be >= 0", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 0

    chaos = None
    tracer, metrics, span_sink = _build_observability(args)
    if args.chaos_spec:
        from .chaos import ChaosSpecError, FaultInjector

        try:
            chaos = FaultInjector.load(args.chaos_spec, default_seed=seed)
        except ChaosSpecError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        if metrics is not None:
            chaos.monitor.bind(metrics)

    try:
        source = _build_stream_source(args, seed)
        events = []
        if args.state_diffs:
            if chaos is not None:
                # Chaos runs read the feed leniently: corrupted lines are
                # skipped with a counted warning, not a fatal parse error.
                monitor = chaos.monitor

                def _reject(line_number: int, reason: str) -> None:
                    monitor.netstate_rejected()
                    print(
                        f"[serve] skipping {args.state_diffs}:{line_number}: "
                        f"{reason}",
                        file=sys.stderr,
                    )

                diffs = read_state_diffs(
                    args.state_diffs,
                    strict=False,
                    on_reject=_reject,
                    fault_hook=chaos.netstate_hook(),
                )
            else:
                diffs = read_state_diffs(args.state_diffs)
            events = [compile_state_diff(diff) for diff in diffs]
        events += _build_flag_events(args)
        resources = SwitchResources.scaled(args.scale if args.scale is not None else 0.05)
        sinks = []
        if args.jsonl_out:
            sinks.append(JsonlSink(args.jsonl_out))
        if args.csv_out:
            sinks.append(CsvSink(args.csv_out))
        stdout_taken = args.jsonl_out == "-" or args.csv_out == "-"
        if not args.quiet and not stdout_taken:
            sinks.append(ConsoleSink())
        engine = StreamingEngine(
            source,
            events=events,
            sinks=sinks,
            resources=resources,
            seed=seed,
            rolling_window=args.rolling_window,
            tracer=tracer,
            metrics=metrics,
            span_sink=span_sink,
            chaos=chaos,
        )
        service = TelemetryService(
            engine,
            alert_engine=_build_alert_engine(args),
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            handle_signals=True,
            metrics_port=args.metrics_port,
            chaos=chaos,
            keep_checkpoints=args.keep_checkpoints,
        )
    except (ScenarioError, NetworkStateError, ValueError, KeyError, OSError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.metrics_port is not None and not args.quiet:
        print(f"[serve] metrics port {args.metrics_port} "
              f"(http://127.0.0.1:{args.metrics_port}/metrics)", file=sys.stderr)
    try:
        summary = service.run(max_epochs=args.epochs, resume=args.resume)
    except CheckpointError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if metrics is not None and args.metrics_out:
        from .obs import write_snapshot

        write_snapshot(args.metrics_out, metrics)
    stream = sys.stderr if stdout_taken or args.quiet else sys.stdout
    if chaos is not None:
        snapshot = chaos.monitor.snapshot()
        print(
            f"[serve] chaos: faults {snapshot['faults_injected']}, "
            f"recoveries {snapshot['recoveries']}, "
            f"{snapshot['degraded_epochs']} degraded epochs, "
            f"{snapshot['netstate_rejected_lines']} netstate lines rejected",
            file=stream,
        )
    checkpoint_note = f", checkpoint {args.checkpoint}" if args.checkpoint else ""
    print(
        f"[serve] {summary.epochs} epochs, {summary.packets} packets in "
        f"{summary.wall_seconds:.2f}s ({summary.epochs_per_second:.2f} epochs/s, "
        f"{summary.packets_per_second:,.0f} pkt/s), peak resident "
        f"{summary.peak_resident_flows} flows, mean F1 {summary.mean_f1:.3f}"
        f"{checkpoint_note}",
        file=stream,
    )
    return 0


# --------------------------------------------------------------------------- #
# performance tooling
# --------------------------------------------------------------------------- #
def cmd_perf_report(args: argparse.Namespace) -> int:
    """Aggregate a span JSONL file into a self/cumulative stage breakdown."""
    from .obs import aggregate_spans, load_spans, render_report, report_dict

    try:
        spans = load_spans(args.spans)
    except (OSError, ValueError) as error:
        print(f"error: cannot read spans from '{args.spans}': {error}",
              file=sys.stderr)
        return 2
    if not spans:
        print(f"error: '{args.spans}' holds no spans; run serve with "
              f"--spans to produce one", file=sys.stderr)
        return 2
    nodes = aggregate_spans(spans)
    if args.json_out:
        payload = report_dict(nodes)
        payload["spans"] = len(spans)
        payload["epochs"] = len(
            {s.get("epoch") for s in spans if s.get("epoch") is not None}
        )
        if args.json_out == "-":
            print(json.dumps(payload, indent=2))
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
    if not args.quiet and args.json_out != "-":
        epochs = len({s.get("epoch") for s in spans if s.get("epoch") is not None})
        print(f"[perf] {len(spans)} spans over {epochs} epochs from {args.spans}")
        print(render_report(nodes))
    return 0


def cmd_trace_convert(args: argparse.Namespace) -> int:
    from .stream.sources import TraceFileSource, _infer_format, write_trace_file

    try:
        source = TraceFileSource(args.source, flows_per_epoch=args.flows_per_epoch)
        dest_format = _infer_format(args.dest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not os.path.exists(args.source):
        print(f"error: no such trace file: {args.source}", file=sys.stderr)
        return 2
    epochs = write_trace_file(args.dest, source.epochs())
    if not args.quiet:
        print(
            f"converted {args.source} ({source.format}) -> {args.dest} "
            f"({dest_format}): {epochs} epochs"
        )
    return 0


def cmd_trace_inspect(args: argparse.Namespace) -> int:
    from .stream.sources import TraceFileSource
    from .traffic.store import TraceFormatError, inspect_binary_trace

    if not os.path.exists(args.path):
        print(f"error: no such trace file: {args.path}", file=sys.stderr)
        return 2
    try:
        source = TraceFileSource(args.path, flows_per_epoch=args.flows_per_epoch)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = source.format
    try:
        if fmt == "binary":
            summary = inspect_binary_trace(args.path)
        else:
            # Text formats have no manifest: stream the epochs and aggregate.
            summary = {
                "path": args.path,
                "format": fmt,
                "epochs": 0,
                "flows": 0,
                "packets": 0,
                "lost_packets": 0,
                "victims": 0,
                "wide_epochs": 0,
                "file_bytes": os.path.getsize(args.path),
            }
            columns_summary = {}
            for trace in source.epochs():
                columns = trace.columns()
                summary["epochs"] += 1
                summary["flows"] += len(columns)
                summary["packets"] += trace.num_packets()
                summary["lost_packets"] += trace.total_losses()
                summary["victims"] += trace.num_victims()
                summary["wide_epochs"] += 1 if columns.wide_ids else 0
                columns_summary = {
                    "flow_id": "object" if columns.wide_ids else str(columns.flow_ids.dtype),
                    "size": str(columns.sizes.dtype),
                    "src_host": str(columns.src_hosts.dtype),
                    "dst_host": str(columns.dst_hosts.dtype),
                    "is_victim": str(columns.is_victim.dtype),
                    "loss_rate": str(columns.loss_rate.dtype),
                    "lost_packets": str(columns.lost_packets.dtype),
                }
            summary["columns"] = columns_summary
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "json_out", None):
        payload = json.dumps(summary, indent=2)
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json_out}")
        return 0
    print(f"path:         {summary['path']}")
    print(f"format:       {summary['format']}")
    if "version" in summary:
        print(f"version:      {summary['version']}")
    print(f"epochs:       {summary['epochs']}")
    print(f"flows:        {summary['flows']}")
    print(f"packets:      {summary['packets']}")
    print(f"lost packets: {summary['lost_packets']}")
    print(f"victims:      {summary['victims']}")
    print(f"wide epochs:  {summary['wide_epochs']} (104-bit five-tuple IDs)")
    print(f"file bytes:   {summary['file_bytes']}")
    if summary.get("columns"):
        print("columns:")
        for name, dtype in summary["columns"].items():
            print(f"  {name:<14} {dtype}")
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    # ``--seed`` and ``--scale`` are accepted before and after the
    # sub-command: ``repro --seed 1 run fig4`` and ``repro run fig4 --seed 1``
    # are equivalent (sub-command values win because the sub-command copies
    # use SUPPRESS defaults).
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (default: the scenario's own)")
    parser.add_argument("--scale", type=float, default=None,
                        help="switch-resource scale relative to the testbed "
                             "(applied to scenarios that take a 'scale' parameter)")

    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("list", help="list registered scenarios")
    sub.set_defaults(handler=cmd_list)

    sub = subparsers.add_parser("describe", help="show a scenario's parameters")
    sub.add_argument("scenario")
    sub.set_defaults(handler=cmd_describe)

    sub = subparsers.add_parser("run", help="run any registered scenario")
    sub.add_argument("scenario")
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--scale", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--loss-rate", type=float, dest="loss_rate", default=None,
                     help="packet-loss rate (applied to scenarios that "
                          "take a 'loss_rate' parameter)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="run sweep points across N processes")
    sub.add_argument("--json", dest="json_out", metavar="PATH",
                     help="write the result as JSON ('-' for stdout)")
    sub.add_argument("--csv", dest="csv_out", metavar="PATH",
                     help="write the rows as CSV ('-' for stdout)")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a scenario parameter "
                     "(lists as comma-separated values); repeatable")
    sub.add_argument("--quiet", action="store_true", help="suppress the table output")
    sub.set_defaults(handler=cmd_run)

    sub = subparsers.add_parser(
        "serve",
        help="run the streaming engine as an always-on telemetry service "
             "(live events, checkpoints, alerts, state-diff ingestion)",
    )
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--scale", type=float, default=argparse.SUPPRESS,
                     help="switch-resource scale (default 0.05)")
    sub.add_argument("--loss-rate", type=float, dest="loss_rate", default=None,
                     help="victim packet-loss rate of the synthetic phases")
    sub.add_argument("--phases", metavar="F:R:E[,...]",
                     help="phase schedule as flows:victim_ratio:epochs groups "
                          "(default 400:0.05:6,800:0.15:6,400:0.05:6)")
    sub.add_argument("--workload", default="DCTCP",
                     help="flow-size distribution of the synthetic phases")
    sub.add_argument("--trace", metavar="PATH",
                     help="replay a JSONL/CSV trace file instead of synthesising")
    sub.add_argument("--flows-per-epoch", type=int, dest="flows_per_epoch",
                     help="epoch chunk size for trace files without an epoch column")
    sub.add_argument("--epochs", type=int, default=None,
                     help="stop at epoch N (absolute: a resumed run continues "
                          "to the same boundary)")
    sub.add_argument("--rolling-window", type=int, dest="rolling_window", default=8,
                     help="epochs in the rolling F1/ARE window")
    sub.add_argument("--fail-epoch", type=int, dest="fail_epoch", default=None,
                     help="inject a link failure at this epoch")
    sub.add_argument("--recover-epoch", type=int, dest="recover_epoch", default=None,
                     help="recover the failed link at this epoch")
    sub.add_argument("--fail-loss", type=float, dest="fail_loss", default=0.5,
                     help="loss rate of the failed link (1.0 = hard failure)")
    sub.add_argument("--fail-host", type=int, dest="fail_host", default=0,
                     help="the failed link is this host's uplink to its ToR")
    sub.add_argument("--burst-epoch", type=int, dest="burst_epoch", default=None,
                     help="inject a flow burst at this epoch")
    sub.add_argument("--burst-flows", type=int, dest="burst_flows", default=500,
                     help="extra flows per burst epoch")
    sub.add_argument("--burst-duration", type=int, dest="burst_duration", default=1,
                     help="how many epochs the burst lasts")
    sub.add_argument("--state-diffs", dest="state_diffs", metavar="PATH",
                     help="JSONL device state-diff feed compiled into the "
                          "event schedule (oper-status, loss-rate, ecmp)")
    sub.add_argument("--checkpoint", metavar="PATH",
                     help="write .rtck checkpoints here (and resume from it)")
    sub.add_argument("--checkpoint-interval", type=int, dest="checkpoint_interval",
                     default=1, metavar="N",
                     help="checkpoint every N epochs (0 = only at shutdown)")
    sub.add_argument("--resume", action="store_true",
                     help="restore from --checkpoint if it exists and continue "
                          "bit-identically")
    sub.add_argument("--keep-checkpoints", type=int, dest="keep_checkpoints",
                     default=2, metavar="N",
                     help="checkpoint chain depth: keep the last N .rtck "
                          "files and fall back on resume when the newest is "
                          "corrupt (quarantined to .rtck.bad)")
    sub.add_argument("--chaos", dest="chaos_spec", metavar="SPEC.json",
                     help="inject deterministic faults from this chaos spec "
                          "(see repro.chaos; faults are keyed on the run seed)")
    sub.add_argument("--inspect", action="store_true",
                     help="print a summary of --checkpoint and exit")
    sub.add_argument("--alerts", dest="alerts_out", metavar="PATH",
                     help="append one JSON object per alert transition")
    sub.add_argument("--alert-f1-floor", type=float, dest="alert_f1_floor",
                     default=None, metavar="F1",
                     help="fire while the rolling F1 sits below this floor")
    sub.add_argument("--alert-are-ceiling", type=float, dest="alert_are_ceiling",
                     default=None, metavar="ARE",
                     help="fire while the rolling ARE exceeds this ceiling")
    sub.add_argument("--alert-decode-streak", type=int, dest="alert_decode_streak",
                     default=None, metavar="N",
                     help="fire after N consecutive epochs with decode failures")
    sub.add_argument("--alert-latency-ms", type=float, dest="alert_latency_ms",
                     default=None, metavar="MS",
                     help="fire while an epoch's wall time exceeds this SLO")
    sub.add_argument("--alert-warmup", type=int, dest="alert_warmup", default=0,
                     metavar="N",
                     help="skip the F1/ARE rules for the first N epochs")
    sub.add_argument("--jsonl", dest="jsonl_out", metavar="PATH",
                     help="append one JSON record per epoch ('-' for stdout)")
    sub.add_argument("--csv", dest="csv_out", metavar="PATH",
                     help="append one CSV row per epoch ('-' for stdout)")
    sub.add_argument("--spans", dest="spans_out", metavar="PATH",
                     help="trace pipeline stages and append span JSONL here "
                          "(input for `perf report`)")
    sub.add_argument("--metrics", dest="metrics_out", metavar="PATH",
                     help="write a final metrics snapshot (JSONL) here")
    sub.add_argument("--metrics-port", type=int, dest="metrics_port",
                     default=None, metavar="PORT",
                     help="serve live Prometheus metrics on this port while "
                          "running (0 picks a free port)")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress the per-epoch console line")
    sub.set_defaults(handler=cmd_serve)

    sub = subparsers.add_parser(
        "trace",
        help="inspect and convert trace files (.rtbin binary, .jsonl, .csv)",
    )
    trace_sub = sub.add_subparsers(dest="trace_command", required=True)

    convert = trace_sub.add_parser(
        "convert",
        help="convert a trace file between the binary epoch store and JSONL/CSV",
    )
    convert.add_argument("source", help="input trace (.rtbin, .jsonl, or .csv)")
    convert.add_argument("dest", help="output trace; format inferred from extension")
    convert.add_argument(
        "--flows-per-epoch", type=int, dest="flows_per_epoch",
        help="epoch size for text inputs without an 'epoch' column",
    )
    convert.add_argument("--quiet", action="store_true")
    convert.set_defaults(handler=cmd_trace_convert)

    inspect = trace_sub.add_parser(
        "inspect",
        help="summarize a trace file: epochs, flow/packet totals, column dtypes",
    )
    inspect.add_argument("path")
    inspect.add_argument(
        "--flows-per-epoch", type=int, dest="flows_per_epoch",
        help="epoch size for text inputs without an 'epoch' column",
    )
    inspect.add_argument("--json", dest="json_out", metavar="PATH",
                         help="write the summary as JSON ('-' for stdout)")
    inspect.set_defaults(handler=cmd_trace_inspect)

    sub = subparsers.add_parser(
        "perf",
        help="performance tooling over traced runs (serve --spans)",
    )
    perf_sub = sub.add_subparsers(dest="perf_command", required=True)

    report = perf_sub.add_parser(
        "report",
        help="aggregate a span JSONL into a self/cumulative stage breakdown",
    )
    report.add_argument("spans", help="span JSONL written by serve --spans")
    report.add_argument("--json", dest="json_out", metavar="PATH",
                        help="write the breakdown as JSON ('-' for stdout)")
    report.add_argument("--quiet", action="store_true",
                        help="suppress the table output")
    report.set_defaults(handler=cmd_perf_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
