"""Observability overhead: a fully instrumented run vs. a plain run.

The observability plane (:mod:`repro.obs`) promises to be effectively free:
stage spans are two ``perf_counter_ns`` calls and a list append, metrics are
dict lookups and float adds, and nothing in the pipeline ever reads either
back.  This benchmark holds the plane to that promise on the streaming
engine's own workload:

* an instrumented run (tracer + metrics registry + span sink) must sustain at
  least ``REQUIRED_RATIO`` of the plain run's epoch rate (the ISSUE gate is
  <5% overhead; interleaved best-of-N filters scheduler noise);
* both runs must produce **identical** per-epoch records after stripping the
  ``TIMING_FIELDS`` — observability may never perturb the measurement.

The per-stage self/cumulative breakdown of the instrumented run and the
overhead numbers are written to ``BENCH_stage_breakdown.json`` so the stage
profile is tracked across commits, next to the other perf artifacts.
"""

import os

import conftest

from repro.dataplane.config import SwitchResources
from repro.obs import (
    JsonlSpanSink,
    MetricsRegistry,
    StageTracer,
    aggregate_spans,
    comparable_records,
    load_spans,
    report_dict,
)
from repro.scenarios.results import RunResult
from repro.stream import MemorySink, Phase, StreamingEngine, SyntheticSource

#: Machine-readable perf artifact, written next to the repository root.
ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_stage_breakdown.json",
)

RESOURCE_SCALE = 0.1

#: Interleaved best-of-N repeats (same rationale as the throughput benchmark).
REPEATS = 3

#: The ISSUE gate: tracing + metrics may cost at most 5% of the epoch rate.
REQUIRED_RATIO = 0.95


def _source(seed: int = 11):
    base = conftest.scaled(2000, minimum=200)
    phases = (
        Phase(epochs=4, num_flows=base, victim_ratio=0.05),
        Phase(epochs=4, num_flows=2 * base, victim_ratio=0.15),
        Phase(epochs=4, num_flows=base, victim_ratio=0.05),
    )
    return SyntheticSource(phases=phases, seed=seed)


def _run(source, spans_path=None):
    """One engine run; ``spans_path`` switches the full obs plane on."""
    sink = MemorySink()
    kwargs = {}
    if spans_path is not None:
        kwargs = {
            "tracer": StageTracer(),
            "metrics": MetricsRegistry(),
            "span_sink": JsonlSpanSink(spans_path),
        }
    engine = StreamingEngine(
        source,
        sinks=[sink],
        resources=SwitchResources.scaled(RESOURCE_SCALE),
        seed=11,
        **kwargs,
    )
    summary = engine.run()
    return summary, sink.records


def test_observability_overhead_under_gate(tmp_path):
    source = _source()

    best_plain = best_traced = None
    plain_records = traced_records = None
    spans_path = None
    for repeat in range(REPEATS):
        summary, records = _run(source)
        if best_plain is None or summary.wall_seconds < best_plain.wall_seconds:
            best_plain, plain_records = summary, records
        path = str(tmp_path / f"spans_{repeat}.jsonl")
        summary, records = _run(source, spans_path=path)
        if best_traced is None or summary.wall_seconds < best_traced.wall_seconds:
            best_traced, traced_records, spans_path = summary, records, path

    # Observability is read-only: identical records modulo TIMING_FIELDS.
    assert comparable_records(traced_records) == comparable_records(plain_records)
    assert all("timing" in record for record in traced_records)

    ratio = best_traced.epochs_per_second / best_plain.epochs_per_second
    nodes = aggregate_spans(load_spans(spans_path))

    conftest.print_table(
        "Observability overhead (tracer + metrics + span sink)",
        ["mode", "epochs", "wall (s)", "epochs/s", "ratio"],
        [
            ["plain", best_plain.epochs, f"{best_plain.wall_seconds:.2f}",
             f"{best_plain.epochs_per_second:.2f}", ""],
            ["instrumented", best_traced.epochs, f"{best_traced.wall_seconds:.2f}",
             f"{best_traced.epochs_per_second:.2f}", f"{ratio:.3f}"],
        ],
    )
    conftest.print_table(
        "Stage breakdown (instrumented best run)",
        ["stage", "count", "total ms", "self ms", "%"],
        [
            ["  " * n["depth"] + n["name"], n["count"],
             f"{n['total_ms']:.2f}", f"{n['self_ms']:.2f}", f"{n['pct']:.1f}"]
            for n in nodes
        ],
    )

    result = RunResult(
        scenario="obs_overhead",
        params={
            "epochs": best_plain.epochs,
            "resource_scale": RESOURCE_SCALE,
            "repro_scale": conftest.SCALE,
            "cpu_count": os.cpu_count(),
            "repeats": REPEATS,
            "required_ratio": REQUIRED_RATIO,
        },
        seed=11,
        rows=[
            {"stage": n["stage"], "count": n["count"], "total_ms": n["total_ms"],
             "self_ms": n["self_ms"], "mean_ms": n["mean_ms"], "pct": n["pct"]}
            for n in nodes
        ],
        extras={
            "plain_epochs_per_second": best_plain.epochs_per_second,
            "instrumented_epochs_per_second": best_traced.epochs_per_second,
            "overhead_ratio": ratio,
            "profile": report_dict(nodes),
        },
    )
    result.to_json(path=ARTIFACT_PATH)
    print(f"perf artifact written to {ARTIFACT_PATH}")

    assert ratio >= REQUIRED_RATIO, (
        f"instrumented run at {best_traced.epochs_per_second:.2f} epochs/s is "
        f"{1 - ratio:.1%} slower than plain {best_plain.epochs_per_second:.2f} "
        f"epochs/s (gate: <{1 - REQUIRED_RATIO:.0%} overhead)"
    )
