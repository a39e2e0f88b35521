"""The benchmark's workloads and its measured, closed epoch loop.

Each workload drives a public entry point of the program: the streaming
engine (:class:`repro.stream.StreamingEngine`) on the 4-edge testbed, or the
:class:`repro.core.runner.ChameleMon` facade on a k=8 fat-tree.  The loop is
closed: the next epoch starts when the previous epoch's record has been
emitted, and the simulator makes its own traffic, so there is no arrival
process.  An epoch's time is the interval between two consecutive record
emissions, stamped outside the program with ``perf_counter_ns``; the
benchmark's own work inside that interval (scoring and checks, the reference
loop) is timed and subtracted.  Each time is also given at a fixed reference
speed (see :func:`reference_loop`).

A run measures for ``seconds`` after :data:`WARMUP_EPOCHS` warm-up epochs,
but never stops before its workload's scoring ``window`` is done.  The
window's epochs carry fixed traffic (:data:`SCORING_SEED`); the epochs after
it carry the traffic of ``--seed``.  Accuracy, counts and the record digest
cover exactly the window, so they are the same for every seed and every
machine speed, and a change that moves them by any amount shows.  The epoch
times cover every epoch after the warm-up (``run.py`` takes the rate over
the window's epochs and the median over all).  The deployment seed, which
fixes the sketch hashes and the loss sub-streams, is the constant
:data:`DEPLOYMENT_SEED`.

``run.py`` runs each workload through this module's command line, in a fresh
process, and derives the reported metrics from the JSON it prints:

    python3 perf/epochloop.py --workload light-400 --seed 11 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for sink files and span dumps; inside the checkout, ignored by git.
WORK_DIR = os.path.join(ROOT, "perf", "out")

#: Fixes the deployment (sketch hashes, loss sub-streams); not a benchmark input.
DEPLOYMENT_SEED = 7
#: Trace seed of the scoring window, whatever ``--seed`` is.
SCORING_SEED = 0
#: Epochs run before timing starts: they build caches and settle the layout.
WARMUP_EPOCHS = 2
#: Flows bigger than this are heavy hitters (the engine's default threshold).
HH_THRESHOLD = 500
LOSS_RATE = 0.05
#: Source length; runs stop on time long before a source runs dry.
SOURCE_EPOCHS = 20_000
#: Repeating grey failure of the failover workload: the link between host 0
#: and its edge switch drops half its packets in epochs 40c+20 .. 40c+34.
FAILOVER_PERIOD, FAIL_AT, RECOVER_AT, FAIL_LOSS = 40, 20, 35, 0.5
#: Rounds of the reference loop.
REFERENCE_ROUNDS = 500
#: The reference loop's time on a 2-vCPU VM at full speed.  Gated times are
#: reported at this reference speed: wall time x nominal / measured loop time.
REFERENCE_NOMINAL_MS = 1.5
#: An epoch is normalised by the median reference time of this many
#: reference runs centred on it.
REFERENCE_SPAN = 9


def reference_loop() -> float:
    """Time one fixed unit of interpreter work, in milliseconds.

    Shared machines change speed by up to 1.5-1.9x over seconds to minutes,
    and the program slows with them.  Dict stores and 61-bit modular
    exponentiation, the interpreter work the program itself is made of,
    slow down by nearly the same factor (within 1-8% on the benchmark's
    workloads), so a wall time scaled by this loop's time measured alongside
    is a time at a fixed machine speed.
    The loop touches no program code, so a faster program still reads faster.
    """
    start = time.perf_counter_ns()
    table = {}
    for i in range(REFERENCE_ROUNDS):
        table[(i * 2654435761) % 100003] = pow(i + 3, 65537, (1 << 61) - 1)
    return (time.perf_counter_ns() - start) / 1e6


def at_reference_speed(wall: float, reference_ms: float) -> float:
    """A wall time (any unit) rescaled to the nominal reference speed."""
    return wall * REFERENCE_NOMINAL_MS / reference_ms


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (its reasons are in BENCHMARK.json and README)."""

    name: str
    flows: int
    #: Epochs on fixed traffic, scored for accuracy, counts and the digest,
    #: and timed for ``epochs_per_s``: 8-15 s of a run on a 2-vCPU machine.
    window: int
    victim_ratio: float = 0.05
    scale: float = 0.05
    tasks: bool = False
    failover: bool = False
    fabric: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("light-400", flows=400, window=80),
        Workload("overload-4000", flows=4000, window=48),
        # Two whole cycles of the repeating grey failure.
        Workload("failover-tasks-800", flows=800, window=80, tasks=True, failover=True),
        # 5000 flows, not 20000: per-switch MRAC and HH decode still take
        # ~80% of an epoch, and the 3x cheaper epoch gives ~30 timed epochs
        # per run instead of ~12.
        Workload("fabric-k8-5k", flows=5000, window=24, victim_ratio=0.02,
                 scale=0.2, fabric=True),
    )
}


def ensure_source() -> None:
    """Put the checkout's ``src`` on the import path, or stop with an error."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perf: the program source is missing ({SRC}); "
            "run the benchmark from the root of a repository checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# --------------------------------------------------------------------------- #
# scoring and correctness checks (benchmark bookkeeping, timed and subtracted)
# --------------------------------------------------------------------------- #
def score_epoch(record: Dict[str, Any], result, workload: Workload) -> Dict[str, Any]:
    """Accuracy of one epoch plus the correctness problems it shows."""
    from repro.controlplane.tasks import network_heavy_hitters
    from repro.metrics.accuracy import f1_score, weighted_mean_relative_error

    report, truth = result.report, result.truth
    loss = report.loss_report
    layout = report.config.layout
    attempted = len(loss.hh_decodes) if layout.m_hh else 0
    ok = sum(decode.success for decode in loss.hh_decodes.values()) if layout.m_hh else 0
    if loss.analysis_completed:
        for allocated, success in ((layout.m_hl, loss.hl_decode_success),
                                   (layout.m_ll, loss.ll_decode_success)):
            if allocated:
                attempted += 1
                ok += bool(success)

    heavy_hitters = network_heavy_hitters(report.views, HH_THRESHOLD)
    true_heavy = [flow for flow, size in truth.flow_sizes.items() if size > HH_THRESHOLD]
    problems: List[str] = []
    if workload.tasks and report.heavy_hitters != heavy_hitters:
        problems.append("task heavy hitters differ from the HH flowsets' answer")
    # A drained (successful) decode returns exactly the counts its sketch
    # held, so with every part decoded and no sampling the reported losses
    # must add up to the packets lost.  Per-flow exactness is not promised:
    # without fingerprints a rare false peel can merge two victims into one.
    if (ok == attempted and loss.analysis_completed and report.config.sample_rate >= 1.0
            and sum(loss.all_losses().values()) != truth.total_lost_packets()):
        problems.append("every decode succeeded but the losses do not add up")
    for key in ("loss_f1", "loss_precision", "loss_recall"):
        if not 0.0 <= record[key] <= 1.0:
            problems.append(f"{key}={record[key]} outside [0, 1]")
    if not math.isfinite(record["loss_are"]):
        problems.append("loss_are is not finite")
    return {
        "loss_f1": record["loss_f1"],
        "loss_are": record["loss_are"],
        "hh_f1": f1_score(heavy_hitters, true_heavy),
        "fsd_wmre": weighted_mean_relative_error(
            Counter(truth.flow_sizes.values()), report.flow_size_distribution
        ),
        "decodes_attempted": attempted,
        "decodes_ok": ok,
        "problems": problems,
    }


class EpochLog:
    """Emission stamps, subtracted bookkeeping and scores of one run.

    After every emission the run times :func:`reference_loop` once.  That
    pause, and the scoring inside an epoch, are subtracted from its time.
    """

    def __init__(self, workload: Workload, seconds: float, window: int) -> None:
        self.workload = workload
        self.seconds = seconds
        self.window = window
        self.emitted_ns: List[int] = []
        self.bookkeeping_ns: List[int] = []
        self.scores: List[Dict[str, Any]] = []
        self.records: List[Dict[str, Any]] = []
        self.levels: List[str] = []
        self.failed = 0
        self.problems: List[str] = []
        self.reference_ms: List[float] = []
        #: The benchmark's pause after each emission (the reference loop).
        self.pause_ns: List[int] = []

    def score(self, epoch: int, record: Dict[str, Any], result,
              expected_flows: Optional[int]) -> None:
        from repro.obs.identity import comparable

        start = time.perf_counter_ns()
        scored = score_epoch(record, result, self.workload)
        problems = scored.pop("problems")
        if record["epoch"] != epoch:
            problems.append(f"record carries epoch {record['epoch']}")
        if expected_flows is not None and record["num_flows"] != expected_flows:
            problems.append(f"record counts {record['num_flows']} flows of {expected_flows}")
        if problems:
            self.failed += 1
            self.problems.extend(f"epoch {epoch}: {p}" for p in problems)
        if epoch < self.window:
            self.scores.append(scored)
            self.records.append(comparable(record))
            self.levels.append(record["level"])
        self.bookkeeping_ns.append(time.perf_counter_ns() - start)

    def emitted(self) -> None:
        now = time.perf_counter_ns()
        self.emitted_ns.append(now)
        self.reference_ms.append(reference_loop())
        self.pause_ns.append(time.perf_counter_ns() - now)

    def should_stop(self) -> bool:
        done = len(self.emitted_ns)
        if done < max(self.window, WARMUP_EPOCHS + 1):
            return False
        return (self.emitted_ns[-1] - self.emitted_ns[WARMUP_EPOCHS - 1]) >= self.seconds * 1e9

    def epoch_ms(self) -> List[float]:
        """Timed epochs: emission intervals minus the benchmark's work inside them."""
        return [
            (self.emitted_ns[k] - self.emitted_ns[k - 1] - self.pause_ns[k - 1]
             - self.bookkeeping_ns[k]) / 1e6
            for k in range(WARMUP_EPOCHS, len(self.emitted_ns))
        ]

    def epoch_norm_ms(self) -> List[float]:
        """Timed epochs at reference speed, each scaled by its local reference time."""
        half = REFERENCE_SPAN // 2
        return [
            at_reference_speed(
                ms, statistics.median(self.reference_ms[max(0, k - half): k + half + 1]))
            for k, ms in enumerate(self.epoch_ms(), start=WARMUP_EPOCHS)
        ]

    def digest(self) -> str:
        blob = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def accuracy(self) -> Dict[str, float]:
        scores = self.scores
        attempted = sum(s["decodes_attempted"] for s in scores)
        ok = sum(s["decodes_ok"] for s in scores)
        mean = lambda key: sum(s[key] for s in scores) / len(scores)  # noqa: E731
        return {
            "loss_f1": mean("loss_f1"),
            "loss_are": mean("loss_are"),
            "hh_f1": mean("hh_f1"),
            "fsd_wmre": mean("fsd_wmre"),
            "decode_ok_ratio": ok / attempted if attempted else 1.0,
            "decode_fail_ratio": (attempted - ok) / attempted if attempted else 0.0,
        }


# --------------------------------------------------------------------------- #
# the two drivers
# --------------------------------------------------------------------------- #
def trace_seed(seed: int, window: int, epoch: int) -> int:
    """The trace seed of an epoch: fixed in the scoring window, ``seed`` after it."""
    return SCORING_SEED if epoch < window else seed


class _StampedSource:
    """The testbed's traces, stamped when each epoch's trace is ready."""

    def __init__(self, workload: Workload, seed: int, window: int) -> None:
        self.workload = workload
        self.seed = seed
        self.window = window
        self.ready_ns: List[int] = []
        self.flows: List[int] = []

    def _steady(self, seed: int):
        from repro.stream import SyntheticSource

        return SyntheticSource.steady(
            self.workload.flows, SOURCE_EPOCHS, victim_ratio=self.workload.victim_ratio,
            loss_rate=LOSS_RATE, seed=seed,
        )

    def __iter__(self) -> Iterator:
        window = self.window
        traces = itertools.chain(
            itertools.islice(self._steady(trace_seed(self.seed, window, 0)), window),
            self._steady(trace_seed(self.seed, window, window)).epochs_from(window),
        )
        for trace in traces:
            self.flows.append(len(trace))
            self.ready_ns.append(time.perf_counter_ns())
            yield trace


class StreamDriver:
    """A testbed workload on the streaming engine, with a JSONL record sink."""

    def __init__(self, workload: Workload, seed: int, window: int, sink_path: str,
                 tracer=None, span_sink=None) -> None:
        from repro.dataplane.config import SwitchResources
        from repro.network.topology import FatTreeTopology
        from repro.stream import (
            JsonlSink,
            LinkFailureEvent,
            LinkRecoveryEvent,
            StreamingEngine,
        )

        self.source = _StampedSource(workload, seed, window)
        events = []
        if workload.failover:
            topology = FatTreeTopology.testbed()
            edge, host = topology.edge_switch_of_host(0), topology.host(0)
            for start in range(0, SOURCE_EPOCHS, FAILOVER_PERIOD):
                events.append(LinkFailureEvent(epoch=start + FAIL_AT, endpoint_a=edge,
                                               endpoint_b=host, loss_rate=FAIL_LOSS))
                events.append(LinkRecoveryEvent(epoch=start + RECOVER_AT,
                                                endpoint_a=edge, endpoint_b=host))
        self.engine = StreamingEngine(
            self.source,
            events=events,
            sinks=[JsonlSink(sink_path)],
            resources=SwitchResources.scaled(workload.scale),
            seed=DEPLOYMENT_SEED,
            pipelined="auto",
            compute_tasks=workload.tasks,
            heavy_hitter_threshold=HH_THRESHOLD,
            tracer=tracer,
            span_sink=span_sink,
        )

    def first_trace(self) -> int:
        """Produce the first epoch's trace; return the stamp when it was ready."""
        next(iter(self.source))
        return self.source.ready_ns[0]

    def run(self, log: EpochLog) -> int:
        """Run until ``log`` says stop; return the stamp when set-up ended."""
        self.engine.run(
            record_hook=lambda epoch, record, result: log.score(
                epoch, record, result, self.source.flows[epoch]),
            epoch_hook=lambda _next, _record: log.emitted(),
            should_stop=log.should_stop,
        )
        return self.source.ready_ns[0]

    def close(self) -> None:
        self.engine.close()


class FabricDriver:
    """The k=8 fabric: the facade driven serially, one generated trace per epoch.

    Generation is on the critical path here by design; records go through
    the same JSONL sink the engine uses.
    """

    def __init__(self, workload: Workload, seed: int, window: int, sink_path: str,
                 tracer=None, span_sink=None) -> None:
        from repro.core.runner import ChameleMon
        from repro.dataplane.config import SwitchResources
        from repro.network.topology import FatTreeSpec, FatTreeTopology
        from repro.sketches.fermat import MERSENNE_PRIME_61
        from repro.stream import JsonlSink

        self.workload = workload
        self.seed = seed
        self.window = window
        self.tracer = tracer
        self.span_sink = span_sink
        self.system = ChameleMon(
            resources=SwitchResources.scaled(workload.scale),
            seed=DEPLOYMENT_SEED,
            prime=MERSENNE_PRIME_61,
            topology=FatTreeTopology(FatTreeSpec(k=8)),
            history_limit=2,
            destructive_analysis=True,
            tracer=tracer,
        )
        self.sink = JsonlSink(sink_path)
        self._first = None

    def _generate(self, epoch: int):
        from repro.obs.tracing import NULL_TRACER
        from repro.traffic.generator import generate_workload

        with (self.tracer or NULL_TRACER).span("generate", epoch=epoch):
            return generate_workload(
                "DCTCP",
                num_flows=self.workload.flows,
                victim_ratio=self.workload.victim_ratio,
                loss_rate=LOSS_RATE,
                num_hosts=self.system.num_hosts,
                seed=trace_seed(self.seed, self.window, epoch) + 101 * epoch,
                use_five_tuple=False,
            )

    def first_trace(self) -> int:
        self._first = self._generate(0)
        return time.perf_counter_ns()

    def run(self, log: EpochLog) -> int:
        setup_done = self.first_trace()
        trace, epoch = self._first, 0
        while True:
            result = self.system.run_epoch(trace)
            record = _fabric_record(epoch, trace, result)
            log.score(epoch, record, result, len(trace))
            self.sink.write(record)
            if self.tracer is not None:
                self.span_sink.write(self.tracer.drain())
            log.emitted()
            epoch += 1
            if log.should_stop():
                return setup_done
            trace = self._generate(epoch)

    def close(self) -> None:
        self.sink.close()
        self.system.close()


def _fabric_record(epoch: int, trace, result) -> Dict[str, Any]:
    """The facade's epoch as a flat record (the fields the engine also emits)."""
    accuracy = result.loss_accuracy()
    division = result.memory_division()
    decoded = result.decoded_flow_counts()
    return {
        "epoch": epoch,
        "num_flows": len(trace),
        "num_victims": result.truth.num_victims(),
        "lost_packets": result.truth.total_lost_packets(),
        "level": result.level.value,
        **{f"mem_{part}": division[part] for part in ("hh", "hl", "ll")},
        **{f"decoded_{part}": decoded[part] for part in ("hh", "hl", "ll")},
        "threshold_high": result.config.threshold_high,
        "threshold_low": result.config.threshold_low,
        "sample_rate": result.config.sample_rate,
        "loss_precision": accuracy["precision"],
        "loss_recall": accuracy["recall"],
        "loss_f1": accuracy["f1"],
        "loss_are": accuracy["are"],
    }


def _driver(workload: Workload, seed: int, window: int, sink_path: str,
            tracer=None, span_sink=None):
    cls = FabricDriver if workload.fabric else StreamDriver
    return cls(workload, seed, window, sink_path, tracer=tracer, span_sink=span_sink)


class SpanList:
    """Span sink that keeps every span in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Any] = []

    def write(self, spans) -> None:
        self.spans.extend(spans)

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #
def _sink_path(workload: Workload, seed: int, traced: bool) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return os.path.join(
        WORK_DIR, f"records-{workload.name}-seed{seed}-{os.getpid()}-{int(traced)}.jsonl"
    )


def probe_setup(name: str, seed: int, t0_ns: int) -> Dict[str, Any]:
    """Set the workload up (deployment plus first trace) and stop there.

    Returns the set-up time and the reference loop's time right after it.
    """
    ensure_source()
    workload = WORKLOADS[name]
    path = _sink_path(workload, seed, False)
    driver = _driver(workload, seed, workload.window, path)
    try:
        ready = driver.first_trace()
        reference_ms = statistics.median(reference_loop() for _ in range(3))
    finally:
        driver.close()
        if os.path.exists(path):
            os.remove(path)
    return {"setup_s": (ready - t0_ns) / 1e9, "reference_ms": reference_ms}


def measure(name: str, seed: int, seconds: float, traced: bool = False,
            window: Optional[int] = None, t0_ns: Optional[int] = None) -> Dict[str, Any]:
    """Run one workload and return its raw measurements and checks.

    ``t0_ns`` is the ``perf_counter_ns`` stamp taken just before this process
    was started (the clock is system-wide), so set-up time includes
    interpreter start and imports; in-process callers omit it.  ``setup``
    holds the set-up time, as :func:`probe_setup` gives it.
    """
    if t0_ns is None:
        t0_ns = time.perf_counter_ns()
    ensure_source()
    from repro.obs.identity import comparable_records
    from repro.obs.tracing import JsonlSpanSink, StageTracer

    from layers import LayerProbe, layer_metrics

    workload = WORKLOADS[name]
    window = workload.window if window is None else window
    log = EpochLog(workload, seconds, window)
    tracer = StageTracer() if traced else None
    spans = SpanList() if traced else None
    path = _sink_path(workload, seed, traced)
    driver = _driver(workload, seed, window, path, tracer=tracer, span_sink=spans)
    layer_probe = LayerProbe(tracer) if traced else None
    out: Dict[str, Any] = {"workload": name, "seed": seed, "traced": traced, "window": window}
    error, setup_done = None, None
    try:
        if layer_probe is not None:
            layer_probe.install()
        setup_done = driver.run(log)
    except Exception as exc:  # noqa: BLE001 - a failing epoch is reported, not raised
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if layer_probe is not None:
            layer_probe.restore()
        driver.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if setup_done is not None and log.reference_ms:
        out["setup"] = {"setup_s": (setup_done - t0_ns) / 1e9,
                        "reference_ms": statistics.median(log.reference_ms[:REFERENCE_SPAN])}
    problems = list(log.problems)
    emitted = len(log.emitted_ns)
    written = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            written = [json.loads(line) for line in handle]
        os.remove(path)
    if len(written) != emitted:
        problems.append(f"sink holds {len(written)} records of {emitted} emitted")
    elif comparable_records(written[:window]) != log.records:
        problems.append("sink records differ from the emitted records")
    if len(log.records) < window:
        problems.append(f"only {len(log.records)} of {window} window epochs ran")
    if error is not None:
        problems.append(error)
    out.update(
        attempted=emitted + (error is not None),
        failed=log.failed + (error is not None),
        problems=problems[:20],
        correct=not problems,
        epoch_ms=log.epoch_ms(),
        epoch_norm_ms=log.epoch_norm_ms(),
        reference_ms=statistics.median(log.reference_ms) if log.reference_ms else None,
        digest=log.digest(),
        accuracy=log.accuracy() if log.scores else {},
    )
    if traced:
        all_spans = spans.spans + tracer.drain()
        speed = at_reference_speed(1.0, statistics.median(log.reference_ms))
        out.update(layer_metrics(all_spans, layer_probe, log, WARMUP_EPOCHS, speed))
        dump = os.path.join(WORK_DIR, f"spans-{name}-seed{seed}.jsonl")
        if os.path.exists(dump):
            os.remove(dump)
        sink = JsonlSpanSink(dump)
        sink.write(all_spans)
        sink.close()
        out["spans_path"] = os.path.relpath(dump, ROOT)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, default=None)
    parser.add_argument("--probe", action="store_true",
                        help="only set up (deployment and first trace) and report the time")
    args = parser.parse_args(argv)
    if args.probe:
        result = probe_setup(args.workload, args.seed, args.t0_ns or time.perf_counter_ns())
    else:
        result = measure(args.workload, args.seed, args.seconds, traced=bool(args.trace),
                         t0_ns=args.t0_ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
