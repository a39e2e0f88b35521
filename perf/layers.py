"""Per-layer tracing for the benchmark's ``--trace`` runs.

The program opens spans for its own stages (``epoch``, ``simulate``,
``analyze``, ``decode``, ``mrac_em``, ``tasks`` ...) on a
:class:`repro.obs.StageTracer`.  :class:`LayerProbe` adds spans and counters,
from the benchmark's side, around the public functions those stages call, so
that one opaque ``decode`` splits into HH decode, delta build and the HL/LL
decodes with their outcomes.  The wrappers open spans on the same tracer, so
they nest under the program's spans; self times come from
:func:`repro.obs.aggregate_spans`.  The wrappers only observe: a traced run
emits the same records as an untraced one, which ``run.py`` checks by digest.

Time metrics average over the timed epochs (after the warm-up) and are given
at reference speed, like the end-to-end times; counts and fail ratios cover
the deterministic scoring window, so they repeat exactly for a seed.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List

from repro.controlplane import analysis, tasks
from repro.core.runner import ChameleMon
from repro.dataplane.switch import EdgeSwitch
from repro.network.simulator import NetworkSimulator
from repro.obs.report import aggregate_spans
from repro.sketches.fermat import FermatSketch
from repro.stream.sinks import JsonlSink


_ALL = ("light-400", "overload-4000", "failover-tasks-800", "fabric-k8-5k")
#: Written before measuring: which (end-to-end metric, workload) pairs each
#: per-layer metric should move when its layer gets faster or does less.  An
#: empty list means no end-to-end effect is expected.
MOVES: Dict[str, List[tuple]] = {
    # Generation overlaps analysis on 2 cores; only the serial fabric driver waits.
    "stream.generate.ms_per_epoch": [("epoch_ms_p50", "fabric-k8-5k")],
    "stream.generate_wait.ms_per_epoch": [("epoch_ms_p50", "fabric-k8-5k")],
    "stream.sink.ms_per_epoch": [("epoch_ms_p50", "light-400")],
    # The data plane caps what sharding can gain at its share of an epoch.
    "network.simulate.ms_per_epoch": [("epoch_ms_p50", "fabric-k8-5k"),
                                      ("epoch_ms_p50", "light-400")],
    "network.classify_encode.ms_per_epoch": [("epoch_ms_p50", "fabric-k8-5k"),
                                             ("epoch_ms_p50", "light-400")],
    "network.loss_apply.ms_per_epoch": [("epoch_ms_p50", "fabric-k8-5k")],
    "network.downstream_encode.ms_per_epoch": [("epoch_ms_p50", "fabric-k8-5k"),
                                               ("epoch_ms_p50", "light-400")],
    "dataplane.install.ms_per_epoch": [("epoch_ms_p50", "light-400")],
    "dataplane.collect.ms_per_epoch": [("epoch_ms_p50", "light-400")],
    # Per-switch HH decode: 32 calls per epoch on the fabric, 4 on light (the guard).
    "controlplane.hh_decode.ms_per_epoch": [("epoch_ms_p50", "fabric-k8-5k")],
    "controlplane.hh_decode.calls_per_epoch": [("epoch_ms_p50", "fabric-k8-5k")],
    "controlplane.hh_decode.fail_ratio": [("decode_ok_ratio", "overload-4000")],
    "controlplane.delta_build.ms_per_epoch": [("epoch_ms_p50", "overload-4000")],
    # Failing HL decodes are the tail; light rarely fails, so it predicts no change.
    "controlplane.hl_decode.ms_per_epoch": [("epochs_per_s", "overload-4000"),
                                            ("epochs_per_s", "failover-tasks-800")],
    "controlplane.hl_decode.fail_ratio": [("decode_ok_ratio", "overload-4000"),
                                          ("loss_f1", "overload-4000")],
    "controlplane.hl_decode.ms_p50": [("epoch_ms_p50", "overload-4000")],
    "controlplane.hl_decode.ms_max": [("epochs_per_s", "overload-4000"),
                                      ("epochs_per_s", "failover-tasks-800")],
    "controlplane.ll_decode.calls_per_epoch": [("epochs_per_s", "failover-tasks-800")],
    "controlplane.ll_decode.fail_ratio": [("loss_f1", "failover-tasks-800")],
    "sketches.fermat.insert.calls_per_epoch": [("epoch_ms_p50", "overload-4000")],
    "sketches.fermat.scalar_tail.calls_per_epoch": [("epochs_per_s", "overload-4000"),
                                                    ("epochs_per_s", "failover-tasks-800")],
    # Computing the distribution once halves MRAC calls on failover only.
    "sketches.mrac.calls_per_epoch": [("epoch_ms_p50", "failover-tasks-800")],
    "sketches.mrac.ms_per_call": [("epoch_ms_p50", w) for w in _ALL],
    "controlplane.mrac_em.ms_per_epoch": [("epoch_ms_p50", w) for w in _ALL],
    "controlplane.tasks.calls_per_epoch": [("epoch_ms_p50", "failover-tasks-800")],
    # Both take well under 1 ms per epoch.
    "controlplane.snapshot.ms_per_epoch": [],
    "controlplane.reconfig.ms_per_epoch": [],
    "controlplane.level_changes": [("loss_f1", "failover-tasks-800")],
    "controlplane.analyze.share": [("epoch_ms_p50", w) for w in _ALL],
    # The cost of tracing itself.
    "obs.trace_overhead_ratio": [],
}


class LayerProbe:
    """Wrappers around public layer functions, installed for one traced run.

    Call :meth:`install` before the run and :meth:`restore` in a ``finally``:
    the wrappers replace attributes of program modules and classes.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: Index of the epoch the facade is running (its run_epoch count).
        self.epoch = -1
        self.run_epoch_ns: Dict[int, int] = {}
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.hl_decode_ms: List[tuple] = []
        self._delta = (None, None)
        self._building_delta = False
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        patches = [
            (ChameleMon, "run_epoch", self._run_epoch),
            (NetworkSimulator, "run_epoch", self._spanned("network.simulate")),
            (EdgeSwitch, "begin_epoch", self._spanned("dataplane.install")),
            (EdgeSwitch, "apply_config", self._spanned("dataplane.install")),
            (EdgeSwitch, "end_epoch", self._spanned("dataplane.collect")),
            (analysis, "decode_hh_encoders", self._hh_decode),
            (analysis, "compute_delta_encoders", self._delta_build),
            (FermatSketch, "insert", self._insert),
            (FermatSketch, "decode", self._decode),
            (FermatSketch, "decode_scalar", self._scalar_tail),
            (tasks, "estimate_flow_size_distribution", self._mrac),
            (JsonlSink, "write", self._spanned("stream.sink")),
        ]
        for owner, name, make in patches:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    def _spanned(self, span_name: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with self.tracer.span(span_name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def _run_epoch(self, original: Callable) -> Callable:
        def run_epoch(system, *args, **kwargs):
            self.epoch += 1
            self.run_epoch_ns[self.epoch] = time.perf_counter_ns()
            return original(system, *args, **kwargs)
        return run_epoch

    def _hh_decode(self, original: Callable) -> Callable:
        def decode_hh_encoders(groups, *args, **kwargs):
            with self.tracer.span("controlplane.hh_decode"):
                results = original(groups, *args, **kwargs)
            counts = self.counts[self.epoch]
            counts["hh_calls"] += sum(
                group.upstream.parts.hh is not None for group in groups.values()
            )
            counts["hh_fails"] += sum(not decode.success for decode in results.values())
            return results
        return decode_hh_encoders

    def _delta_build(self, original: Callable) -> Callable:
        def compute_delta_encoders(*args, **kwargs):
            self._building_delta = True
            try:
                with self.tracer.span("controlplane.delta_build"):
                    self._delta = original(*args, **kwargs)
            finally:
                self._building_delta = False
            return self._delta
        return compute_delta_encoders

    def _insert(self, original: Callable) -> Callable:
        def insert(sketch, *args, **kwargs):
            if self._building_delta:
                self.counts[self.epoch]["fermat_insert"] += 1
            return original(sketch, *args, **kwargs)
        return insert

    def _decode(self, original: Callable) -> Callable:
        def decode(sketch, *args, **kwargs):
            # Attributed by identity against the delta encoders just built;
            # every other Fermat decode is a per-switch HH decode.
            hl, ll = self._delta
            part = "hl" if sketch is hl else "ll" if sketch is ll else None
            if part is None:
                return original(sketch, *args, **kwargs)
            start = time.perf_counter_ns()
            with self.tracer.span(f"controlplane.{part}_decode"):
                result = original(sketch, *args, **kwargs)
            counts = self.counts[self.epoch]
            counts[f"{part}_calls"] += 1
            counts[f"{part}_fails"] += not result.success
            if part == "hl":
                self.hl_decode_ms.append((self.epoch, (time.perf_counter_ns() - start) / 1e6))
            return result
        return decode

    def _scalar_tail(self, original: Callable) -> Callable:
        def decode_scalar(sketch, *args, **kwargs):
            self.counts[self.epoch]["scalar_tail"] += 1
            return original(sketch, *args, **kwargs)
        return decode_scalar

    def _mrac(self, original: Callable) -> Callable:
        def estimate_flow_size_distribution(*args, **kwargs):
            self.counts[self.epoch]["mrac"] += 1
            with self.tracer.span("sketches.mrac"):
                return original(*args, **kwargs)
        return estimate_flow_size_distribution


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, probe: LayerProbe, log, warmup: int, speed: float) -> Dict[str, Any]:
    """The per-layer metrics of one traced run, plus its stage profile.

    ``spans`` are every span the run produced, ``log`` is the run's
    :class:`epochloop.EpochLog`, and every time is multiplied by ``speed``,
    the run's factor to reference speed (as for the end-to-end times).
    """
    emitted = len(log.emitted_ns)
    timed = [s.to_dict() for s in spans if s.epoch is not None and warmup <= s.epoch < emitted]
    epochs = max(1, emitted - warmup)
    nodes = aggregate_spans(timed)
    total_ms: Dict[str, float] = defaultdict(float)
    for node in nodes:
        total_ms[node["name"]] += node["total_ms"]
    calls = Counter(s["name"] for s in timed)

    window = log.window
    counts: Counter = Counter()
    for epoch in range(window):
        counts.update(probe.counts.get(epoch, Counter()))
    window_tasks = sum(
        1 for s in spans if s.name == "tasks" and s.epoch is not None and s.epoch < window
    )
    hl_ms = [ms for epoch, ms in probe.hl_decode_ms if warmup <= epoch < emitted]
    waits = [
        (probe.run_epoch_ns[k] - log.emitted_ns[k - 1] - log.pause_ns[k - 1]) / 1e6
        for k in range(warmup, emitted)
    ]
    levels = log.levels
    per_epoch = lambda name: total_ms[name] / epochs  # noqa: E731
    metrics = {
        "stream.generate.ms_per_epoch": per_epoch("generate"),
        "stream.generate_wait.ms_per_epoch": statistics.fmean(waits) if waits else 0.0,
        "stream.sink.ms_per_epoch": per_epoch("stream.sink"),
        "network.simulate.ms_per_epoch": per_epoch("network.simulate"),
        "network.classify_encode.ms_per_epoch": per_epoch("classify_encode"),
        "network.loss_apply.ms_per_epoch": per_epoch("loss_apply"),
        "network.downstream_encode.ms_per_epoch": per_epoch("downstream_encode"),
        "dataplane.install.ms_per_epoch": per_epoch("dataplane.install"),
        "dataplane.collect.ms_per_epoch": per_epoch("dataplane.collect"),
        "controlplane.hh_decode.ms_per_epoch": per_epoch("controlplane.hh_decode"),
        "controlplane.hh_decode.calls_per_epoch": counts["hh_calls"] / window,
        "controlplane.hh_decode.fail_ratio": _ratio(counts["hh_fails"], counts["hh_calls"]),
        "controlplane.delta_build.ms_per_epoch": per_epoch("controlplane.delta_build"),
        "controlplane.hl_decode.ms_per_epoch": per_epoch("controlplane.hl_decode"),
        "controlplane.hl_decode.fail_ratio": _ratio(counts["hl_fails"], counts["hl_calls"]),
        "controlplane.hl_decode.ms_p50": statistics.median(hl_ms) if hl_ms else 0.0,
        "controlplane.hl_decode.ms_max": max(hl_ms, default=0.0),
        "controlplane.ll_decode.calls_per_epoch": counts["ll_calls"] / window,
        "controlplane.ll_decode.fail_ratio": _ratio(counts["ll_fails"], counts["ll_calls"]),
        "sketches.fermat.insert.calls_per_epoch": counts["fermat_insert"] / window,
        "sketches.fermat.scalar_tail.calls_per_epoch": counts["scalar_tail"] / window,
        "sketches.mrac.calls_per_epoch": counts["mrac"] / window,
        "sketches.mrac.ms_per_call": _ratio(total_ms["sketches.mrac"], calls["sketches.mrac"]),
        "controlplane.mrac_em.ms_per_epoch": per_epoch("mrac_em"),
        "controlplane.tasks.calls_per_epoch": window_tasks / window,
        "controlplane.snapshot.ms_per_epoch": per_epoch("snapshot"),
        "controlplane.reconfig.ms_per_epoch": per_epoch("reconfig"),
        "controlplane.level_changes": sum(a != b for a, b in zip(levels, levels[1:])),
        "controlplane.analyze.share": _ratio(total_ms["analyze"], total_ms["epoch"]),
    }
    metrics = {name: value * speed if ".ms_" in name else value
               for name, value in metrics.items()}
    stages = [
        {"stage": node["stage"], "self_ms_per_epoch": node["self_ms"] * speed / epochs,
         "count_per_epoch": node["count"] / epochs}
        for node in nodes
    ]
    return {"per_layer": metrics, "stages": stages}
