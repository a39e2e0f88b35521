"""The scenario catalog: every paper figure and ablation, declared once.

Each ``@scenario`` below is the single implementation of one figure of the
paper (or one DESIGN.md ablation).  The CLI (``python -m repro.cli run``),
the ``benchmarks/test_fig*.py`` suites, and the examples all execute these
definitions through :class:`repro.scenarios.SweepRunner` — there is no other
per-figure sweep loop in the repository.  Nor is there a second epoch loop:
the attention sweeps run ``ChameleMon.run_until_stable``, and Figure 9's
timeline runs on the streaming engine, built by the same helper as
``stream_timeline``'s.

Point functions are pure given ``(params, seed)`` and live at module top
level so the process-pool runner can dispatch them by scenario name.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from .registry import scenario

# --------------------------------------------------------------------------- #
# shared row shapes
# --------------------------------------------------------------------------- #
#: Schemes of the loss-detection figures, in the paper's presentation order.
LOSS_SCHEMES = ("fermat", "lossradar", "flowradar")


def _loss_detection_row(x_name: str, x_value: Any, measurements: Dict) -> Dict[str, Any]:
    row: Dict[str, Any] = {x_name: x_value}
    for scheme in LOSS_SCHEMES:
        measurement = measurements[scheme]
        row[f"{scheme}_bytes"] = measurement.memory_bytes
        row[f"{scheme}_ms"] = measurement.decode_milliseconds
        row[f"{scheme}_victims"] = len(measurement.detected_losses)
    return row


def _attention_row(point) -> Dict[str, Any]:
    return {
        "x_value": point.x_value,
        "flows": point.num_flows,
        "victim_ratio": point.victim_ratio,
        "level": point.level,
        "mem_hh": point.memory_division["hh"],
        "mem_hl": point.memory_division["hl"],
        "mem_ll": point.memory_division["ll"],
        "decoded_hh": point.decoded_flows["hh"],
        "decoded_hl": point.decoded_flows["hl"],
        "decoded_ll": point.decoded_flows["ll"],
        "threshold_high": point.threshold_high,
        "threshold_low": point.threshold_low,
        "sample_rate": point.sample_rate,
        "load_factor": point.load_factor,
        "loss_f1": point.loss_f1,
        "epochs_to_stabilise": point.epochs_to_stabilise,
    }


# --------------------------------------------------------------------------- #
# Figures 4-6: loss-detection overhead sweeps
# --------------------------------------------------------------------------- #
@scenario(
    "fig4",
    title="loss-detection overhead vs. number of victim flows",
    params=dict(
        flows=1000,
        victims=(200, 400, 600, 800, 1000),
        loss_rate=0.01,
        trials=2,
        victim_selection="largest",
    ),
    axis="victims",
    seed=4,
    smoke=dict(flows=150, victims=(20, 40), trials=1),
    tags=("figure", "loss-detection"),
)
def fig4_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figure 4: minimum memory and decode time as victims grow (fixed flows)."""
    from ..experiments.loss_detection import compare_schemes
    from ..traffic.generator import generate_caida_like_trace

    trace = generate_caida_like_trace(
        num_flows=params["flows"],
        victim_flows=min(params["victims"], params["flows"]),
        loss_rate=params["loss_rate"],
        victim_selection=params["victim_selection"],
        seed=seed,
    )
    measurements = compare_schemes(trace, trials=params["trials"], seed=seed)
    return [_loss_detection_row("victims", params["victims"], measurements)]


@scenario(
    "fig5",
    title="loss-detection overhead vs. victim packet-loss rate",
    params=dict(
        flows=1000,
        victims=100,
        loss_rate=(0.10, 0.20, 0.30, 0.40, 0.50),
        trials=2,
        victim_selection="largest",
    ),
    axis="loss_rate",
    seed=5,
    smoke=dict(flows=150, victims=20, loss_rate=(0.1, 0.3), trials=1),
    tags=("figure", "loss-detection"),
)
def fig5_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figure 5: overhead as the victims' loss rate sweeps 10-50 %."""
    from ..experiments.loss_detection import compare_schemes
    from ..traffic.generator import generate_caida_like_trace

    trace = generate_caida_like_trace(
        num_flows=params["flows"],
        victim_flows=min(params["victims"], params["flows"]),
        loss_rate=params["loss_rate"],
        victim_selection=params["victim_selection"],
        seed=seed,
    )
    measurements = compare_schemes(trace, trials=params["trials"], seed=seed)
    return [_loss_detection_row("loss_rate", params["loss_rate"], measurements)]


@scenario(
    "fig6",
    title="loss-detection overhead vs. total number of flows",
    params=dict(
        flows=(250, 500, 1000, 2000, 4000),
        victims=100,
        loss_rate=0.01,
        trials=2,
        victim_selection="largest",
    ),
    axis="flows",
    seed=6,
    smoke=dict(flows=(100, 200), victims=20, trials=1),
    tags=("figure", "loss-detection"),
)
def fig6_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figure 6: overhead as the total flow count sweeps (victims fixed)."""
    from ..experiments.loss_detection import compare_schemes
    from ..traffic.generator import generate_caida_like_trace

    trace = generate_caida_like_trace(
        num_flows=params["flows"],
        victim_flows=min(params["victims"], params["flows"]),
        loss_rate=params["loss_rate"],
        victim_selection=params["victim_selection"],
        seed=seed,
    )
    measurements = compare_schemes(trace, trials=params["trials"], seed=seed)
    return [_loss_detection_row("flows", params["flows"], measurements)]


# --------------------------------------------------------------------------- #
# Figures 7-9: shifting measurement attention
# --------------------------------------------------------------------------- #
@scenario(
    "fig7",
    title="measurement attention vs. number of flows",
    params=dict(
        workload="DCTCP",
        flows=(400, 800, 1600, 2400, 3200),
        victim_ratio=0.10,
        loss_rate=0.05,
        scale=0.05,
        max_epochs=6,
    ),
    axis="flows",
    seed=7,
    smoke=dict(flows=(150, 300), max_epochs=2),
    tags=("figure", "attention"),
)
def fig7_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figure 7: attention shifting as the flow count grows (DCTCP)."""
    from ..dataplane.config import SwitchResources
    from ..experiments.attention import stable_point

    point = stable_point(
        params["workload"],
        num_flows=params["flows"],
        victim_ratio=params["victim_ratio"],
        x_value=float(params["flows"]),
        resources=SwitchResources.scaled(params["scale"]),
        loss_rate=params["loss_rate"],
        seed=seed,
        max_epochs=params["max_epochs"],
    )
    return [_attention_row(point)]


@scenario(
    "fig8",
    title="measurement attention vs. victim-flow ratio",
    params=dict(
        workload="DCTCP",
        flows=1600,
        victim_ratio=(0.025, 0.05, 0.10, 0.175, 0.25),
        loss_rate=0.05,
        scale=0.05,
        max_epochs=6,
    ),
    axis="victim_ratio",
    seed=8,
    smoke=dict(flows=200, victim_ratio=(0.05, 0.2), max_epochs=2),
    tags=("figure", "attention"),
)
def fig8_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figure 8: attention shifting as the victim ratio grows (DCTCP)."""
    from ..dataplane.config import SwitchResources
    from ..experiments.attention import stable_point

    point = stable_point(
        params["workload"],
        num_flows=params["flows"],
        victim_ratio=params["victim_ratio"],
        x_value=100.0 * params["victim_ratio"],
        resources=SwitchResources.scaled(params["scale"]),
        loss_rate=params["loss_rate"],
        seed=seed,
        max_epochs=params["max_epochs"],
    )
    return [_attention_row(point)]


def _schedule_engine(params: Dict[str, Any], seed: int, **options):
    """The streaming engine over ``params``' ``(flows, victim_ratio)`` schedule.

    Returns the engine and the :class:`~repro.stream.MemorySink` that keeps
    its records.  fig9 and stream_timeline both run through it.
    """
    from ..dataplane.config import SwitchResources
    from ..stream import MemorySink, StreamingEngine, SyntheticSource

    source = SyntheticSource.from_schedule(
        tuple(tuple(stage) for stage in params["schedule"]),
        epochs_per_stage=params["epochs_per_stage"],
        loss_rate=params["loss_rate"],
        workload=params["workload"],
        seed=seed,
    )
    sink = MemorySink()
    engine = StreamingEngine(
        source,
        sinks=[sink],
        resources=SwitchResources.scaled(params["scale"]),
        seed=seed,
        **options,
    )
    return engine, sink


#: Record fields a Figure 9 row carries under the same name.
_FIG9_RECORD_FIELDS = (
    "level", "mem_hh", "mem_hl", "mem_ll",
    "threshold_high", "threshold_low", "sample_rate", "loss_f1",
)


def _epochs_to_settle(decided: List[Any]) -> int:
    """Epochs up to and including the first from which ``decided`` stays at its last value."""
    settled = len(decided) - 1
    while settled > 0 and decided[settled - 1] == decided[-1]:
        settled -= 1
    return settled + 1


@scenario(
    "fig9",
    title="measurement attention timeline over changing network state",
    params=dict(
        workload="DCTCP",
        schedule=(
            (400, 0.05),
            (800, 0.05),
            (1600, 0.10),
            (2400, 0.15),
            (2400, 0.25),
            (2400, 0.15),
            (1600, 0.10),
            (800, 0.05),
            (400, 0.05),
        ),
        epochs_per_stage=4,
        loss_rate=0.05,
        scale=0.05,
    ),
    seed=9,
    smoke=dict(schedule=((150, 0.05), (300, 0.15)), epochs_per_stage=2),
    tags=("figure", "attention"),
)
def fig9_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Figure 9: one long window across 8 network-state changes.

    The window runs on the streaming engine.  A stage's shift is how many of
    its epochs the controller took to settle: through the first epoch from
    which the configuration it decides stays at the stage's final one.
    """
    if params["epochs_per_stage"] < 1:
        raise ValueError("epochs_per_stage must be at least 1")
    engine, sink = _schedule_engine(params, seed)
    decided = []
    engine.run(record_hook=lambda epoch, record, result: decided.append(result.next_config))
    rows = [
        {
            "epoch": record["epoch"],
            "flows": record["num_flows"],
            "victim_ratio": engine.source.phase_at(record["epoch"]).victim_ratio,
            **{key: record[key] for key in _FIG9_RECORD_FIELDS},
        }
        for record in sink.records
    ]
    per_stage = params["epochs_per_stage"]
    shift_epochs = [
        _epochs_to_settle(decided[start:start + per_stage])
        for start in range(per_stage, len(decided), per_stage)
    ]
    return {
        "rows": rows,
        "extras": {
            "shift_epochs": shift_epochs,
            "max_shift_epochs": max(shift_epochs, default=0),
        },
    }


# --------------------------------------------------------------------------- #
# Figure 10: FermatSketch fingerprints (appendix A.4)
# --------------------------------------------------------------------------- #
def _fig10_success_rate(
    num_flows: int, buckets_per_flow: float, fingerprint_bits: int, trials: int, seed: int
) -> float:
    from ..sketches.registry import build
    from ..traffic.generator import generate_caida_like_trace

    if trials < 1:
        raise ValueError("trials must be at least 1")
    successes = 0
    per_array = max(1, int(num_flows * buckets_per_flow / 3))
    for trial in range(trials):
        trace = generate_caida_like_trace(num_flows=num_flows, seed=seed + trial)
        sketch = build(
            "fermat",
            buckets_per_array=per_array,
            num_arrays=3,
            seed=trial,
            fingerprint_bits=fingerprint_bits,
        )
        columns = trace.columns()
        sketch.insert_batch(columns.flow_ids, columns.sizes)
        if sketch.decode().success:
            successes += 1
    return successes / trials


@scenario(
    "fig10",
    title="FermatSketch decode success with/without 8-bit fingerprints",
    params=dict(
        flows=1000,
        buckets_per_flow=(1.17, 1.20, 1.23, 1.26, 1.29),
        trials=20,
        fingerprint_bits=8,
        plain_bucket_bytes=8,
        fp_bucket_bytes=9,
    ),
    axis="buckets_per_flow",
    seed=100,
    smoke=dict(flows=150, buckets_per_flow=(1.23, 1.35), trials=3),
    tags=("figure", "fermat"),
)
def fig10_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figure 10: success rate at equal buckets and at equal memory per flow."""
    buckets_per_flow = params["buckets_per_flow"]
    without_fp = _fig10_success_rate(
        params["flows"], buckets_per_flow, 0, params["trials"], seed
    )
    with_fp = _fig10_success_rate(
        params["flows"], buckets_per_flow, params["fingerprint_bits"], params["trials"], seed
    )
    # Same memory per flow: the fingerprint variant gets 8/9 of the buckets.
    same_memory_fp = _fig10_success_rate(
        params["flows"],
        buckets_per_flow * params["plain_bucket_bytes"] / params["fp_bucket_bytes"],
        params["fingerprint_bits"],
        params["trials"],
        seed,
    )
    return [
        {
            "buckets_per_flow": buckets_per_flow,
            "no_fp": without_fp,
            "fp_same_buckets": with_fp,
            "fp_same_memory": same_memory_fp,
        }
    ]


# --------------------------------------------------------------------------- #
# Figure 11: the six packet-accumulation tasks
# --------------------------------------------------------------------------- #
@scenario(
    "fig11",
    title="the six packet-accumulation tasks vs. memory",
    params=dict(
        flows=4000,
        memory_kb=(50, 100, 150),
        distribution_iterations=3,
    ),
    axis="memory_kb",
    seed=11,
    smoke=dict(flows=400, memory_kb=(20, 40), distribution_iterations=2),
    tags=("figure", "accumulation"),
)
def fig11_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figure 11 (a-f): Tower+Fermat vs. nine baselines at one memory budget."""
    from ..experiments.accumulation import evaluate_tasks
    from ..traffic.generator import generate_caida_like_trace

    first = generate_caida_like_trace(num_flows=params["flows"], seed=seed)
    second = generate_caida_like_trace(num_flows=params["flows"], seed=seed + 1)
    result = evaluate_tasks(
        first,
        second,
        memory_bytes=params["memory_kb"] * 1000,
        seed=seed,
        distribution_iterations=params["distribution_iterations"],
    )
    rows = []
    for metric, values in result.as_dict().items():
        for algorithm in sorted(values):
            rows.append(
                {
                    "memory_kb": params["memory_kb"],
                    "metric": metric,
                    "algorithm": algorithm,
                    "value": values[algorithm],
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figures 14-19: the other three workloads (appendix E)
# --------------------------------------------------------------------------- #
@scenario(
    "workloads",
    title="attention sweeps on the CACHE / VL2 / HADOOP workloads",
    params=dict(
        workload=("CACHE", "VL2", "HADOOP"),
        flow_counts=(400, 1600, 3200),
        victim_ratios=(0.05, 0.25),
        ratio_flows=1600,
        victim_ratio=0.10,
        loss_rate=0.05,
        scale=0.05,
        max_epochs=5,
    ),
    axis="workload",
    seed=14,
    smoke=dict(
        workload=("CACHE",),
        flow_counts=(150, 300),
        victim_ratios=(0.05, 0.2),
        ratio_flows=200,
        max_epochs=2,
    ),
    tags=("figure", "attention"),
)
def workloads_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Figures 14-19: the Figure 7/8 sweeps on one non-DCTCP workload."""
    from ..experiments.attention import sweep_num_flows, sweep_victim_ratio

    flows_sweep = sweep_num_flows(
        workload=params["workload"],
        flow_counts=params["flow_counts"],
        victim_ratio=params["victim_ratio"],
        loss_rate=params["loss_rate"],
        scale=params["scale"],
        max_epochs=params["max_epochs"],
        seed=seed,
    )
    ratio_sweep = sweep_victim_ratio(
        workload=params["workload"],
        victim_ratios=params["victim_ratios"],
        num_flows=params["ratio_flows"],
        loss_rate=params["loss_rate"],
        scale=params["scale"],
        max_epochs=params["max_epochs"],
        seed=seed + 1,
    )
    rows = []
    for point in flows_sweep.points:
        rows.append({"kind": "flows", "workload": params["workload"], **_attention_row(point)})
    for point in ratio_sweep.points:
        rows.append({"kind": "ratio", "workload": params["workload"], **_attention_row(point)})
    return rows


# --------------------------------------------------------------------------- #
# Figures 20-22: control-loop overheads (appendix F)
# --------------------------------------------------------------------------- #
@scenario(
    "overheads",
    title="control-loop response time, bandwidth, and reconfiguration model",
    params=dict(
        epochs_ms=(50, 100, 200, 400, 800, 1000),
        response_flows=(10_000, 40_000, 70_000, 100_000),
        workloads=("DCTCP", "CACHE", "VL2", "HADOOP"),
        live_flows=1200,
        include_live=True,
        reconfig_samples=200,
        live_scale=0.05,
    ),
    seed=20,
    smoke=dict(include_live=False, reconfig_samples=30),
    tags=("figure", "overheads"),
)
def overheads_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Figures 20-22: timing/bandwidth model plus the live Python controller."""
    from ..controlplane.analysis import packet_loss_detection
    from ..controlplane.timing import (
        CollectionModel,
        epoch_budget_ms,
        reconfiguration_time_cdf,
        response_time_ms,
    )
    from ..dataplane.config import EncoderLayout, MonitoringConfig, SwitchResources
    from ..network.simulator import build_testbed_simulator
    from ..traffic.generator import generate_workload

    if params["reconfig_samples"] < 1:
        raise ValueError("reconfig_samples must be at least 1")
    resources = SwitchResources()  # full testbed configuration for the model
    collection = CollectionModel(resources)
    rows: List[Dict[str, Any]] = []

    # Figure 20 (model): response time for the paper's network states.
    for num_flows in params["response_flows"]:
        hh_candidates = min(7000, num_flows // 12)
        hls = min(6000, num_flows // 10)
        rows.append(
            {
                "kind": "response_model",
                "flows": num_flows,
                "response_ms": response_time_ms(hh_candidates, hls, 500),
            }
        )

    # Figure 20 (live): wall-clock analysis time of this Python controller.
    if params["include_live"]:
        for workload in params["workloads"]:
            simulator = build_testbed_simulator(
                resources=SwitchResources.scaled(params["live_scale"]), seed=seed
            )
            trace = generate_workload(
                workload,
                num_flows=params["live_flows"],
                victim_ratio=0.1,
                loss_rate=0.05,
                num_hosts=simulator.topology.num_hosts,
                seed=seed,
            )
            simulator.run_epoch(trace)
            groups = {
                node: switch.end_epoch() for node, switch in simulator.switches.items()
            }
            start = time.perf_counter()
            packet_loss_detection(groups)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            rows.append(
                {"kind": "response_live", "workload": workload, "response_ms": elapsed_ms}
            )

    # Figure 21: collection bandwidth vs. epoch length.
    for epoch_ms in params["epochs_ms"]:
        rows.append(
            {
                "kind": "bandwidth",
                "epoch_ms": epoch_ms,
                "mbps": collection.bandwidth_mbps(epoch_ms),
            }
        )

    # Figure 22: CDF of reconfiguration time over random configurations.
    rng = random.Random(seed + 2)
    configs = []
    for _ in range(params["reconfig_samples"]):
        m_hl = rng.randrange(resources.min_hl_buckets, resources.downstream_buckets)
        m_ll = rng.randrange(0, resources.downstream_buckets - m_hl)
        configs.append(
            MonitoringConfig(
                layout=EncoderLayout(
                    m_hh=resources.upstream_buckets - m_hl - m_ll, m_hl=m_hl, m_ll=m_ll
                ),
                threshold_high=rng.randrange(1, 1000) + 1000,
                threshold_low=rng.randrange(1, 1000),
                sample_rate=rng.random(),
            )
        )
    cdf = reconfiguration_time_cdf(configs, seed=seed + 2)
    for quantile in (0.1, 0.5, 0.9):
        rows.append(
            {
                "kind": "reconfig_cdf",
                "quantile": quantile,
                "ms": cdf[int(quantile * (len(cdf) - 1))],
            }
        )

    budget = epoch_budget_ms(
        resources,
        num_hh_candidates=4000,
        num_heavy_losses=3000,
        num_sampled_light_losses=500,
        config=resources.initial_config(),
    )
    return {
        "rows": rows,
        "extras": {"epoch_budget_ms": dict(budget), "reconfiguration_cdf": list(cdf)},
    }


# --------------------------------------------------------------------------- #
# DESIGN.md ablations
# --------------------------------------------------------------------------- #
@scenario(
    "ablation_classifier",
    title="TowerSketch vs. Count-Min as the flow classifier",
    params=dict(flows=4000, memory_kb=(8, 16, 32)),
    axis="memory_kb",
    seed=40,
    smoke=dict(flows=400, memory_kb=(4, 8)),
    tags=("ablation",),
)
def ablation_classifier_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Classifier ARE on small flows: Tower vs. Count-Min at equal memory."""
    from ..metrics.accuracy import average_relative_error
    from ..sketches.registry import build
    from ..traffic.generator import generate_caida_like_trace

    trace = generate_caida_like_trace(num_flows=params["flows"], seed=seed)
    truth = trace.flow_sizes()
    memory_bytes = params["memory_kb"] * 1000
    tower = build("tower", memory_bytes=memory_bytes, seed=1)
    cm = build("cm", memory_bytes=memory_bytes, depth=3, seed=1)
    for flow, size in truth.items():
        tower.insert(flow, size)
        cm.insert(flow, size)
    capped_truth = {flow: size for flow, size in truth.items() if size < 255}
    return [
        {
            "memory_kb": params["memory_kb"],
            "tower_are": average_relative_error(
                capped_truth, {flow: tower.query(flow) for flow in capped_truth}
            ),
            "cm_are": average_relative_error(
                capped_truth, {flow: cm.query(flow) for flow in capped_truth}
            ),
        }
    ]


@scenario(
    "ablation_fermat",
    title="FermatSketch array count and load-factor ablations",
    params=dict(
        flows=1000,
        num_arrays=(2, 3, 4, 5),
        load_factors=(0.5, 0.6, 0.7, 0.75, 0.81, 0.9),
        trials=10,
        decode_trials=3,
        load_seed=300,
    ),
    seed=30,
    smoke=dict(flows=200, num_arrays=(2, 3), load_factors=(0.5, 0.9), trials=2),
    tags=("ablation", "fermat"),
)
def ablation_fermat_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Minimum buckets vs. d, and decode success vs. load factor (d = 3)."""
    from ..sketches.registry import build
    from ..sketches.fermat import FermatSketch, peeling_threshold
    from ..traffic.generator import generate_caida_like_trace

    if params["trials"] < 1 or params["decode_trials"] < 1:
        # Zero decode trials would pass every array size vacuously.
        raise ValueError("trials and decode_trials must be at least 1")
    num_flows = params["flows"]
    rows: List[Dict[str, Any]] = []

    trace = generate_caida_like_trace(num_flows=num_flows, seed=seed)
    for num_arrays in params["num_arrays"]:
        per_array = max(4, num_flows // num_arrays // 4)
        while True:
            ok = True
            for trial in range(params["decode_trials"]):
                sketch = build(
                    "fermat", buckets_per_array=per_array, num_arrays=num_arrays, seed=trial
                )
                columns = trace.columns()
                sketch.insert_batch(columns.flow_ids, columns.sizes)
                if not sketch.decode().success:
                    ok = False
                    break
            if ok:
                break
            per_array = int(per_array * 1.1) + 1
        buckets = per_array * num_arrays
        rows.append(
            {
                "kind": "arrays",
                "num_arrays": num_arrays,
                "buckets": buckets,
                "buckets_per_flow": buckets / num_flows,
                "theoretical_c_d": peeling_threshold(num_arrays),
            }
        )

    for load_factor in params["load_factors"]:
        successes = 0
        for trial in range(params["trials"]):
            load_trace = generate_caida_like_trace(
                num_flows=num_flows, seed=params["load_seed"] + trial
            )
            sketch = FermatSketch.for_flow_count(
                num_flows, load_factor=load_factor, seed=trial, fingerprint_bits=8
            )
            load_columns = load_trace.columns()
            sketch.insert_batch(load_columns.flow_ids, load_columns.sizes)
            if sketch.decode().success:
                successes += 1
        rows.append(
            {
                "kind": "load",
                "load_factor": load_factor,
                "success_rate": successes / params["trials"],
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Backend performance
# --------------------------------------------------------------------------- #
@scenario(
    "fabric_scale",
    title="large-fabric epochs over the data plane",
    params=dict(
        k=8,
        flows=1_000_000,
        epochs=3,
        victim_ratio=0.02,
        loss_rate=0.05,
        workload="DCTCP",
        scale=0.05,
    ),
    seed=5,
    smoke=dict(flows=3000, epochs=1),
    tags=("bench",),
)
def fabric_scale_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Epoch throughput on a k-ary fat-tree fabric at millions of flows.

    Flow IDs are uint64 (not 104-bit five-tuples) so the Fermat IDsums stay
    on the vectorized narrow-prime path — hence ``MERSENNE_PRIME_61``.
    """
    from ..core.runner import ChameleMon
    from ..dataplane.config import SwitchResources
    from ..network.topology import FatTreeSpec, FatTreeTopology
    from ..sketches.fermat import MERSENNE_PRIME_61
    from ..traffic.generator import generate_workload

    if params["epochs"] < 1:
        raise ValueError("epochs must be at least 1")
    system = ChameleMon(
        resources=SwitchResources.scaled(params["scale"]),
        seed=seed,
        prime=MERSENNE_PRIME_61,
        topology=FatTreeTopology(FatTreeSpec(k=params["k"])),
        history_limit=2,
        destructive_analysis=True,
    )
    rows = []
    for epoch in range(params["epochs"]):
        trace = generate_workload(
            params["workload"],
            num_flows=params["flows"],
            victim_ratio=params["victim_ratio"],
            loss_rate=params["loss_rate"],
            num_hosts=system.num_hosts,
            seed=seed + epoch,
            use_five_tuple=False,
        )
        start = time.perf_counter()
        result = system.run_epoch(trace)
        seconds = time.perf_counter() - start
        rows.append(
            {
                "epoch": epoch,
                "flows": len(trace),
                "packets": trace.num_packets(),
                "seconds": seconds,
                "epochs_per_s": 1.0 / max(seconds, 1e-9),
                "loss_f1": result.loss_accuracy()["f1"],
                "level": result.level.value,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Streaming telemetry (repro.stream)
# --------------------------------------------------------------------------- #
def _stream_output(records, summary) -> Dict[str, Any]:
    return {"rows": records, "extras": {"summary": summary.to_dict()}}


@scenario(
    "stream_timeline",
    title="streaming engine over a live schedule of network states",
    params=dict(
        workload="DCTCP",
        schedule=(
            (400, 0.05),
            (800, 0.10),
            (1600, 0.20),
            (800, 0.10),
            (400, 0.05),
        ),
        epochs_per_stage=4,
        loss_rate=0.05,
        scale=0.05,
        rolling_window=8,
    ),
    seed=50,
    smoke=dict(schedule=((150, 0.05), (300, 0.15)), epochs_per_stage=2),
    tags=("stream",),
)
def stream_timeline_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Figure 9's changing network state, driven through the streaming engine."""
    engine, sink = _schedule_engine(params, seed, rolling_window=params["rolling_window"])
    summary = engine.run()
    return _stream_output(sink.records, summary)


@scenario(
    "stream_failover",
    title="streaming engine through a link failure and recovery",
    params=dict(
        workload="DCTCP",
        flows=800,
        epochs=12,
        victim_ratio=0.05,
        loss_rate=0.05,
        fail_epoch=4,
        recover_epoch=8,
        fail_loss=0.5,
        fail_host=0,
        scale=0.05,
    ),
    seed=51,
    smoke=dict(flows=200, epochs=5, fail_epoch=2, recover_epoch=4),
    tags=("stream", "faults"),
)
def stream_failover_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A grey link failure appears mid-stream and recovers a few epochs later."""
    from ..dataplane.config import SwitchResources
    from ..network.topology import FatTreeTopology
    from ..stream import (
        LinkFailureEvent,
        LinkRecoveryEvent,
        MemorySink,
        StreamingEngine,
        SyntheticSource,
    )

    source = SyntheticSource.steady(
        num_flows=params["flows"],
        epochs=params["epochs"],
        victim_ratio=params["victim_ratio"],
        loss_rate=params["loss_rate"],
        workload=params["workload"],
        seed=seed,
    )
    topology = FatTreeTopology.testbed()
    if not 0 <= params["fail_host"] < topology.num_hosts:
        raise ValueError(f"fail_host must be in [0, {topology.num_hosts})")
    edge = topology.edge_switch_of_host(params["fail_host"])
    host = topology.host(params["fail_host"])
    events = [
        LinkFailureEvent(
            epoch=params["fail_epoch"],
            endpoint_a=edge,
            endpoint_b=host,
            loss_rate=params["fail_loss"],
        ),
        LinkRecoveryEvent(
            epoch=params["recover_epoch"], endpoint_a=edge, endpoint_b=host
        ),
    ]
    sink = MemorySink()
    engine = StreamingEngine(
        source,
        events=events,
        sinks=[sink],
        resources=SwitchResources.scaled(params["scale"]),
        seed=seed,
    )
    summary = engine.run()
    return _stream_output(sink.records, summary)


@scenario(
    "stream_multitenant",
    title="several tenant streams interleaved over one monitored fabric",
    params=dict(
        tenants=(
            ("DCTCP", 400, 0.05),
            ("CACHE", 300, 0.10),
            ("HADOOP", 200, 0.15),
        ),
        epochs=8,
        loss_rate=0.05,
        scale=0.05,
    ),
    seed=52,
    smoke=dict(tenants=(("DCTCP", 120, 0.05), ("CACHE", 80, 0.15)), epochs=3),
    tags=("stream",),
)
def stream_multitenant_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Multi-tenant merge: per-tenant phase schedules share the fabric."""
    from ..dataplane.config import SwitchResources
    from ..stream import MemorySink, MergeSource, StreamingEngine, SyntheticSource

    tenants = [
        SyntheticSource.steady(
            num_flows=int(num_flows),
            epochs=params["epochs"],
            victim_ratio=float(victim_ratio),
            loss_rate=params["loss_rate"],
            workload=str(workload),
            seed=seed + 1000 * index,
        )
        for index, (workload, num_flows, victim_ratio) in enumerate(params["tenants"])
    ]
    sink = MemorySink()
    engine = StreamingEngine(
        MergeSource(tenants),
        sinks=[sink],
        resources=SwitchResources.scaled(params["scale"]),
        seed=seed,
    )
    summary = engine.run()
    return _stream_output(sink.records, summary)


@scenario(
    "serve_churn",
    title="always-on service under a device state-diff churn feed",
    params=dict(
        workload="DCTCP",
        flows=600,
        epochs=16,
        victim_ratio=0.08,
        loss_rate=0.05,
        churn_period=4,
        gray_loss=0.5,
        shift_rate=0.2,
        interrupt_epoch=8,
        checkpoint_interval=2,
        f1_floor=0.85,
        alert_warmup=2,
        scale=0.05,
        rolling_window=4,
    ),
    seed=53,
    smoke=dict(flows=200, epochs=8, churn_period=3, interrupt_epoch=4),
    tags=("stream", "service"),
)
def serve_churn_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The telemetry service: churn diffs in, checkpoint mid-run, resume.

    Ingests a synthesized device state-diff feed, runs the service to an
    interrupt point, then resumes from the checkpoint and verifies the
    combined record stream is bit-identical to an uninterrupted run.  Rows
    are the (resumed) per-epoch records; extras carry the alert transitions
    and the identity verdict.
    """
    import os
    import tempfile

    from ..dataplane.config import SwitchResources
    from ..service import (
        AlertEngine,
        RollingF1Floor,
        TelemetryService,
        compile_state_diffs,
        synthesize_churn_diffs,
    )
    from ..stream import MemorySink, StreamingEngine, SyntheticSource
    from ..obs import comparable

    diffs = synthesize_churn_diffs(
        epochs=params["epochs"],
        period=params["churn_period"],
        gray_loss=params["gray_loss"],
        shift_rate=params["shift_rate"],
    )
    schedule = compile_state_diffs(diffs)

    def build(sink, alert_sink):
        source = SyntheticSource.steady(
            num_flows=params["flows"],
            epochs=params["epochs"],
            victim_ratio=params["victim_ratio"],
            loss_rate=params["loss_rate"],
            workload=params["workload"],
            seed=seed,
        )
        engine = StreamingEngine(
            source,
            events=schedule,
            sinks=[sink],
            resources=SwitchResources.scaled(params["scale"]),
            seed=seed,
            rolling_window=params["rolling_window"],
        )
        alerts = AlertEngine(
            [RollingF1Floor(params["f1_floor"], warmup=params["alert_warmup"])],
            sinks=[alert_sink],
        )
        return engine, alerts

    with tempfile.TemporaryDirectory(prefix="serve_churn_") as tmp:
        checkpoint = os.path.join(tmp, "serve_churn.rtck")
        # The uninterrupted reference run (no checkpointing).
        reference_sink = MemorySink()
        engine, alerts = build(reference_sink, MemorySink())
        TelemetryService(engine, alert_engine=alerts).run(
            max_epochs=params["epochs"]
        )
        # The service run: stop at the interrupt point, then resume.
        part_sink, resume_sink = MemorySink(), MemorySink()
        part_alerts, resume_alerts = MemorySink(), MemorySink()
        engine, alerts = build(part_sink, part_alerts)
        TelemetryService(
            engine,
            alert_engine=alerts,
            checkpoint_path=checkpoint,
            checkpoint_interval=params["checkpoint_interval"],
        ).run(max_epochs=params["interrupt_epoch"])
        engine, alerts = build(resume_sink, resume_alerts)
        summary = TelemetryService(
            engine,
            alert_engine=alerts,
            checkpoint_path=checkpoint,
            checkpoint_interval=params["checkpoint_interval"],
        ).run(max_epochs=params["epochs"], resume=True)

    combined = part_sink.records + resume_sink.records
    identical = [comparable(r) for r in combined] == [
        comparable(r) for r in reference_sink.records
    ]
    output = _stream_output(combined, summary)
    output["extras"]["resume_identical"] = identical
    output["extras"]["interrupt_epoch"] = params["interrupt_epoch"]
    output["extras"]["state_diffs"] = [diff.to_dict() for diff in diffs]
    output["extras"]["alerts"] = part_alerts.records + resume_alerts.records
    return output


@scenario(
    "serve_chaos",
    title="chaos-hardened service: injected faults, in-line recovery",
    params=dict(
        workload="DCTCP",
        flows=400,
        epochs=10,
        victim_ratio=0.08,
        loss_rate=0.05,
        sink_error_epoch=2,
        interrupt_epoch=6,
        corrupt_mode="bitflip",
        checkpoint_interval=2,
        keep_checkpoints=2,
        scale=0.05,
        rolling_window=4,
    ),
    seed=57,
    smoke=dict(flows=150, epochs=6, sink_error_epoch=1, interrupt_epoch=4),
    tags=("stream", "service", "chaos"),
)
def serve_chaos_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The service under deterministic chaos: sink error, corruption.

    Runs the service with two injected faults — a sink flush ``OSError`` at
    ``sink_error_epoch`` and corruption of the newest checkpoint at the
    ``interrupt_epoch`` boundary — then resumes fault-free.  The resume
    quarantines the corrupt checkpoint, falls back along the chain, and
    recomputes; the verdict asserts every recovery fired and the final JSONL
    record stream is bit-identical (per the ``TIMING_FIELDS`` contract) to a
    fault-free reference run.
    """
    import json as json_module
    import os
    import tempfile

    from ..chaos import FaultInjector
    from ..dataplane.config import SwitchResources
    from ..obs import comparable
    from ..service import TelemetryService
    from ..stream import JsonlSink, MemorySink, StreamingEngine, SyntheticSource

    def build(sink_path, chaos):
        source = SyntheticSource.steady(
            num_flows=params["flows"],
            epochs=params["epochs"],
            victim_ratio=params["victim_ratio"],
            loss_rate=params["loss_rate"],
            workload=params["workload"],
            seed=seed,
        )
        return StreamingEngine(
            source,
            sinks=[MemorySink(), JsonlSink(sink_path)],
            resources=SwitchResources.scaled(params["scale"]),
            seed=seed,
            rolling_window=params["rolling_window"],
            chaos=chaos,
        )

    spec = {
        "seed": seed,
        "faults": [
            {"kind": "sink_flush_error", "epoch": params["sink_error_epoch"]},
            {"kind": "checkpoint_corrupt", "epoch": params["interrupt_epoch"],
             "mode": params["corrupt_mode"]},
        ],
    }

    with tempfile.TemporaryDirectory(prefix="serve_chaos_") as tmp:
        checkpoint = os.path.join(tmp, "serve_chaos.rtck")
        ref_path = os.path.join(tmp, "ref.jsonl")
        out_path = os.path.join(tmp, "chaos.jsonl")
        # The fault-free reference run.
        TelemetryService(build(ref_path, None)).run(max_epochs=params["epochs"])
        # The chaos run up to the interrupt: the sink error is recovered
        # in-line; the final checkpoint is corrupted on disk.
        chaos = FaultInjector.from_spec(spec, default_seed=seed)
        TelemetryService(
            build(out_path, chaos),
            checkpoint_path=checkpoint,
            checkpoint_interval=params["checkpoint_interval"],
            keep_checkpoints=params["keep_checkpoints"],
        ).run(max_epochs=params["interrupt_epoch"])
        chaos_counts = chaos.monitor.snapshot()
        # The fault-free resume: quarantines the corrupt newest checkpoint,
        # falls back along the chain, rewinds the JSONL sink, recomputes.
        resume_service = TelemetryService(
            build(out_path, None),
            checkpoint_path=checkpoint,
            checkpoint_interval=params["checkpoint_interval"],
            keep_checkpoints=params["keep_checkpoints"],
        )
        summary = resume_service.run(max_epochs=params["epochs"], resume=True)
        resume_counts = resume_service.monitor.snapshot()
        quarantined = [
            name for name in sorted(os.listdir(tmp)) if name.endswith(".bad")
        ]
        with open(out_path) as handle:
            records = [json_module.loads(line) for line in handle]
        with open(ref_path) as handle:
            reference = [json_module.loads(line) for line in handle]

    identical = (
        [comparable(r) for r in records] == [comparable(r) for r in reference]
    )
    recovered = (
        chaos_counts["sink_retries"] >= 1
        and resume_counts["recoveries"].get("checkpoint", 0) >= 1
    )
    output = _stream_output(records, summary)
    output["extras"]["recovered"] = recovered
    output["extras"]["stream_identical"] = identical
    output["extras"]["chaos"] = chaos_counts
    output["extras"]["resume_chaos"] = resume_counts
    output["extras"]["quarantined"] = quarantined
    output["extras"]["verdict"] = "pass" if (recovered and identical) else "fail"
    return output


# --------------------------------------------------------------------------- #
# Full-system demo
# --------------------------------------------------------------------------- #
@scenario(
    "demo",
    title="run the full ChameleMon system for a few epochs",
    params=dict(
        workload="DCTCP",
        flows=1000,
        epochs=5,
        victim_ratio=0.10,
        loss_rate=0.05,
        scale=0.05,
    ),
    seed=0,
    smoke=dict(flows=150, epochs=2),
    tags=("demo",),
)
def demo_point(params: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """Per-epoch state of the full system on one workload."""
    from ..core import ChameleMon
    from ..dataplane.config import SwitchResources
    from ..traffic.generator import generate_workload

    if params["epochs"] < 1:
        raise ValueError("epochs must be at least 1")
    system = ChameleMon(resources=SwitchResources.scaled(params["scale"]), seed=seed)
    rows = []
    for epoch in range(params["epochs"]):
        trace = generate_workload(
            params["workload"],
            num_flows=params["flows"],
            victim_ratio=params["victim_ratio"],
            loss_rate=params["loss_rate"],
            num_hosts=system.num_hosts,
            seed=seed + epoch,
        )
        result = system.run_epoch(trace)
        rows.append(
            {
                "epoch": epoch,
                "level": result.level.value,
                "config": result.config.describe(),
                "loss_f1": result.loss_accuracy()["f1"],
            }
        )
    return rows
