#!/usr/bin/env python3
"""Run the repository benchmark: print every metric with its unit, check outputs.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out PATH] [--smoke]

Each workload runs in its own fresh process (``epochloop.py``) with one
BLAS thread, so it uses at most two threads: the main loop and the streaming
engine's generation worker.  ``setup_s`` is measured from just before a
process starts to the moment the deployment is built and the first trace is
ready; it is the median over the measuring process itself and
:data:`SETUP_PROBES` set-up-only processes run one after another when the
measuring process has ended.

Shared machines change speed by 1.4-1.9x over seconds to minutes, so the
gated times are at a fixed reference speed: each wall time is scaled by the
time of a fixed interpreter loop measured alongside it (see
``epochloop.reference_loop``).  The wall-clock figures are printed too,
marked ``(info)``.

``--trace`` (or ``--trace 1``) instead runs the workload twice: once untraced
for exactly its scoring window, once traced for ``--seconds``, and prints the
per-layer metrics.  Both runs must emit identical records (same digest).

``--smoke`` runs every selected workload for 3 epochs in this process,
traced and untraced, with no timing; the tier-1 smoke test uses it.

Every line but the last reads ``<workload> <metric> <value> <unit>``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` (epochs)
and ``metrics``.  ``--out PATH`` appends the whole invocation to a run-set
file that ``compare.py`` reads.  The exit code is 1 when a check failed (the
result line still reads ``"correct": false``), and non-zero without a result
line when a workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from epochloop import (  # noqa: E402
    WARMUP_EPOCHS,
    WORKLOADS,
    at_reference_speed,
    ensure_source,
    measure,
)

#: Set-up-only processes run after the measuring process.
SETUP_PROBES = 5
#: Every invocation must finish within this many seconds per workload.
WORKLOAD_DEADLINE_S = 170.0
SMOKE_EPOCHS = 3

#: Informational values printed and saved next to the declared metrics.
INFO = {
    "epoch_ms_p90": "ms",
    "wall_epochs_per_s": "epochs/s",
    "wall_epoch_ms_p50": "ms",
    "wall_epoch_ms_p90": "ms",
    "wall_setup_s": "s",
    "reference_ms": "ms",
    "loss_are": "ratio",
    "decode_fail_ratio": "ratio",
    "epochs_timed": "count",
    "samples_beyond_p90": "count",
    "window_epochs": "count",
    "setup_samples": "count",
}


def load_benchmark(path: str = BENCHMARK_JSON) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def quantile(values: List[float], q: float) -> float:
    """The q-quantile (statistics.quantiles' exclusive method; needs 2+ values)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    """The declared end-to-end metrics of one measured run."""
    norm_ms = result["epoch_norm_ms"]
    # The rate counts the window's epochs only: their traffic is fixed, so
    # every run meets the same slow failing decodes, which the median ignores.
    window_ms = norm_ms[:result["window"] - WARMUP_EPOCHS]
    accuracy = result["accuracy"]
    return {
        "epochs_per_s": 1000.0 * len(window_ms) / sum(window_ms),
        "epoch_ms_p50": statistics.median(norm_ms),
        "setup_s": statistics.median(
            at_reference_speed(s["setup_s"], s["reference_ms"]) for s in result["setups"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "loss_f1": accuracy["loss_f1"],
        "hh_f1": accuracy["hh_f1"],
        "fsd_wmre": accuracy["fsd_wmre"],
        "decode_ok_ratio": accuracy["decode_ok_ratio"],
    }


def info(result: Dict[str, Any]) -> Dict[str, float]:
    ms, norm_ms = result["epoch_ms"], result["epoch_norm_ms"]
    p90 = quantile(norm_ms, 0.90)
    return {
        "epoch_ms_p90": p90,
        "wall_epochs_per_s": 1000.0 * len(ms) / sum(ms),
        "wall_epoch_ms_p50": statistics.median(ms),
        "wall_epoch_ms_p90": quantile(ms, 0.90),
        "wall_setup_s": statistics.median(s["setup_s"] for s in result["setups"]),
        "reference_ms": result["reference_ms"],
        "loss_are": result["accuracy"]["loss_are"],
        "decode_fail_ratio": result["accuracy"]["decode_fail_ratio"],
        "epochs_timed": len(ms),
        "samples_beyond_p90": sum(value > p90 for value in norm_ms),
        "window_epochs": result["window"],
        "setup_samples": len(result["setups"]),
    }


# --------------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------------- #
def _child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``epochloop.py`` in a fresh process and return its JSON result."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "epochloop.py"), *args]
    t0 = time.perf_counter_ns()
    process = subprocess.Popen(command + ["--t0-ns", str(t0)], cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"workload process timed out: {' '.join(args)}")
    if process.returncode != 0:
        raise RuntimeError(f"workload process exited with {process.returncode}: {' '.join(args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Measure one workload in fresh processes; return its metrics and checks."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    if traced:
        plain = _child(base + ["--trace", "0"], deadline)
        result = _child(base + ["--trace", "1", "--seconds", str(seconds)], deadline)
        return _traced_entry(plain, result)
    result = _child(base + ["--seconds", str(seconds)], deadline)
    probes = [_child(base + ["--probe"], deadline) for _ in range(SETUP_PROBES)]
    return _plain_entry(result, probes)


def _plain_entry(result: Dict[str, Any], probes: List[Dict[str, float]]) -> Dict[str, Any]:
    entry = {key: result[key] for key in ("correct", "attempted", "failed", "problems", "digest")}
    if result["epoch_ms"] and result["accuracy"] and "setup" in result:
        result["setups"] = [result["setup"], *probes]
        entry["metrics"] = end_to_end(result)
        entry["info"] = info(result)
    else:
        entry["correct"] = False
    return entry


def _traced_entry(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    # Both passes ran the window; compare their cost over its timed epochs.
    timed = max(1, plain["window"] - WARMUP_EPOCHS)
    problems = plain["problems"] + traced["problems"]
    if plain["digest"] != traced["digest"]:
        problems.append("traced records differ from untraced records")
    entry = {
        "correct": not problems,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "digest": traced["digest"],
    }
    if "per_layer" in traced and plain["epoch_norm_ms"] and traced["epoch_norm_ms"]:
        metrics = dict(traced["per_layer"])
        metrics["obs.trace_overhead_ratio"] = (
            statistics.fmean(plain["epoch_norm_ms"][:timed])
            / statistics.fmean(traced["epoch_norm_ms"][:timed])
        )
        entry.update(metrics=metrics, stages=traced["stages"], spans=traced["spans_path"])
    else:
        entry["correct"] = False
    return entry


def smoke_workload(name: str, seed: int) -> Dict[str, Any]:
    """Both passes of one workload in this process, for a few epochs, untimed."""
    plain = measure(name, seed, 0.0, traced=False, window=SMOKE_EPOCHS)
    traced = measure(name, seed, 0.0, traced=True, window=SMOKE_EPOCHS)
    entry = _plain_entry(plain, probes=[])
    traced_entry = _traced_entry(plain, traced)
    if not traced_entry["correct"]:
        entry["correct"] = False
        entry["problems"] = entry["problems"] + traced_entry["problems"]
    entry["layer_metrics"] = traced_entry.get("metrics", {})
    entry["traced_digest"] = traced["digest"]
    return entry


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def declared(benchmark: Dict[str, Any], traced: bool) -> Dict[str, str]:
    section = benchmark["per_layer" if traced else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def machine() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def append_run(path: str, run: Dict[str, Any]) -> None:
    """Add one invocation to a run-set file (created when missing)."""
    runs: Dict[str, Any] = {"machine": machine(), "runs": []}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            runs = json.load(handle)
    runs["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11, help="trace seed (default 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: print the per-layer metrics")
    parser.add_argument("--out", help="append this invocation to a run-set JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_EPOCHS} epochs per workload in-process, untimed")
    args = parser.parse_args(argv)
    ensure_source()
    benchmark = load_benchmark()
    names = args.workload or list(WORKLOADS)
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    traced = bool(args.trace)
    units = declared(benchmark, traced)

    entries: Dict[str, Dict[str, Any]] = {}
    for name in names:
        try:
            if args.smoke:
                entries[name] = smoke_workload(name, args.seed)
            else:
                entries[name] = run_workload(name, args.seed, seconds, traced)
        except RuntimeError as error:
            print(f"perf: {name}: {error}", file=sys.stderr)
            return 1
    if args.smoke:
        print(json.dumps({name: {"correct": e["correct"], "problems": e["problems"]}
                          for name, e in entries.items()}))
        return 0 if all(e["correct"] for e in entries.values()) else 1

    flat: Dict[str, Dict[str, Any]] = {}
    for name, entry in entries.items():
        metrics = entry.get("metrics", {})
        if metrics and set(metrics) != set(units):
            raise SystemExit(f"perf: {name} emitted {sorted(metrics)}, declared {sorted(units)}")
        for metric, value in metrics.items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            flat[key] = {"value": value, "unit": units[metric]}
        for metric, value in entry.get("info", {}).items():
            print(f"{name} {metric} {value:.6g} {INFO[metric]} (info)")
        print(f"{name} epochs attempted {entry['attempted']} failed {entry['failed']}")
        print(f"{name} records sha256 {entry['digest']}")
        for problem in entry["problems"]:
            print(f"{name} problem: {problem}")
    if args.out:
        append_run(args.out, {"seed": args.seed, "seconds": seconds, "traced": traced,
                              "workloads": entries})
    correct = all(e["correct"] for e in entries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": flat,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
