#!/usr/bin/env python3
"""Compare run sets of the benchmark, metric by metric and workload by workload.

    python3 perf/compare.py A.json B.json [C.json ...]

Each file is a run set written by ``run.py --out`` (``perf/baseline.json`` is
one).  The first is the reference (the parent commit); every later file is
compared with it.  For each (workload, end-to-end metric) pair the table shows
each side's median and quartiles over its untraced runs, the share of pairs
(run i of A against run i of B) that B wins, and a verdict:

* ``improved``   -- B wins at least 9 of 10 pairs, over at least 10 pairs, and
  the medians differ by more than A's own quartile spread;
* ``worse``      -- B's median is worse than A's by more than the metric's
  bound in BENCHMARK.json, and both sides' spreads are within the bound;
* ``unresolved`` -- a side's run-to-run spread (quartile distance over the
  median) is wider than the bound, unless every run of B reads better than
  every run of A;
* ``unchanged``  -- otherwise.

It also prints each side's share of failed epochs, and for traced runs the
per-layer metrics and the per-stage self-time delta.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """The verdict for B against A, and the share of pairs B wins."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_b - med_a)
    if len(pairs) >= CLAIM_PAIRS and win_share >= CLAIM_WIN_SHARE and gain > q3 - q1:
        return "improved", win_share
    every_run_better = min(sign * y for y in b) > max(sign * x for x in a)
    if max(relative_spread(a), relative_spread(b)) > bound and not every_run_better:
        return "unresolved", win_share
    if med_a and -gain / abs(med_a) > bound:
        return "worse", win_share
    return "unchanged", win_share


def values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["metrics"][metric]
        for run in runs
        if workload in run["workloads"] and metric in run["workloads"][workload].get("metrics", {})
    ]


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def end_to_end_table(a: List[Dict[str, Any]], b: List[Dict[str, Any]],
                     declared: List[Dict[str, Any]]) -> List[str]:
    lines = [f"{'workload':<20} {'metric':<16} {'A median [q1, q3]':<30} "
             f"{'B median [q1, q3]':<30} {'change':>8} {'B wins':>7}  verdict"]
    workloads = [w for w in a[0]["workloads"] if any(w in run["workloads"] for run in b)]
    for workload in workloads:
        for metric in declared:
            va, vb = values(a, workload, metric["name"]), values(b, workload, metric["name"])
            if not va or not vb:
                continue
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(va), quartiles(vb)
            result, wins = verdict(va, vb, metric["better"], metric["bound"])
            change = (mb - ma) / abs(ma) if ma else 0.0
            lines.append(
                f"{workload:<20} {metric['name']:<16} "
                f"{_fmt(ma) + ' [' + _fmt(qa1) + ', ' + _fmt(qa3) + ']':<30} "
                f"{_fmt(mb) + ' [' + _fmt(qb1) + ', ' + _fmt(qb3) + ']':<30} "
                f"{change:>+8.2%} {wins:>7.0%}  {result}"
            )
    return lines


def failed_share(runs: List[Dict[str, Any]]) -> str:
    attempted = sum(e["attempted"] for run in runs for e in run["workloads"].values())
    failed = sum(e["failed"] for run in runs for e in run["workloads"].values())
    return f"{failed}/{attempted} epochs failed ({failed / attempted if attempted else 0:.2%})"


def traced_tables(a: List[Dict[str, Any]], b: List[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    for workload in a[0]["workloads"]:
        if not any(workload in run["workloads"] for run in b):
            continue
        lines.append(f"\n{workload}: per-layer metrics (medians over traced runs)")
        layer_names = list(a[0]["workloads"][workload].get("metrics", {}))
        for name in layer_names:
            va, vb = values(a, workload, name), values(b, workload, name)
            if va and vb:
                ma, mb = statistics.median(va), statistics.median(vb)
                lines.append(f"  {name:<46} {_fmt(ma):>10} -> {_fmt(mb):>10}  ({mb - ma:+.4g})")
        stages_a = _stage_medians(a, workload)
        stages_b = _stage_medians(b, workload)
        lines.append(f"{workload}: self ms per epoch by stage (A -> B, largest change first)")
        rows = sorted(set(stages_a) | set(stages_b),
                      key=lambda s: -abs(stages_b.get(s, 0.0) - stages_a.get(s, 0.0)))
        for stage in rows:
            sa, sb = stages_a.get(stage, 0.0), stages_b.get(stage, 0.0)
            lines.append(f"  {stage:<60} {sa:>9.3f} -> {sb:>9.3f}  ({sb - sa:+.3f})")
    return lines


def _stage_medians(runs: List[Dict[str, Any]], workload: str) -> Dict[str, float]:
    per_stage: Dict[str, List[float]] = {}
    for run in runs:
        for node in run["workloads"].get(workload, {}).get("stages", []):
            per_stage.setdefault(node["stage"], []).append(node["self_ms_per_epoch"])
    return {stage: statistics.median(v) for stage, v in per_stage.items()}


def compare(reference: str, other: str, benchmark: Dict[str, Any]) -> List[str]:
    runs_a, runs_b = load_runs(reference), load_runs(other)
    plain_a = [r for r in runs_a if not r["traced"]]
    plain_b = [r for r in runs_b if not r["traced"]]
    lines = [f"A = {reference} ({len(plain_a)} untraced runs)",
             f"B = {other} ({len(plain_b)} untraced runs)"]
    if plain_a and plain_b:
        lines += end_to_end_table(plain_a, plain_b, benchmark["end_to_end"])
        lines += [f"A: {failed_share(plain_a)}", f"B: {failed_share(plain_b)}"]
    traced_a = [r for r in runs_a if r["traced"]]
    traced_b = [r for r in runs_b if r["traced"]]
    if traced_a and traced_b:
        lines += traced_tables(traced_a, traced_b)
    return lines


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reference", help="run set of the parent (A)")
    parser.add_argument("others", nargs="+", help="run sets to compare with it (B ...)")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    for other in args.others:
        print("\n".join(compare(args.reference, other, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
