"""Verdicts of compare.py under the bounds in BENCHMARK.json (no runs, no timing).

Accuracy metrics are deterministic for a scoring window, so two run sets of
the same code read identical values; any loss beyond the metric's bound must
read ``worse``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402

with open(compare.BENCHMARK_JSON, "r", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
#: Accuracy of overload-4000 on its scoring window, roughly as measured.
ACCURACY = {"loss_f1": 0.656, "hh_f1": 0.797, "fsd_wmre": 0.609, "decode_ok_ratio": 0.881}


def _run_set(path, metrics, runs=5):
    workload = {"attempted": 60, "failed": 0, "metrics": dict(metrics)}
    payload = {"machine": {}, "runs": [
        {"seed": 11, "seconds": 20, "traced": False, "workloads": {"overload-4000": workload}}
        for _ in range(runs)
    ]}
    path.write_text(json.dumps(payload))
    return str(path)


def _verdicts(reference, other):
    rows = [line.split() for line in compare.compare(reference, other, BENCHMARK)
            if line.startswith("overload-4000 ")]
    return {row[1]: row[-1] for row in rows}


@pytest.mark.parametrize("change", [0.05, 0.02])
@pytest.mark.parametrize("metric", sorted(ACCURACY))
def test_same_seed_accuracy_loss_reads_worse(tmp_path, metric, change):
    factor = 1 - change if BETTER[metric] == "higher" else 1 + change
    reference = _run_set(tmp_path / "a.json", ACCURACY)
    other = _run_set(tmp_path / "b.json", {**ACCURACY, metric: ACCURACY[metric] * factor})
    verdicts = _verdicts(reference, other)
    assert verdicts.pop(metric) == "worse"
    assert set(verdicts.values()) == {"unchanged"}


def test_identical_accuracy_reads_unchanged(tmp_path):
    reference = _run_set(tmp_path / "a.json", ACCURACY)
    other = _run_set(tmp_path / "b.json", ACCURACY)
    assert set(_verdicts(reference, other).values()) == {"unchanged"}
