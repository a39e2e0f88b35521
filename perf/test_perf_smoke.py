"""Smoke test of the benchmark: declarations, checks and tracing, no timing.

Every workload runs for a few epochs in this process through the same code
path as a measured run (``run.py --smoke``), traced and untraced.  Nothing
here asserts a speed: wall-clock gates do not belong in tier-1.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
from epochloop import WORKLOADS, ensure_source  # noqa: E402

ensure_source()
from layers import MOVES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = run.load_benchmark()


def test_benchmark_json_is_well_formed():
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert BENCHMARK["paths"] == ["perf"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    seen = set(names)
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for metric in BENCHMARK[section]:
            assert set(metric) == keys, metric
            assert NAME.fullmatch(metric["name"]), metric
            assert metric["name"] not in seen, metric
            seen.add(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
            if section == "end_to_end":
                assert 0 < metric["bound"] <= 0.25, metric
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_layer_metric_names_what_it_moves():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(MOVES) == {m["name"] for m in BENCHMARK["per_layer"]}
    for layer_metric, moves in MOVES.items():
        for metric, workload in moves:
            assert metric in end_to_end, (layer_metric, metric)
            assert workload in WORKLOADS, (layer_metric, workload)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke_run_is_correct_and_trace_neutral(name):
    entry = run.smoke_workload(name, seed=11)
    assert entry["correct"], entry["problems"]
    assert entry["failed"] == 0 and entry["attempted"] == run.SMOKE_EPOCHS
    assert entry["traced_digest"] == entry["digest"]
    assert set(entry["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(entry["layer_metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for value in list(entry["metrics"].values()) + list(entry["layer_metrics"].values()):
        assert isinstance(value, (int, float)) and value == value  # finite numbers, no NaN
    json.dumps(entry)  # the run-set files must be able to hold it
