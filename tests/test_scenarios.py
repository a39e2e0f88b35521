"""Tests for the scenario registry, sweep runner, and result serialization."""

import json

import pytest

from repro.scenarios import (
    RunResult,
    Scenario,
    SweepResult,
    SweepRunner,
    get_scenario,
    iter_scenarios,
    run_scenario,
    scenario_names,
)
from repro.scenarios.results import normalize_output, rows_to_csv
from repro.scenarios.spec import ScenarioError, coerce

#: Figures every registry round-trip test must cover (the full catalog).
EXPECTED_SCENARIOS = {
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "workloads", "overheads", "ablation_classifier", "ablation_fermat",
    "fabric_scale", "demo",
    "stream_timeline", "stream_failover", "stream_multitenant",
    "serve_chaos",
}


class TestRegistry:
    def test_catalog_covers_every_figure(self):
        assert EXPECTED_SCENARIOS <= set(scenario_names())

    def test_get_unknown_scenario_lists_names(self):
        with pytest.raises(KeyError, match="fig4"):
            get_scenario("not_a_scenario")

    def test_iter_scenarios_is_sorted(self):
        names = [spec.name for spec in iter_scenarios()]
        assert names == sorted(names)

    def test_every_scenario_declares_smoke_or_is_cheap(self):
        for spec in iter_scenarios():
            # Every catalog entry must be runnable at tiny sizes in CI.
            assert isinstance(spec.smoke, dict)

    def test_axis_must_be_a_parameter(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", title="x", func=lambda p, s: [], params={}, axis="nope")

    def test_axis_default_must_be_a_sequence(self):
        with pytest.raises(ScenarioError):
            Scenario(
                name="x", title="x", func=lambda p, s: [], params={"a": 3}, axis="a"
            )


class TestParameterHandling:
    def test_unknown_override_rejected(self):
        spec = get_scenario("fig4")
        with pytest.raises(ScenarioError, match="no parameter"):
            spec.merged_params({"bogus": 1})

    def test_string_coercion_scalar_and_list(self):
        spec = get_scenario("fig4")
        params = spec.merged_params({"flows": "250", "victims": "10,20,30"})
        assert params["flows"] == 250
        assert params["victims"] == (10, 20, 30)

    def test_scalar_axis_override_becomes_single_point(self):
        spec = get_scenario("fig4")
        points = spec.sweep_points({"victims": 40})
        assert len(points) == 1
        assert points[0]["victims"] == 40

    def test_bad_string_raises(self):
        with pytest.raises(ScenarioError):
            coerce("abc", 3, name="flows")

    def test_coerce_float_and_bool(self):
        assert coerce("0.5", 1.0) == 0.5
        assert coerce("true", False) is True
        assert coerce("0", True) is False

    def test_seed_policies(self):
        spec = get_scenario("fig4")
        assert spec.point_seed(None, 3) == spec.seed  # shared policy
        offset = Scenario(
            name="o", title="o", func=lambda p, s: [], params={}, seed=10,
            seed_policy="offset",
        )
        assert [offset.point_seed(None, i) for i in range(3)] == [10, 11, 12]
        assert offset.point_seed(100, 2) == 102


class TestNormalizeOutput:
    def test_list_of_rows(self):
        rows, extras = normalize_output([{"a": 1}])
        assert rows == [{"a": 1}] and extras == {}

    def test_single_row_dict(self):
        rows, extras = normalize_output({"a": 1})
        assert rows == [{"a": 1}] and extras == {}

    def test_rows_and_extras(self):
        rows, extras = normalize_output({"rows": [{"a": 1}], "extras": {"b": 2}})
        assert rows == [{"a": 1}] and extras == {"b": 2}

    def test_bad_output_rejected(self):
        with pytest.raises(TypeError):
            normalize_output(42)


class TestSerialization:
    def test_csv_unions_columns(self):
        text = rows_to_csv([{"a": 1}, {"b": 2}])
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"
        assert lines[2] == ",2"

    def test_run_result_round_trip(self, tmp_path):
        result = RunResult(
            scenario="x", params={"victims": (1, 2)}, seed=3,
            rows=[{"a": 1.5}], extras={"ok": True}, wall_seconds=0.1,
        )
        payload = json.loads(result.to_json())
        assert payload["params"]["victims"] == [1, 2]
        assert payload["rows"] == [{"a": 1.5}]
        path = tmp_path / "result.json"
        result.to_json(path=str(path))
        assert json.loads(path.read_text())["scenario"] == "x"


#: Tiny per-scenario overrides: every registered scenario must run fast and
#: produce a schema-valid, JSON/CSV-serializable result (registry round-trip).
@pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
def test_registry_round_trip(name):
    spec = get_scenario(name)
    result = run_scenario(name, overrides=spec.smoke)
    assert isinstance(result, SweepResult)
    assert result.scenario == name
    assert result.points, "scenario produced no sweep points"
    for point in result.points:
        assert isinstance(point, RunResult)
        assert point.scenario == name
        assert point.rows, "sweep point produced no rows"
        assert all(isinstance(row, dict) and row for row in point.rows)
        assert point.wall_seconds >= 0.0
        assert isinstance(point.params, dict)
    # Round-trips: dict -> json -> parse, and CSV with a header line.
    payload = json.loads(result.to_json())
    assert payload["scenario"] == name
    assert len(payload["points"]) == len(result.points)
    csv_lines = result.to_csv().splitlines()
    assert len(csv_lines) == 1 + len(result.rows())


def _toy_point(params, seed):
    """Module-level so the process pool can pickle it by reference."""
    return [{"x": params["x"], "seed": seed, "double": params["x"] * 2}]


class TestSweepRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_unregistered_scenario_runs_serially(self):
        spec = Scenario(
            name="adhoc", title="ad hoc", func=_toy_point,
            params={"x": (1, 2, 3)}, axis="x", seed=5,
        )
        result = SweepRunner().run(spec)
        assert [row["x"] for row in result.rows()] == [1, 2, 3]
        assert all(row["seed"] == 5 for row in result.rows())

    def test_unregistered_scenario_runs_in_parallel(self):
        spec = Scenario(
            name="adhoc", title="ad hoc", func=_toy_point,
            params={"x": (1, 2, 3, 4)}, axis="x", seed=0, seed_policy="offset",
        )
        serial = SweepRunner(jobs=1).run(spec)
        parallel = SweepRunner(jobs=3).run(spec)
        assert serial.rows() == parallel.rows()
        assert [row["seed"] for row in parallel.rows()] == [0, 1, 2, 3]

    def test_explicit_seed_reaches_every_point(self):
        result = run_scenario(
            "fig4", overrides=dict(flows=120, victims=(10, 20), trials=1), seed=123
        )
        assert [point.seed for point in result.points] == [123, 123]
        assert result.seed == 123

    @pytest.mark.parametrize("name", ["fig7", "fig11"])
    def test_serial_and_parallel_rows_identical(self, name):
        """--jobs 4 must be bit-identical to the serial run (per ISSUE 3)."""
        spec = get_scenario(name)
        serial = run_scenario(name, overrides=spec.smoke, jobs=1)
        parallel = run_scenario(name, overrides=spec.smoke, jobs=4)
        assert len(serial.points) >= 2, "need a real sweep to exercise the pool"
        assert serial.rows() == parallel.rows()
        assert [p.seed for p in serial.points] == [p.seed for p in parallel.points]
        assert [p.params for p in serial.points] == [p.params for p in parallel.points]
        assert [p.extras for p in serial.points] == [p.extras for p in parallel.points]
