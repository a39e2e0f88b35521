"""Tests for the repro.obs observability plane: metrics, tracing, exposition,
report aggregation, and the identity contract (traced == untraced)."""

import json
import urllib.request

import pytest

from repro.cli import main
from repro.dataplane.config import SwitchResources
from repro.obs import (
    DEFAULT_MS_BUCKETS,
    TIMING_FIELDS,
    Counter,
    EpochMetrics,
    Histogram,
    JsonlSpanSink,
    MetricError,
    MetricsRegistry,
    MetricsServer,
    NULL_TRACER,
    StageTracer,
    aggregate_spans,
    comparable,
    comparable_checkpoint,
    comparable_records,
    load_spans,
    prometheus_text,
    render_report,
    report_dict,
    snapshot,
    stage_millis,
    write_snapshot,
)
from repro.stream import MemorySink, StreamingEngine, SyntheticSource

RESOURCES = SwitchResources.scaled(0.05)


def make_engine(source, **kwargs):
    return StreamingEngine(
        source, resources=RESOURCES, seed=3, **kwargs
    )


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labeled_children_are_independent(self):
        counter = MetricsRegistry().counter("c_total", labels=("part",))
        counter.labels(part="hh").inc(2)
        counter.labels(part="hl").inc(5)
        assert dict(counter.samples()) != {}
        assert counter.labels(part="hh").value == 2
        assert counter.labels(part="hl").value == 5

    def test_unlabeled_access_on_labeled_family_rejected(self):
        counter = MetricsRegistry().counter("c_total", labels=("part",))
        with pytest.raises(MetricError):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        counter = MetricsRegistry().counter("c_total", labels=("part",))
        with pytest.raises(MetricError):
            counter.labels(site="0")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_observe_lands_in_upper_bound_inclusive_bucket(self):
        hist = MetricsRegistry().histogram("h_ms", buckets=(1.0, 5.0, 10.0))
        for value in (0.2, 1.0, 3.0, 100.0):
            hist.observe(value)
        child = hist._unlabeled()
        # value == edge counts in that bucket (Prometheus convention).
        assert child.bucket_counts == [2, 1, 0, 1]
        assert child.count == 4
        assert child.sum == pytest.approx(104.2)

    def test_cumulative_buckets_end_with_inf(self):
        hist = MetricsRegistry().histogram("h_ms", buckets=(1.0, 5.0))
        hist.observe(0.5)
        hist.observe(50.0)
        buckets = hist._unlabeled().cumulative_buckets()
        assert buckets == [(1.0, 1), (5.0, 1), (float("inf"), 2)]

    def test_unsorted_edges_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("c_total") is reg.counter("c_total")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(MetricError):
            reg.gauge("m")

    def test_label_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m", labels=("part",))
        with pytest.raises(MetricError):
            reg.counter("m", labels=("site",))

    def test_invalid_name_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("bad name")

    def test_collect_preserves_registration_order(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        reg.gauge("b")
        reg.histogram("c_ms")
        assert [m.name for m in reg.collect()] == ["a_total", "b", "c_ms"]


class TestEpochMetrics:
    def test_observe_populates_standard_instruments(self):
        reg = MetricsRegistry()
        instruments = EpochMetrics(reg)
        record = {
            "epoch": 0, "num_flows": 100, "packets": 5000, "lost_packets": 40,
            "level": 2, "rolling_f1": 0.9, "rolling_are": 0.1,
            "wall_ms": 12.0, "decode_ms": 4.0,
        }
        instruments.observe(record, decode_success={"hh": True, "hl": False})
        assert reg.get("repro_epochs_total").value == 1
        assert reg.get("repro_packets_total").value == 5000
        assert reg.get("repro_lost_packets_total").value == 40
        assert reg.get("repro_decode_success_total").labels(part="hh").value == 1
        assert reg.get("repro_decode_failure_total").labels(part="hl").value == 1
        assert reg.get("repro_level_epochs_total").labels(level=2).value == 1
        assert reg.get("repro_rolling_f1").value == pytest.approx(0.9)
        assert reg.get("repro_epoch_wall_ms").count == 1


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class TestStageTracer:
    def test_spans_nest_into_hierarchical_paths(self):
        tracer = StageTracer()
        with tracer.span("epoch"):
            with tracer.span("simulate"):
                with tracer.span("loss_apply"):
                    pass
            with tracer.span("analyze"):
                pass
        paths = sorted("/".join(s.path) for s in tracer.drain())
        assert paths == [
            "epoch", "epoch/analyze", "epoch/simulate", "epoch/simulate/loss_apply",
        ]

    def test_durations_are_positive_and_nested_spans_fit_in_parent(self):
        tracer = StageTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {s.name: s for s in tracer.drain()}
        assert spans["inner"].duration_ns >= 0
        assert spans["outer"].duration_ns >= spans["inner"].duration_ns

    def test_set_epoch_stamps_spans(self):
        tracer = StageTracer()
        tracer.set_epoch(7)
        with tracer.span("epoch"):
            pass
        (span,) = tracer.drain()
        assert span.epoch == 7

    def test_explicit_epoch_wins_over_current(self):
        tracer = StageTracer()
        tracer.set_epoch(3)
        with tracer.span("generate", epoch=4):
            pass
        (span,) = tracer.drain()
        assert span.epoch == 4

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything"):
            pass
        NULL_TRACER.set_epoch(5)
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.enabled is False

    def test_stage_millis_totals_by_path(self):
        tracer = StageTracer()
        for _ in range(2):
            with tracer.span("epoch"):
                pass
        millis = stage_millis(tracer.drain())
        assert set(millis) == {"epoch"}
        assert millis["epoch"] >= 0.0


class TestJsonlSpanSink:
    def test_round_trips_through_load_spans(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = StageTracer()
        tracer.set_epoch(0)
        with tracer.span("epoch"):
            with tracer.span("simulate"):
                pass
        sink = JsonlSpanSink(path)
        sink.write(tracer.drain())
        sink.close()
        spans = load_spans(path)
        assert ["/".join(s["path"]) for s in spans] == ["epoch/simulate", "epoch"]
        assert all(s["epoch"] == 0 for s in spans)

    def test_one_compact_json_object_per_line(self, tmp_path):
        tracer = StageTracer()
        drained = []
        for epoch in (0, 1):
            tracer.set_epoch(epoch)
            with tracer.span("epoch"):
                with tracer.span("decode"):
                    pass
            drained.append(tracer.drain())
        first, second = drained
        path = tmp_path / "spans.jsonl"
        sink = JsonlSpanSink(str(path))
        sink.write(iter(first))
        sink.write(second)
        sink.close()
        expected = "".join(
            json.dumps(span.to_dict(), separators=(",", ":")) + "\n"
            for span in first + second
        )
        assert path.read_text(encoding="utf-8") == expected

    def test_empty_write_creates_no_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSpanSink(str(path))
        sink.write([])
        sink.close()
        assert not path.exists()


# --------------------------------------------------------------------------- #
# exposition
# --------------------------------------------------------------------------- #
class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(3)
        reg.gauge("g", "a gauge").set(1.5)
        text = prometheus_text(reg)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert "c_total 3" in text
        assert "g 1.5" in text

    def test_labeled_samples(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("part",)).labels(part="hh").inc()
        assert 'c_total{part="hh"} 1' in prometheus_text(reg)

    def test_histogram_exposition_is_cumulative_with_inf(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_ms", buckets=(1.0, 5.0))
        hist.observe(0.5)
        hist.observe(3.0)
        hist.observe(99.0)
        text = prometheus_text(reg)
        assert 'h_ms_bucket{le="1"} 1' in text
        assert 'h_ms_bucket{le="5"} 2' in text
        assert 'h_ms_bucket{le="+Inf"} 3' in text
        assert "h_ms_count 3" in text

    def test_snapshot_histogram_structure(self):
        reg = MetricsRegistry()
        reg.histogram("h_ms", buckets=(1.0,)).observe(0.5)
        (sample,) = snapshot(reg)
        assert sample["type"] == "histogram"
        assert sample["count"] == 1
        assert sample["buckets"][-1]["le"] == "+Inf"

    def test_write_snapshot_jsonl(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        path = tmp_path / "metrics.jsonl"
        write_snapshot(str(path), reg)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "name": "c_total", "type": "counter", "labels": {}, "value": 1.0,
        }


class TestMetricsServer:
    def test_serves_metrics_json_and_healthz(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(2)
        server = MetricsServer(reg, port=0)
        try:
            assert server.port > 0
            text = urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5).read().decode()
            assert "c_total 2" in text
            sample = json.loads(urllib.request.urlopen(
                f"{server.url}/metrics.json", timeout=5).read().decode())
            assert sample["name"] == "c_total"
            health = urllib.request.urlopen(
                f"{server.url}/healthz", timeout=5).read()
            assert health == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = MetricsServer(MetricsRegistry(), port=0)
        server.close()
        server.close()


# --------------------------------------------------------------------------- #
# report aggregation
# --------------------------------------------------------------------------- #
def _span(path, duration_ms, epoch=0):
    return {
        "name": path[-1], "path": list(path), "epoch": epoch,
        "start_ns": 0, "duration_ns": int(duration_ms * 1e6),
    }


class TestReport:
    def test_self_time_is_total_minus_children(self):
        spans = [
            _span(("epoch",), 10.0),
            _span(("epoch", "simulate"), 6.0),
            _span(("epoch", "analyze"), 3.0),
        ]
        nodes = {n["stage"]: n for n in aggregate_spans(spans)}
        assert nodes["epoch"]["total_ms"] == pytest.approx(10.0)
        assert nodes["epoch"]["self_ms"] == pytest.approx(1.0)
        assert nodes["epoch/simulate"]["self_ms"] == pytest.approx(6.0)

    def test_counts_and_means_accumulate_across_epochs(self):
        spans = [_span(("epoch",), 4.0, epoch=e) for e in range(3)]
        (node,) = aggregate_spans(spans)
        assert node["count"] == 3
        assert node["total_ms"] == pytest.approx(12.0)
        assert node["mean_ms"] == pytest.approx(4.0)
        assert node["pct"] == pytest.approx(100.0)

    def test_siblings_sorted_by_descending_total(self):
        spans = [
            _span(("epoch",), 10.0),
            _span(("epoch", "small"), 1.0),
            _span(("epoch", "big"), 8.0),
        ]
        stages = [n["stage"] for n in aggregate_spans(spans)]
        assert stages == ["epoch", "epoch/big", "epoch/small"]

    def test_missing_parent_synthesized_with_zero_self(self):
        spans = [_span(("epoch", "simulate", "loss_apply"), 2.0)]
        nodes = {n["stage"]: n for n in aggregate_spans(spans)}
        assert nodes["epoch"]["count"] == 0
        assert nodes["epoch"]["self_ms"] == pytest.approx(0.0)
        assert nodes["epoch"]["total_ms"] == pytest.approx(2.0)

    def test_render_and_dict(self):
        spans = [_span(("epoch",), 5.0), _span(("epoch", "simulate"), 2.0)]
        nodes = aggregate_spans(spans)
        text = render_report(nodes)
        assert "stage" in text and "self ms" in text and "  simulate" in text
        payload = report_dict(nodes)
        assert payload["total_ms"] == pytest.approx(5.0)
        assert len(payload["stages"]) == 2

    def test_render_empty(self):
        assert render_report([]) == "(no spans)"


# --------------------------------------------------------------------------- #
# identity contract: traced/metered runs are bit-identical to plain ones
# --------------------------------------------------------------------------- #
def _run(seed, observed=False, epochs=3, tmp_path=None):
    source = SyntheticSource.steady(
        num_flows=120, epochs=epochs, victim_ratio=0.1, loss_rate=0.1, seed=seed
    )
    sink = MemorySink()
    kwargs = {}
    if observed:
        kwargs = {
            "tracer": StageTracer(),
            "metrics": MetricsRegistry(),
            "span_sink": (
                JsonlSpanSink(str(tmp_path / f"s{seed}.jsonl"))
                if tmp_path is not None else None
            ),
        }
    engine = StreamingEngine(
        source, sinks=[sink], resources=RESOURCES, seed=seed, **kwargs,
    )
    engine.run()
    return sink.records


class TestIdentity:
    @pytest.mark.parametrize("seed", [1, 9])
    def test_tracing_and_metrics_do_not_perturb_records(self, seed, tmp_path):
        plain = _run(seed)
        observed = _run(seed, observed=True, tmp_path=tmp_path)
        assert comparable_records(observed) == comparable_records(plain)
        # The traced run actually measured something extra.
        assert all("timing" in record for record in observed)
        assert all("timing" not in record for record in plain)
        assert all("timing" not in comparable(r) for r in observed)

    def test_timing_subdict_covers_pipeline_stages(self, tmp_path):
        records = _run(2, observed=True, tmp_path=tmp_path)
        timing = records[-1]["timing"]
        for stage in ("epoch", "epoch/simulate", "epoch/analyze",
                      "epoch/analyze/decode", "epoch/analyze/mrac_em"):
            assert stage in timing
            assert timing[stage] >= 0.0

    def test_traced_checkpoints_match_untraced(self, tmp_path):
        from repro.service import TelemetryService, read_checkpoint

        states = []
        for observed in (False, True):
            source = SyntheticSource.steady(
                num_flows=100, epochs=3, victim_ratio=0.1, loss_rate=0.1, seed=4
            )
            kwargs = (
                {"tracer": StageTracer(), "metrics": MetricsRegistry()}
                if observed else {}
            )
            engine = StreamingEngine(
                source, resources=RESOURCES, seed=4, **kwargs
            )
            path = str(tmp_path / f"ck{int(observed)}.rtck")
            service = TelemetryService(engine, checkpoint_path=path)
            service.run()
            states.append(read_checkpoint(path))
        plain, observed_state = states
        assert comparable_checkpoint(observed_state) == comparable_checkpoint(plain)
        # written_at is the wall-clock annotation the comparison strips.
        assert "written_at" in plain["meta"]

    def test_file_sink_checkpoints_match(self, tmp_path):
        """Two identical runs into different JSONL files checkpoint alike:
        the sink's path and byte offset (the lines carry wall_ms) are not
        compared, its kind is."""
        from repro.service import TelemetryService, read_checkpoint
        from repro.stream import JsonlSink

        states = []
        for run in range(2):
            source = SyntheticSource.steady(
                num_flows=100, epochs=3, victim_ratio=0.1, loss_rate=0.1, seed=4
            )
            engine = make_engine(
                source, sinks=[JsonlSink(str(tmp_path / f"run{run}.jsonl"))]
            )
            path = str(tmp_path / f"ck{run}.rtck")
            TelemetryService(engine, checkpoint_path=path).run()
            states.append(read_checkpoint(path))
        first, second = states
        assert first["sinks"][0]["path"] != second["sinks"][0]["path"]
        assert comparable_checkpoint(first) == comparable_checkpoint(second)
        assert comparable_checkpoint(first)["sinks"] == [{"kind": "jsonl"}]


# --------------------------------------------------------------------------- #
# one clock: wall_ms, decode_ms and timing come from the epoch's spans
# --------------------------------------------------------------------------- #
class TestOneClock:
    def _records(self, tracer=None, epochs=4, seed=6):
        source = SyntheticSource.steady(
            num_flows=150, epochs=epochs, victim_ratio=0.1, loss_rate=0.1, seed=seed
        )
        sink = MemorySink()
        engine = StreamingEngine(
            source, sinks=[sink], resources=RESOURCES, seed=seed, tracer=tracer,
        )
        engine.run()
        return sink.records, engine

    @pytest.mark.parametrize("enclosing", [False, True], ids=["bare", "enclosed"])
    def test_wall_and_decode_ms_are_the_epoch_spans(self, enclosing):
        tracer = StageTracer()
        if enclosing:
            with tracer.span("serve"):
                records, _ = self._records(tracer)
        else:
            records, _ = self._records(tracer)
        epoch = "serve/epoch" if enclosing else "epoch"
        decode = f"{epoch}/analyze/decode"
        for record in records:
            timing = record["timing"]
            assert f"{decode}/hh_decode" in timing
            assert record["wall_ms"] == pytest.approx(timing[epoch])
            assert record["decode_ms"] == pytest.approx(sum(
                timing.get(f"{decode}/{stage}", 0.0)
                for stage in ("hh_decode", "hl_decode", "ll_decode")
            ))

    def test_untraced_engine_drains_its_private_tracer(self):
        records, engine = self._records(epochs=30, seed=7)
        assert len(records) == 30
        # At most the generate span of the epoch after the source ended.
        assert engine._tracer.pending <= 1


# --------------------------------------------------------------------------- #
# engine and service integration
# --------------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_engine_populates_registry(self):
        reg = MetricsRegistry()
        source = SyntheticSource.steady(
            num_flows=100, epochs=2, victim_ratio=0.1, loss_rate=0.1, seed=1
        )
        make_engine(source, metrics=reg).run()
        assert reg.get("repro_epochs_total").value == 2
        assert reg.get("repro_flows_total").value == 200
        assert reg.get("repro_epoch_wall_ms").count == 2
        assert reg.get("repro_encoder_budget_bytes").value > 0

    def test_timing_fields_constant_is_shared(self):
        from repro.stream.engine import TIMING_FIELDS as engine_fields

        assert engine_fields is TIMING_FIELDS
        assert "timing" in TIMING_FIELDS and "wall_ms" in TIMING_FIELDS

    def test_metrics_port_requires_registry(self):
        from repro.service import TelemetryService

        source = SyntheticSource.steady(num_flows=50, epochs=1, seed=1)
        engine = make_engine(source)
        with pytest.raises(ValueError):
            TelemetryService(engine, metrics_port=0)

    def test_service_serves_live_metrics_and_counts_alert_transitions(self):
        import threading

        from repro.service import AlertEngine, RollingF1Floor, TelemetryService

        reg = MetricsRegistry()
        source = SyntheticSource.steady(
            num_flows=100, epochs=4, victim_ratio=0.1, loss_rate=0.1, seed=2
        )
        engine = make_engine(source, metrics=reg)
        # An impossible floor so the rule fires on the first evaluated epoch.
        service = TelemetryService(
            engine,
            alert_engine=AlertEngine([RollingF1Floor(2.0)]),
            metrics_port=0,
        )
        scraped = {}

        def scrape():
            while service.metrics_server is None:
                pass
            url = f"{service.metrics_server.url}/metrics"
            scraped["text"] = urllib.request.urlopen(url, timeout=5).read().decode()

        thread = threading.Thread(target=scrape)
        thread.start()
        service.run()
        thread.join(timeout=10)
        assert "repro_epochs_total" in scraped["text"]
        assert service.metrics_server is None  # closed on shutdown
        transitions = reg.get("repro_alert_transitions_total")
        assert transitions.labels(rule="rolling_f1_floor", status="firing").value == 1


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestCli:
    def test_serve_spans_metrics_and_perf_report(self, capsys, tmp_path):
        spans_path = str(tmp_path / "spans.jsonl")
        metrics_path = str(tmp_path / "metrics.jsonl")
        assert main([
            "serve", "--epochs", "2", "--quiet", "--phases", "150:0.05:2",
            "--spans", spans_path, "--metrics", metrics_path,
        ]) == 0
        capsys.readouterr()
        names = {json.loads(line)["name"]
                 for line in open(metrics_path, encoding="utf-8")}
        assert "repro_epochs_total" in names and "repro_epoch_wall_ms" in names

        report_path = str(tmp_path / "report.json")
        assert main(["perf", "report", spans_path, "--json", report_path]) == 0
        out = capsys.readouterr().out
        assert "mrac_em" in out and "self ms" in out
        payload = json.loads(open(report_path, encoding="utf-8").read())
        assert payload["epochs"] == 2
        assert any(s["stage"] == "epoch/analyze/decode" for s in payload["stages"])

    def test_perf_report_missing_file_fails_cleanly(self, capsys):
        assert main(["perf", "report", "/nonexistent/spans.jsonl"]) == 2
        assert "cannot read spans" in capsys.readouterr().err

    def test_perf_report_empty_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["perf", "report", str(path)]) == 2
        assert "no spans" in capsys.readouterr().err

    def test_serve_metrics_snapshot(self, capsys, tmp_path):
        metrics_path = str(tmp_path / "metrics.jsonl")
        assert main([
            "serve", "--epochs", "2", "--quiet", "--phases", "150:0.05:2",
            "--metrics", metrics_path,
        ]) == 0
        capsys.readouterr()
        names = {json.loads(line)["name"]
                 for line in open(metrics_path, encoding="utf-8")}
        assert "repro_epochs_total" in names
