"""Tests for the observability layer (:mod:`repro.obs`) and the
redesigned diagnostics surface it feeds.

Covers span nesting and the Chrome ``trace_event`` round-trip, metrics
merging across forked worker processes, the disabled-mode no-op
contract, the Newton success-path observability record, and the
:class:`RunTelemetry` serialisation contract.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import warnings

import numpy as np
import pytest

from repro import obs
from repro.obs import clock
from repro.obs.metrics import BUCKET_BOUNDS, Metrics
from repro.obs.telemetry import (
    RunTelemetry,
    load_telemetry,
    telemetry_report,
)
from repro.obs.tracer import NULL_SPAN, Tracer, validate_chrome_trace

pytestmark = pytest.mark.tier1


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


# ---------------------------------------------------------------------------
# Tracer: span nesting and Chrome round-trip.

class TestTracer:
    def test_span_nesting_depths(self):
        with clock.fake() as fk:
            tracer = Tracer()
            with tracer.span("outer"):
                fk.advance(1.0)
                with tracer.span("inner"):
                    fk.advance(0.5)
                fk.advance(0.25)
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].duration == pytest.approx(0.5)
        assert by_name["outer"].duration == pytest.approx(1.75)
        # Inner closes before outer, so it is recorded first.
        assert [r.name for r in tracer.records] == ["inner", "outer"]

    def test_span_attributes_reach_args(self):
        tracer = Tracer()
        with tracer.span("solve", unknowns=4) as span:
            span.set(iterations=np.int64(7))
        (record,) = tracer.records
        assert record.args["unknowns"] == 4
        assert record.args["iterations"] == 7

    def test_chrome_round_trip(self, tmp_path):
        with clock.fake() as fk:
            tracer = Tracer()
            with tracer.span("spice.newton"):
                fk.advance(0.001)
            tracer.instant("marker", note="hi")
        path = tmp_path / "trace.json"
        tracer.write(path)
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        events = {e["name"]: e for e in document["traceEvents"]}
        assert events["spice.newton"]["ph"] == "X"
        assert events["spice.newton"]["dur"] == pytest.approx(1000.0)
        assert events["spice.newton"]["cat"] == "spice"
        assert events["marker"]["ph"] == "i"

    def test_jsonl_export_by_suffix(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["name"] == "a"
        assert lines[0]["duration_s"] >= 0.0

    def test_validate_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) == ["missing 'traceEvents' list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "ts": -1}]})
        assert any("name" in p for p in problems)
        assert any("phase" in p for p in problems)
        assert any("ts" in p for p in problems)

    def test_complete_records_supervisor_timed_span(self):
        with clock.fake(start=100.0):
            tracer = Tracer()
            tracer.complete("resilience.job", 101.0, 2.5, key=3)
        (record,) = tracer.records
        assert record.start == pytest.approx(1.0)
        assert record.duration == pytest.approx(2.5)

    def test_by_name_aggregates(self):
        with clock.fake() as fk:
            tracer = Tracer()
            for _ in range(3):
                with tracer.span("x"):
                    fk.advance(1.0)
        summary = tracer.by_name()
        assert summary["x"]["count"] == 3
        assert summary["x"]["total_s"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Metrics: registry semantics and cross-process merge.

def _worker_snapshot(queue):
    registry = Metrics()
    registry.inc("jobs.completed", 2)
    registry.observe("latency", 0.5)
    registry.set("depth", 4.0)
    queue.put(registry.snapshot())


class TestMetrics:
    def test_counter_histogram_gauge(self):
        registry = Metrics()
        registry.inc("n")
        registry.inc("n", 2.0)
        registry.set("g", 7.0)
        for value in (1e-5, 0.5, 2000.0):
            registry.observe("h", value)
        snap = registry.snapshot()
        assert snap["counters"]["n"] == 3.0
        assert snap["gauges"]["g"] == 7.0
        hist = snap["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["min"] == pytest.approx(1e-5)
        assert hist["max"] == pytest.approx(2000.0)
        assert sum(hist["buckets"]) == 3
        assert len(hist["buckets"]) == len(BUCKET_BOUNDS) + 1

    def test_counters_reject_negative(self):
        with pytest.raises(ValueError):
            Metrics().inc("n", -1.0)

    def test_merge_adds_counters_and_histograms(self):
        a = Metrics()
        a.inc("n", 1)
        a.observe("h", 1.0)
        b = Metrics()
        b.inc("n", 2)
        b.observe("h", 3.0)
        b.set("g", 9.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n"] == 3.0
        assert snap["gauges"]["g"] == 9.0
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["total"] == pytest.approx(4.0)
        assert snap["histograms"]["h"]["min"] == pytest.approx(1.0)
        assert snap["histograms"]["h"]["max"] == pytest.approx(3.0)

    def test_merge_across_forked_workers(self):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork start method unavailable")
        queue = context.Queue()
        workers = [context.Process(target=_worker_snapshot, args=(queue,))
                   for _ in range(3)]
        for worker in workers:
            worker.start()
        snapshots = [queue.get(timeout=30) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
        merged = Metrics.merged(snapshots).snapshot()
        assert merged["counters"]["jobs.completed"] == 6.0
        assert merged["histograms"]["latency"]["count"] == 3
        assert merged["gauges"]["depth"] == 4.0

    def test_thread_safety_under_contention(self):
        registry = Metrics()

        def hammer():
            for _ in range(500):
                registry.inc("n")
                registry.observe("h", 0.1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["counters"]["n"] == 2000.0
        assert snap["histograms"]["h"]["count"] == 2000


# ---------------------------------------------------------------------------
# Disabled mode: everything is a cheap no-op.

class TestDisabledNoOp:
    def test_helpers_do_nothing_when_off(self):
        assert not obs.enabled()
        assert obs.span("x") is NULL_SPAN
        obs.inc("n")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 1.0)
        obs.instant("marker")
        obs.complete_span("x", 0.0, 1.0)
        snap = obs.metrics().snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}

    def test_null_span_is_inert_and_falsy(self):
        with obs.span("x") as span:
            span.set(a=1)
        assert not span
        span.close()

    def test_enable_disable_round_trip(self):
        tracer = obs.enable()
        assert obs.enabled()
        with obs.span("x"):
            pass
        obs.inc("n")
        obs.disable()
        assert not obs.enabled()
        assert tracer.records[0].name == "x"
        assert obs.metrics().snapshot()["counters"]["n"] == 1.0
        obs.inc("n")  # no-op again
        assert obs.metrics().snapshot()["counters"]["n"] == 1.0

    def test_enable_tracing_exports_and_restores(self, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        with obs.enable_tracing(trace_path=trace_path,
                                metrics_path=metrics_path):
            assert obs.enabled()
            with obs.span("block"):
                pass
            obs.inc("n")
        assert not obs.enabled()
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        assert json.loads(metrics_path.read_text())["counters"]["n"] == 1.0

    def test_profiled_decorator(self):
        @obs.profiled(name="unit.square")
        def square(x):
            return x * x

        assert square(3) == 9  # disabled: plain call
        obs.enable()
        assert square(4) == 16
        snap = obs.metrics().snapshot()
        assert snap["counters"]["profile.unit.square.calls"] == 1.0
        assert snap["histograms"]["profile.unit.square.seconds"]["count"] == 1
        assert any(r.name == "profile.unit.square"
                   for r in obs.tracer().records)


# ---------------------------------------------------------------------------
# FakeClock.

class TestClock:
    def test_fake_clock_drives_both_sources(self):
        with clock.fake(start=10.0) as fk:
            assert clock.monotonic() == 10.0
            assert clock.wall() == 10.0
            fk.advance(2.5)
            assert clock.monotonic() == 12.5
        assert clock.monotonic() != 12.5  # real clock restored

    def test_fake_clock_rejects_backwards(self):
        with clock.fake() as fk:
            with pytest.raises(ValueError):
                fk.advance(-1.0)


# ---------------------------------------------------------------------------
# Newton success path carries iterations/residual (satellite fix).

class TestNewtonInfo:
    def test_clean_success_attaches_info(self):
        from repro.spice.newton import solve_newton_detailed

        def assemble(x):
            # f(x) = x^2 - 4 -> root at 2; Jacobian 2x.
            jacobian = np.array([[2.0 * x[0]]])
            rhs = jacobian @ x - np.array([x[0] ** 2 - 4.0])
            return jacobian, rhs

        x, info = solve_newton_detailed(assemble, np.array([1.0]))
        assert x[0] == pytest.approx(2.0)
        assert info.stage == "plain"
        assert not info.recovered
        assert info.iterations > 0
        assert np.isfinite(info.residual)

    def test_success_records_metrics(self):
        from repro.spice.newton import solve_newton

        def assemble(x):
            jacobian = np.array([[2.0 * x[0]]])
            rhs = jacobian @ x - np.array([x[0] ** 2 - 4.0])
            return jacobian, rhs

        obs.enable()
        solve_newton(assemble, np.array([1.0]))
        snap = obs.metrics().snapshot()
        assert snap["counters"]["newton.solves"] == 1.0
        assert snap["histograms"]["newton.iterations"]["count"] == 1
        assert snap["histograms"]["newton.residual"]["count"] == 1


# ---------------------------------------------------------------------------
# RunTelemetry: contract + deprecation shims.

class TestRunTelemetry:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            RunTelemetry(4)  # positional construction is banned

    def test_json_round_trip_ignores_unknown_keys(self):
        telemetry = RunTelemetry(n_cells=4, counts={"ok": 4},
                                 timings={"total": 1.5})
        data = json.loads(telemetry.to_json())
        data["from_the_future"] = True
        rebuilt = RunTelemetry.from_dict(data)
        assert rebuilt.n_cells == 4
        assert rebuilt.counts == {"ok": 4}
        assert rebuilt.timings == {"total": 1.5}

    def test_save_load_and_report(self, tmp_path):
        telemetry = RunTelemetry(
            n_cells=2, counts={"ok": 1, "failed": 1}, complete=False,
            errors=[{"cell": 1, "status": "failed", "error": "boom",
                     "details": {}}],
            kernel={"M1": {"candidates": 10, "accepted": 2,
                           "acceptance_ratio": 0.2, "rate_bound": 1e9,
                           "fallback": None}},
            timings={"total": 0.5},
            metrics={"counters": {"newton.solves": 3.0}})
        path = tmp_path / "telemetry.json"
        telemetry.save(path)
        assert load_telemetry(path).counts == telemetry.counts
        report = telemetry_report(path)
        assert "newton.solves" in report
        assert "M1" in report
        assert "boom" in report

    def test_analysis_unknown_name_raises(self):
        import repro.analysis as analysis

        with pytest.raises(AttributeError):
            analysis.does_not_exist

    def test_api_exports_observability_surface(self):
        from repro import api

        for name in ("Tracer", "Metrics", "enable_tracing", "profiled",
                     "RunTelemetry", "telemetry_report",
                     "validate_chrome_trace", "compute_welch_psd",
                     "compute_autocorrelation", "compute_dwell_summary"):
            assert name in api.__all__
            assert getattr(api, name) is not None


# ---------------------------------------------------------------------------
# End to end: an instrumented ensemble run.

class TestEnsembleTelemetry:
    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.core.ensemble import EnsembleConfig, EnsembleRunner

        config = EnsembleConfig(n_cells=2, screen_threshold=1e9,
                                margin_samples=0, workers=0)
        tracer = obs.enable()
        try:
            result = EnsembleRunner(config).run(np.random.default_rng(0))
        finally:
            obs.disable()
        return result, tracer

    def test_phase_timings_and_spans(self, traced_run):
        result, tracer = traced_run
        for phase in ("clean_pass", "sampling", "kernels",
                      "verification", "margins", "total"):
            assert phase in result.timings
        names = {r.name for r in tracer.records}
        assert "ensemble.kernels" in names
        assert "spice.transient" in names

    def test_metrics_snapshot_lands_in_telemetry(self, traced_run):
        result, _ = traced_run
        telemetry = result.telemetry
        assert telemetry.metrics["counters"]["transient.runs"] >= 1.0
        assert telemetry.n_cells == 2
        assert telemetry.counts["ok"] == 2
        # The whole document survives JSON.
        rebuilt = RunTelemetry.from_dict(
            json.loads(telemetry.to_json()))
        assert rebuilt.counts == telemetry.counts

    def test_untraced_run_still_times_phases(self):
        from repro.core.ensemble import EnsembleConfig, EnsembleRunner

        config = EnsembleConfig(n_cells=1, screen_threshold=1e9,
                                margin_samples=0, workers=0)
        result = EnsembleRunner(config).run(np.random.default_rng(1))
        assert result.timings["total"] > 0.0
        assert result.metrics_snapshot == {}
        assert result.telemetry.metrics == {}
