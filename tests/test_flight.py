"""Tests for the flight recorder (:mod:`repro.obs.flight`) and the
session dashboard (:mod:`repro.obs.dashboard`).

Covers the ring-buffer event log (tail retention, span correlation),
the bounded time series, worker-snapshot merging — and the determinism
acceptance criterion: serial, parallel, and fault-recovered campaigns
produce identical merged *logical* event sequences and time-series
sample counts (physical ``obs.*`` / ``runtime.*`` data excluded).

The process-pool tests honour ``REPRO_MP_START`` (``fork`` / ``spawn``)
so CI can check that equivalence under both start methods.
"""

import json
import os

import pytest

from repro.mc import explore
from repro.mdp import MDP, reachability_probability
from repro.models.traingate import cross_predicate, make_traingate
from repro.obs import (
    Collector,
    Tracer,
    span,
    tracing,
)
from repro.obs.dashboard import render
from repro.obs.flight import (
    FlightRecorder,
    active_recorder,
    logical_events,
    logical_series,
    recording,
    validate_flight,
)
from repro.obs.profiler import Profiler, profile_record, profiling
from repro.obs.report import Report
from repro.runtime import (
    FaultInjector,
    FaultPolicy,
    ParallelExecutor,
    SerialExecutor,
    Spec,
)
from repro.smc import probability_at_least, probability_estimate
from repro.ta import ZoneGraph

from doubles import FixedBatches

TRAINGATE = Spec(make_traingate, 3)
CROSS0 = Spec(cross_predicate, 0)
MP_START = os.environ.get("REPRO_MP_START") or None


@pytest.fixture(scope="module")
def pool2():
    with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
        yield executor


class TestFlightRecorder:
    def test_ring_keeps_tail_and_counts_dropped(self, monkeypatch):
        monkeypatch.setattr(FlightRecorder, "capacity", 4)
        rec = FlightRecorder()
        for i in range(10):
            rec.log("tick", i=i)
        data = rec.to_dict()
        assert rec.events_logged == 10 and rec.dropped == 6
        assert data["dropped"] == 6
        assert [e["fields"]["i"] for e in data["events"]] == [6, 7, 8, 9]
        # sequence numbers are global, not per-retained-slot
        assert [e["seq"] for e in data["events"]] == [6, 7, 8, 9]

    def test_events_correlate_with_active_span(self):
        tracer = Tracer()
        with tracing(tracer), recording(FlightRecorder()) as rec:
            rec.log("outside")
            with span("smc.estimate"):
                rec.log("inside")
        events = rec.to_dict()["events"]
        assert events[0]["span"] is None
        assert events[1]["span"] == "smc.estimate"

    def test_series_bounded_but_count_totals_everything(self):
        rec = FlightRecorder()
        rec.series_capacity = 8  # on this instance only; not a parameter
        for i in range(20):
            rec.sample("mc.explore", waiting=i)
        body = rec.to_dict()["series"]["mc.explore.waiting"]
        assert body["count"] == 20
        assert len(body["points"]) == 8
        assert [point[1] for point in body["points"]] == list(range(12, 20))

    def test_to_dict_validates_and_is_json_ready(self):
        rec = FlightRecorder(run_id="t")
        rec.log("e", level="info", x=1)
        rec.sample("s", v=2.5)
        data = validate_flight(rec.to_dict())
        assert data["run_id"] == "t"
        json.dumps(data)  # must not raise

    def test_validate_flight_rejects_malformed(self):
        with pytest.raises(ValueError, match="not a flight recording"):
            validate_flight([])
        with pytest.raises(ValueError, match="unsupported flight schema"):
            validate_flight({"schema": "repro.flight/999"})
        good = FlightRecorder().to_dict()
        good["events"] = [{"no_name": True}]
        with pytest.raises(ValueError, match="malformed flight event"):
            validate_flight(good)

    def test_merge_tags_workers_and_resequences(self):
        worker = FlightRecorder()
        worker.log("smc.batch", runs=8)
        worker.sample("smc.estimate", mean=0.5)
        coord = FlightRecorder()
        coord.log("start")
        coord.merge(worker.to_dict(), worker=3)
        events = coord.to_dict()["events"]
        assert [e["seq"] for e in events] == [0, 1]
        assert events[1]["worker"] == 3
        assert coord.events_logged == 2
        assert coord.to_dict()["series"]["smc.estimate.mean"]["count"] == 1

    def test_logical_views_exclude_physical_names(self):
        events = [{"name": "smc.batch", "level": "info", "fields": {}},
                  {"name": "obs.note", "level": "warning", "fields": {}},
                  {"name": "runtime.retry", "level": "info", "fields": {}}]
        assert logical_events(events) == [("smc.batch", "info", {})]
        series = {"smc.sprt.llr": {"count": 4, "points": []},
                  "obs.rss_kb": {"count": 9, "points": []}}
        assert logical_series(series) == {"smc.sprt.llr": 4}


class TestRecordingScope:
    def test_ambient_install_and_module_helpers(self):
        from repro.obs import flight

        assert active_recorder() is None
        flight.log("ignored")          # off: must be a no-op
        flight.sample("ignored", v=1)
        with recording() as rec:
            assert active_recorder() is rec
            assert isinstance(rec, FlightRecorder) and rec.run_id is None
            flight.log("seen", n=2)
            flight.sample("s", v=1)
        assert active_recorder() is None
        data = rec.to_dict()
        assert [e["name"] for e in data["events"]] == ["seen"]
        assert "s.v" in data["series"]

class TestEngineTelemetry:
    def test_explore_samples_zone_telemetry_and_logs_done(self):
        # 5 trains explore >2000 states, so the every-1024-states
        # checkpoint fires at least twice.
        network = make_traingate(5)
        with tracing(), recording(FlightRecorder()) as rec:
            graph = ZoneGraph(network)
            result = explore(graph)
        data = rec.to_dict()
        names = [e["name"] for e in data["events"]]
        assert "mc.explore.done" in names
        done = next(e for e in data["events"]
                    if e["name"] == "mc.explore.done")
        assert done["fields"]["explored"] == result.states_explored
        assert done["span"] == "mc.explore"  # correlated with the span
        assert data["series"]["mc.explore.waiting"]["count"] >= 2
        assert data["series"]["mc.explore.zones_interned"]["count"] >= 2

    def test_mdp_vi_residual_series_and_done_event(self):
        # Self-loop with escape: v = 0.4 + 0.4 v converges geometrically,
        # so value iteration genuinely iterates (nothing is frozen by the
        # prob0/prob1 precomputation) and samples the residual trajectory.
        mdp = MDP()
        s0, goal, fail = (mdp.add_state() for _ in range(3))
        mdp.add_action(s0, [(0.4, goal), (0.4, s0), (0.2, fail)])
        with recording(FlightRecorder()) as rec:
            values = reachability_probability(mdp, {goal})
        assert values[s0] == pytest.approx(2.0 / 3.0)
        data = rec.to_dict()
        assert data["series"]["mdp.vi.residual"]["count"] >= 2
        assert data["series"]["mdp.vi.iteration"]["count"] >= 2
        residuals = [p[1] for p in
                     data["series"]["mdp.vi.residual"]["points"]]
        assert residuals[-1] <= residuals[0]  # converging trajectory
        done = [e for e in data["events"] if e["name"] == "mdp.vi.done"]
        assert len(done) == 1 and done[0]["fields"]["states"] == 3

    def test_sprt_llr_series_and_verdict_event(self):
        with recording(FlightRecorder()) as rec:
            result = probability_at_least(TRAINGATE, CROSS0, theta=0.5,
                                          horizon=100, rng=7)
        data = rec.to_dict()
        verdicts = [e for e in data["events"]
                    if e["name"] == "smc.sprt.verdict"]
        assert len(verdicts) == 1
        fields = verdicts[0]["fields"]
        assert fields["runs"] == result.runs
        assert fields["accept"] == result.accept
        if result.runs > 64:
            assert data["series"]["smc.sprt.llr"]["count"] >= 1

    def test_estimate_ci_series_sampled_every_64_runs(self):
        with recording(FlightRecorder()) as rec:
            probability_estimate(TRAINGATE, CROSS0, horizon=100, runs=256,
                                 rng=42)
        series = logical_series(rec.to_dict()["series"])
        # checkpoints at runs 64, 128, 192, 256
        assert series["smc.estimate.mean"] == 4
        assert series["smc.estimate.low"] == 4
        assert series["smc.estimate.high"] == 4
        points = rec.to_dict()["series"]["smc.estimate.mean"]["points"]
        assert all(0.0 <= p[1] <= 1.0 for p in points)


class TestParallelFlightEquivalence:
    """The determinism contract: merged logical event sequences and
    time-series sample counts are identical across serial, parallel,
    and fault-recovered executions of the same fixed budget."""

    KWARGS = dict(horizon=100, runs=256, rng=42)

    def run_once(self, executor):
        with recording(FlightRecorder()) as rec:
            estimate = probability_estimate(TRAINGATE, CROSS0,
                                            executor=FixedBatches(
                                                32, executor),
                                            **self.KWARGS)
        data = rec.to_dict()
        return estimate, logical_events(data["events"]), \
            logical_series(data["series"])

    def test_serial_parallel_fault_recovered_identical(self, pool2):
        serial_est, serial_events, serial_series = \
            self.run_once(SerialExecutor())
        parallel_est, parallel_events, parallel_series = \
            self.run_once(pool2)
        policy = FaultPolicy(max_retries=2,
                             injector=FaultInjector(raises={1}))
        with ParallelExecutor(workers=2, mp_context=MP_START,
                              policy=policy) as faulty:
            faulty_est, faulty_events, faulty_series = \
                self.run_once(faulty)

        assert (serial_est.successes, serial_est.runs) == \
            (parallel_est.successes, parallel_est.runs) == \
            (faulty_est.successes, faulty_est.runs)
        assert serial_events == parallel_events == faulty_events
        assert serial_series == parallel_series == faulty_series
        assert len(serial_events) > 0 and len(serial_series) > 0

    def test_worker_events_carry_worker_ids(self, pool2):
        with recording(FlightRecorder()) as rec:
            probability_estimate(TRAINGATE, CROSS0,
                                 executor=FixedBatches(32, pool2),
                                 **self.KWARGS)
        batches = [e for e in rec.to_dict()["events"]
                   if e["name"] == "smc.batch"]
        assert batches and all(e["worker"] is not None for e in batches)


class TestDashboard:
    @pytest.fixture()
    def report(self):
        collector = Collector("dash")
        collector.incr("mc.states_explored", 123)
        collector.observe("smc.run_seconds", 0.25)
        tracer = Tracer()
        profiler = Profiler(hz=1)
        with tracing(tracer), profiling(profiler=profiler), \
                recording(FlightRecorder()) as rec:
            with span("session"):
                with span("smc.estimate"):
                    rec.log("smc.batch", runs=8)
                    rec.sample("smc.estimate", mean=0.5, low=0.4, high=0.6)
                    rec.sample("smc.estimate", mean=0.6, low=0.5, high=0.7)
            profile_record(("main", "estimate", "simulate"), 10)
            profile_record(("main", "estimate", "check"), 3)
        return Report(collector, tracer=tracer, profile=profiler,
                      flight=rec, meta={"benchmark": "dash-test"},
                      sample_resources=False)

    def test_render_is_self_contained(self, report):
        html = render([("test.json", report.to_dict())])
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "<script src" not in html
        assert "<link" not in html
        assert "url(" not in html
        assert "http" not in html  # no network fetches of any kind

    def test_render_shows_all_sections(self, report):
        html = render([("test.json", report.to_dict())])
        assert "mc.states_explored" in html
        assert "smc.estimate" in html          # time-series chart title
        assert "smc.batch" in html             # event tail
        assert "span timeline" in html
        assert "flamegraph" in html
        assert "simulate" in html              # flamegraph frame label
        assert "in-flight telemetry" in html

    def test_render_escapes_hostile_strings(self):
        collector = Collector()
        report = Report(collector, meta={"evil": "<script>alert(1)"},
                        sample_resources=False)
        html = render([("<x>.json", report.to_dict())])
        assert "<script>alert" not in html
        assert "&lt;script&gt;alert" in html

    def test_main_writes_artifact(self, tmp_path, report):
        from repro.obs.dashboard import main

        report_path = tmp_path / "r.json"
        report.write(str(report_path))
        out = tmp_path / "dash.html"
        assert main([str(report_path), "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "smc.batch" in text

    def test_main_rejects_invalid_report(self, tmp_path):
        from repro.obs.dashboard import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main([str(bad), "-o", str(tmp_path / "x.html")]) == 2


class TestReportFlightSection:
    def test_report_embeds_and_validates_flight(self):
        rec = FlightRecorder(run_id="rep")
        rec.log("e")
        report = Report(Collector(), flight=rec, sample_resources=False)
        data = report.to_dict()
        assert data["flight"]["run_id"] == "rep"
        from repro.obs.report import validate

        validate(data)  # embedded flight section passes the gate

    def test_validate_rejects_bad_embedded_flight(self):
        report = Report(Collector(), sample_resources=False).to_dict()
        report["flight"] = {"schema": "repro.flight/999"}
        from repro.obs.report import validate

        with pytest.raises(ValueError, match="embedded flight section"):
            validate(report)
