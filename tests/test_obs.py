"""Tests for the observability layer (:mod:`repro.obs`).

Covers the registry primitives (counters, gauges, histograms, merge),
hierarchical tracing and its Chrome-trace export, engine checkpoints,
the schema-versioned report, the engine instrumentation hooks — and the
acceptance criterion: a parallel SMC run reports logical engine totals
identical to the serial run on the Fig. 4 train-gate workload.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.mc import EF, LocationIs, Verifier, explore, trace_stats
from repro.models.traingate import cross_predicate, make_traingate
from repro.obs import (
    Collector,
    Tracer,
    FlightRecorder,
    active,
    capture_spec,
    capturing,
    collecting,
    incr,
    log,
    merge,
    observe,
    recording,
    set_gauge,
    span,
    tracing,
)
from repro.obs.metrics import timed
from repro.obs.report import SCHEMA_VERSION, Report, check_files, validate
from repro.obs.trace import NULL_SPAN, active_tracer
from repro.runtime import ParallelExecutor, SerialExecutor, Spec
from repro.runtime.executor import SERIAL_BATCH_RUNS
from repro.smc import estimate_probability, probability_estimate, sprt
from repro.ta import ZoneGraph

TRAINGATE = Spec(make_traingate, 3)
CROSS0 = Spec(cross_predicate, 0)
MP_START = os.environ.get("REPRO_MP_START") or None


@pytest.fixture(scope="module")
def pool2():
    with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
        yield executor


def coin_p03(rng):
    return rng.random() < 0.3


class TestCollector:
    def test_counters_gauges_histograms(self):
        c = Collector("t")
        c.incr("a.count")
        c.incr("a.count", 4)
        c.set_gauge("a.gauge", 7)
        c.set_gauge("a.gauge", 3)
        c.observe("a.h", 1.0)
        c.observe("a.h", 3.0)
        assert c.value("a.count") == 5
        assert c.value("a.gauge") == 3
        assert c.value("missing", default=-1) == -1
        snap = c.snapshot()
        assert snap["counters"] == {"a.count": 5}
        assert snap["gauges"] == {"a.gauge": 3}
        h = snap["histograms"]["a.h"]
        assert (h["count"], h["total"], h["min"], h["max"]) == \
            (2, 4.0, 1.0, 3.0)

    def test_snapshot_is_json_ready(self):
        c = Collector()
        c.incr("x")
        c.observe("y", 2.5)
        json.dumps(c.snapshot())  # must not raise

    def test_empty_histogram_snapshot_has_null_bounds(self):
        c = Collector()
        with c.timer("t.h"):
            pass
        snap = c.snapshot()["histograms"]["t.h"]
        assert snap["count"] == 1 and snap["min"] is not None
        d = Collector()
        d.merge({"histograms": {"z": {"count": 0, "total": 0.0,
                                      "min": None, "max": None}}})
        assert d.snapshot()["histograms"]["z"]["min"] is None

    def test_merge_adds_counters_and_histograms(self):
        a, b = Collector("a"), Collector("b")
        a.incr("n", 2)
        b.incr("n", 3)
        b.incr("only_b")
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        a.set_gauge("g", 1)
        b.set_gauge("g", 9)
        a.merge(b)
        assert a.value("n") == 5
        assert a.value("only_b") == 1
        assert a.value("g") == 9  # gauges: last write wins
        h = a.snapshot()["histograms"]["h"]
        assert (h["count"], h["min"], h["max"]) == (2, 1.0, 5.0)

    def test_merge_accepts_snapshots(self):
        a = Collector()
        b = Collector()
        b.incr("n", 7)
        a.merge(b.snapshot())
        assert a.value("n") == 7

    def test_max_gauge_keeps_and_merges_maximum(self):
        c = Collector()
        c.set_max("obs.rss_peak_kb", 500)
        c.set_max("obs.rss_peak_kb", 300)   # lower write is ignored
        assert c.value("obs.rss_peak_kb") == 500
        other = Collector()
        other.set_max("obs.rss_peak_kb", 900)
        other.set_max("obs.only_other", 1)
        c.merge(other)
        # max-merge, not last-write: the peak survives merge order.
        assert c.value("obs.rss_peak_kb") == 900
        assert c.value("obs.only_other") == 1
        c.merge({"max_gauges": {"obs.rss_peak_kb": 700}})
        assert c.snapshot()["max_gauges"]["obs.rss_peak_kb"] == 900

    def test_clear(self):
        c = Collector()
        c.incr("n")
        c.set_max("m", 2)
        c.clear()
        assert c.snapshot() == {"counters": {}, "gauges": {},
                                "max_gauges": {}, "histograms": {}}

    def test_thread_safety(self):
        c = Collector()

        def work():
            for _ in range(1000):
                c.incr("n")
                c.observe("h", 1.0)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value("n") == 8000
        assert c.snapshot()["histograms"]["h"]["count"] == 8000


class TestAmbientCollector:
    def test_off_by_default(self):
        assert active() is None
        incr("nobody.listening")      # all no-ops, must not raise
        set_gauge("nobody.gauge", 1)
        observe("nobody.h", 1.0)
        with timed("nobody.timer"):
            pass

    def test_collecting_installs_and_restores(self):
        with collecting() as c:
            assert active() is c
            incr("seen")
            with collecting() as inner:
                assert active() is inner
                incr("inner_only")
            assert active() is c
        assert active() is None
        assert c.value("seen") == 1
        assert c.value("inner_only") == 0

    def test_module_helpers_record(self):
        with collecting() as c:
            incr("m.count", 2)
            set_gauge("m.gauge", 5)
            observe("m.h", 1.5)
            with timed("m.timer"):
                pass
        assert c.value("m.count") == 2
        assert c.value("m.gauge") == 5
        assert c.snapshot()["histograms"]["m.timer"]["count"] == 1


class TestTracing:
    def test_off_by_default_yields_null_span(self):
        assert active_tracer() is None
        with span("anything", key=1) as sp:
            assert sp is NULL_SPAN
            sp.set("ignored", 2)  # no-op

    def test_nesting_and_attributes(self):
        with tracing() as tracer:
            with span("outer", model="tg") as outer:
                with span("inner") as inner:
                    inner.set("states", 4)
                outer.set("verdict", True)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attributes == {"model": "tg", "verdict": True}
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attributes == {"states": 4}
        assert root.end is not None
        assert root.duration >= root.children[0].duration

    def test_to_dict_roundtrips_through_json(self):
        with tracing() as tracer:
            with span("a"):
                with span("b", n=1):
                    pass
        data = json.loads(json.dumps(tracer.to_dict()))
        assert data[0]["name"] == "a"
        assert data[0]["children"][0]["attributes"] == {"n": 1}

    def test_chrome_trace_export(self):
        with tracing() as tracer:
            with span("mc.check", query="EF", obj=object()):
                pass
        chrome = tracer.to_chrome_trace()
        assert chrome["displayTimeUnit"] == "ms"
        event, = chrome["traceEvents"]
        assert event["ph"] == "X"
        assert event["cat"] == "mc"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"]["query"] == "EF"
        assert isinstance(event["args"]["obj"], str)  # repr()'d
        json.dumps(chrome)


class TestProgress:
    """Engines checkpoint once per folded batch; a spy on the engine
    module's ``checkpoint`` global counts the calls."""

    @staticmethod
    def spy(monkeypatch, module):
        kinds = []
        monkeypatch.setattr(module, "checkpoint",
                            lambda kind, series=None: kinds.append(kind))
        return kinds

    def test_batched_sprt_reports_folded_runs(self, monkeypatch):
        # Each chunk's checkpoint comes after its fold, so the deciding
        # chunk (here the only one) checkpoints too: one call per
        # folded chunk.
        sprt_module = importlib.import_module("repro.smc.sprt")
        kinds = self.spy(monkeypatch, sprt_module)
        with collecting() as collector:
            result = sprt(coin_p03, 0.5, indifference=0.05, rng=7,
                          executor=SerialExecutor())
        chunks = collector.counters()["smc.sprt.chunks"]
        assert chunks == -(-result.runs // sprt_module.CHUNK_RUNS)
        assert kinds == ["smc.sprt"] * chunks

    def test_default_campaign_heartbeats_every_64_runs(self, monkeypatch):
        # The default executor runs serial batches of at most 64 runs,
        # so a large campaign checkpoints throughout, not once per
        # quarter.  The estimator reaches the surface as ``obs.checkpoint``.
        kinds = self.spy(monkeypatch, importlib.import_module("repro.obs"))
        estimate_probability(coin_p03, runs=1000, rng=3)
        assert SERIAL_BATCH_RUNS == 64
        assert kinds == ["smc.estimate"] * 16     # ceil(1000 / 64)


class TestReport:
    def test_schema_and_validate(self):
        c = Collector()
        c.incr("mc.states_explored", 3)
        data = Report(c, meta={"k": "v"}).to_dict()
        assert data["schema"] == SCHEMA_VERSION
        assert data["meta"] == {"k": "v"}
        assert data["metrics"]["counters"]["mc.states_explored"] == 3
        assert validate(data) is data

    def test_validate_rejects_bad_reports(self):
        with pytest.raises(ValueError, match="missing the 'schema'"):
            validate({"metrics": {}})
        with pytest.raises(ValueError, match="unsupported report schema"):
            validate({"schema": "repro.obs/0", "metrics": {}})
        with pytest.raises(ValueError, match="no 'metrics'"):
            validate({"schema": SCHEMA_VERSION})
        with pytest.raises(ValueError, match="not a report"):
            validate([1, 2])

    def test_write_and_check_files(self, tmp_path):
        good = tmp_path / "good.json"
        Report(Collector()).write(str(good))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no": "schema"}))
        assert check_files([str(good)]) == 0
        assert check_files([str(good), str(bad)]) == 1
        assert check_files([str(tmp_path / "missing.json")]) == 1

    def test_trace_included_when_tracer_given(self):
        with tracing() as tracer:
            with span("s"):
                pass
        data = Report(Collector(), tracer).to_dict()
        assert data["trace"][0]["name"] == "s"
        assert data["chrome_trace"]["traceEvents"]

    def test_tables_group_by_namespace(self):
        c = Collector()
        c.incr("mc.states_explored", 10)
        c.incr("smc.runs", 5)
        c.observe("runtime.task_seconds", 0.25)
        tables = Report(c).tables()
        titles = [t.title for t in tables]
        assert "[mc] metrics" in titles
        assert "[smc] metrics" in titles
        assert "timing / size distributions" in titles


class TestEngineInstrumentation:
    def test_mc_exploration_records_counts(self):
        network = make_traingate(2)
        with collecting() as c, tracing() as tracer:
            graph = ZoneGraph(network)
            result = explore(graph)
        assert c.value("mc.searches") == 1
        assert c.value("mc.states_explored") == result.states_explored
        assert c.value("mc.states_stored") == result.states_stored
        assert c.value("mc.zones_created") > 0
        assert c.value("mc.dbm_constraints") > 0
        root, = tracer.roots
        assert root.name == "mc.explore"
        assert root.attributes["states_explored"] == \
            result.states_explored

    def test_mc_query_span_and_counters(self):
        with collecting() as c, tracing() as tracer:
            verifier = Verifier(make_traingate(2))
            result = verifier.check(EF(LocationIs("Train(0)", "Cross")))
        assert result.holds
        assert c.value("mc.queries") == 1
        assert c.value("mc.queries.satisfied") == 1
        check = tracer.roots[0]
        assert check.name == "mc.check"
        assert check.attributes["query"] == "EF"
        assert check.attributes["holds"] is True

    def test_trace_stats_uses_registry(self):
        verifier = Verifier(make_traingate(2))
        result = verifier.check(EF(LocationIs("Train(0)", "Cross")))
        with collecting() as c:
            stats = trace_stats(result.trace)
        assert stats["states"] == len(result.trace)
        assert c.value("mc.traces_rendered") == 1
        assert c.value("mc.trace_steps") == stats["steps"]

    def test_smc_estimate_records_runs(self):
        with collecting() as c:
            estimate = probability_estimate(
                make_traingate(2), cross_predicate(0), horizon=100,
                runs=20, rng=1)
        assert c.value("smc.runs") == 20
        assert c.value("smc.accepted") == estimate.successes
        assert c.value("smc.sim.runs") == 20
        assert c.value("smc.sim.steps") > 0

    def test_bip_engine_records_steps(self):
        from repro.bip import BIPEngine
        from repro.models.dala import make_dala

        with collecting() as c:
            engine = BIPEngine(make_dala(with_controller=True,
                                         counter_bound=4), rng=3)
            trace = engine.run(max_steps=100)
        assert c.value("bip.runs") == 1
        assert c.value("bip.steps") == len(trace.steps)
        assert c.value("bip.blocked") == trace.blocked_count

    def test_tiga_records_arena_and_fixpoint(self):
        from repro.models.traingame import (
            make_traingame,
            safety_predicate,
        )
        from repro.tiga import GameGraph, controller_wins_safety

        with collecting() as c:
            graph = GameGraph(make_traingame(1))
            wins, _strategy = controller_wins_safety(
                graph, safety_predicate(1))
        assert wins
        assert c.value("tiga.arena_states") == graph.num_states
        assert c.value("tiga.solves") == 1
        assert c.value("tiga.fixpoint_iterations") >= 1
        assert c.value("tiga.safety.winning_states") > 0

    def test_cora_records_search(self):
        from repro.cora import min_cost_reachability
        from repro.models.wcet import at_done, make_wcet_model

        with collecting() as c:
            result = min_cost_reachability(make_wcet_model(2), at_done)
        assert result
        assert c.value("cora.searches") == 1
        assert c.value("cora.states_explored") == result.states_explored
        assert c.value("cora.min_cost.found") == 1

    def test_modest_backends_record(self):
        from repro.models import brp_modest as bm
        from repro.modest.toolset import Pmax, mcpta, mctau, modes

        source = bm.brp_modest_source(2, 1, 1)
        props = [Pmax("P1", bm.not_success)]
        with collecting() as c:
            mctau(source, props)
            mcpta(source, props)
            modes(source, props, runs=10, rng=1, max_time=50)
        assert c.value("modest.mctau.properties") == 1
        assert c.value("modest.mcpta.properties") == 1
        assert c.value("modest.mcpta.states") > 0  # the MDP size gauge
        assert c.value("modest.modes.properties") == 1
        assert c.value("modest.modes.runs") == 10
        assert c.value("pta.sim.runs") == 10


def _logical(snapshot):
    """Engine counters only — ``runtime.*`` is the physical layer and
    legitimately differs between serial and parallel execution."""
    return {name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith("runtime.")}


class TestParallelMetricsEquivalence:
    """The satellite acceptance test: ParallelExecutor merges per-worker
    collectors into totals identical to SerialExecutor's for the Fig. 4
    train-gate workload."""

    def test_traingate_parallel_totals_match_serial(self, pool2):
        kwargs = dict(horizon=100, runs=40, rng=42)
        with collecting() as serial_c:
            serial = probability_estimate(
                TRAINGATE, CROSS0, executor=SerialExecutor(), **kwargs)
        with collecting() as parallel_c:
            parallel = probability_estimate(
                TRAINGATE, CROSS0, executor=pool2, **kwargs)
        assert (parallel.successes, parallel.runs) == \
            (serial.successes, serial.runs)
        serial_logical = _logical(serial_c.snapshot())
        assert serial_logical == _logical(parallel_c.snapshot())
        assert serial_logical["smc.sim.runs"] == 40
        assert serial_logical["smc.runs"] == 40

    def test_runtime_layer_reports_workers(self, pool2):
        with collecting() as c:
            probability_estimate(TRAINGATE, CROSS0, horizon=100, runs=16,
                                 rng=42, executor=pool2)
        snap = c.snapshot()
        assert snap["gauges"]["runtime.workers"] == 2
        assert 1 <= snap["gauges"]["runtime.workers_seen"] <= 2
        assert snap["counters"]["runtime.tasks"] >= 1
        assert snap["histograms"]["runtime.task_seconds"]["count"] == \
            snap["counters"]["runtime.tasks"]

    def test_capture_round_trip_in_process(self):
        # What a worker task does, minus the process: capture under the
        # coordinator's spec, then merge the one snapshot back.
        assert capture_spec() is None
        with collecting() as c, \
                recording(FlightRecorder()) as rec:
            spec = capture_spec()
            assert spec == (True, None, True)
            with capturing(spec) as snapshot:
                incr("smc.runs", 3)
                log("smc.batch", runs=3)
            assert c.value("smc.runs") == 0   # not merged yet
            merge(snapshot, worker=1)
        assert set(snapshot) == {"metrics", "flight"}
        assert c.value("smc.runs") == 3
        assert "obs.gc_collections" in c.snapshot()["max_gauges"]
        event, = rec.to_dict()["events"]
        assert (event["name"], event["worker"]) == ("smc.batch", 1)


class TestDemoSession:
    def test_demo_session_report(self, tmp_path):
        from repro.obs.report import demo_session

        report = demo_session(trains=2, runs=20)
        data = report.to_dict()
        assert data["schema"] == SCHEMA_VERSION
        counters = data["metrics"]["counters"]
        assert counters["mc.states_explored"] > 0
        assert counters["smc.runs"] == 20
        names = [s["name"] for s in data["trace"]]
        assert names == ["session.mc", "session.smc"]
        path = tmp_path / "report.json"
        report.write(str(path))
        assert check_files([str(path)]) == 0
        titles = [t.title for t in report.tables()]
        assert any("[mc]" in t for t in titles)

class TestResources:
    """Fallback branches of :mod:`repro.obs.resources`."""

    def test_rss_peak_falls_back_to_getrusage(self, monkeypatch):
        from repro.obs import resources

        monkeypatch.setattr(resources, "_proc_status_kb",
                            lambda field: None)
        peak = resources.rss_peak_kb()
        assert peak is None or peak > 0  # getrusage path (or no API)

    def test_rss_kb_none_without_proc(self, monkeypatch):
        from repro.obs import resources

        monkeypatch.setattr(resources, "_proc_status_kb",
                            lambda field: None)
        assert resources.rss_kb() is None
        readings = resources.sample(Collector())
        assert "obs.rss_kb" not in readings
        assert "obs.gc_collections" in readings


def _store_with_runs(tmp_path, labels):
    """A run store with one record per label occurrence, plus one
    foreign line in the middle."""
    from repro.obs.runstore import RunStore

    path = tmp_path / "runs.jsonl"
    store = RunStore(str(path))
    half = len(labels) // 2
    for index, label in enumerate(labels):
        if index == half:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"foreign": "line"}\n')
        c = Collector()
        c.incr("smc.runs", index)
        store.append(Report(c, meta={"i": index}), label)
    return store, path


class TestRunStorePrune:
    def test_prune_keeps_newest_per_label(self, tmp_path):
        store, path = _store_with_runs(
            tmp_path, ["a", "b", "a", "a", "b", "a"])
        kept, removed = store.prune(keep=2)
        assert (kept, removed) == (4, 2)
        a_runs = list(store.records(label="a"))
        assert [r["run_id"] for r in a_runs] == ["a#3", "a#4"]
        assert len(list(store.records(label="b"))) == 2
        # the foreign line survives the rewrite verbatim
        assert '{"foreign": "line"}' in path.read_text()
        assert store.scan()[1] == 1  # still counted as skipped

    def test_prune_single_label_leaves_others(self, tmp_path):
        store, _path = _store_with_runs(tmp_path, ["a", "a", "a", "b"])
        kept, removed = store.prune(keep=1, label="a")
        assert (kept, removed) == (2, 2)
        assert len(list(store.records(label="a"))) == 1
        assert len(list(store.records(label="b"))) == 1

    def test_prune_noop_and_bad_keep(self, tmp_path):
        store, path = _store_with_runs(tmp_path, ["a", "b"])
        before = path.read_text()
        assert store.prune(keep=5) == (2, 0)
        assert path.read_text() == before  # no rewrite when nothing drops
        with pytest.raises(ValueError, match="at least 1"):
            store.prune(keep=0)
        from repro.obs.runstore import RunStore

        missing = RunStore(str(tmp_path / "missing.jsonl"))
        assert missing.prune(keep=1) == (0, 0)

    def test_pruned_store_passes_check(self, tmp_path):
        store, path = _store_with_runs(tmp_path, ["a"] * 4)
        store.prune(keep=2)
        # the foreign line is reported, valid records still count
        from repro.obs.report import _check_one

        with pytest.raises(ValueError, match="1 invalid line"):
            _check_one(str(path))


class TestHistoryCli:
    def test_history_lists_labels_and_skipped(self, tmp_path, capsys):
        from repro.obs.report import main

        _store, path = _store_with_runs(tmp_path, ["a", "a", "b"])
        assert main(["history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "a: 2 run(s), newest a#2" in out
        assert "b: 1 run(s), newest b#1" in out
        assert "1 unparseable/foreign line(s) skipped" in out

    def test_history_prune_compacts(self, tmp_path, capsys):
        from repro.obs.report import main
        from repro.obs.runstore import RunStore

        _store, path = _store_with_runs(tmp_path, ["a"] * 5)
        assert main(["history", str(path), "--prune", "--keep", "2"]) == 0
        out = capsys.readouterr().out
        assert "removed 3 record(s), kept 2" in out
        assert len(list(RunStore(str(path)).records(label="a"))) == 2

    def test_history_label_filter(self, tmp_path, capsys):
        from repro.obs.report import main

        _store, path = _store_with_runs(tmp_path, ["a", "b"])
        assert main(["history", str(path), "--label", "zzz"]) == 0
        assert "no matching records" in capsys.readouterr().out


class TestCheckOneMultiError:
    def test_all_bad_lines_reported(self, tmp_path):
        from repro.obs.report import _check_one

        _store, path = _store_with_runs(tmp_path, ["a"])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"schema": "repro.runs/1"}\n')
        with pytest.raises(ValueError) as err:
            _check_one(str(path))
        message = str(err.value)
        assert "3 invalid line(s)" in message
        assert "1 valid records would be kept" in message
        assert "not JSON" in message


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
OBS_PRIVATE_MODULES = ("flight", "profiler", "resources", "runstore", "diff",
                       "dashboard")
OBS_PRIVATE_NAMES = ("active_recorder",)
#: The engine packages, and the run-store and report tooling that
#: importing any of them must not load.
ENGINE_PACKAGES = ("mc", "mdp", "pta", "ta", "tiga", "modest", "runtime",
                   "smc")
OBS_TOOL_MODULES = ("repro.obs.runstore", "repro.obs.report",
                    "repro.obs.diff", "repro.obs.dashboard")


def obs_bypasses(path, root):
    """The ways the module at ``path`` (a package file under ``root``)
    reaches past the :mod:`repro.obs` surface: imports of the observer
    modules behind it, and any use of the names engines must not call."""
    package = path.relative_to(root).parent.parts
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            targets = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            targets = []
            if name in OBS_PRIVATE_NAMES:
                found.add(name)
        for target in targets:
            parts = target.split(".")
            if parts[-1] in OBS_PRIVATE_NAMES or (
                    parts[:2] == ["repro", "obs"] and len(parts) > 2
                    and parts[2] in OBS_PRIVATE_MODULES):
                found.add(target)
    return found


class TestInstrumentationBoundary:
    """Engines reach observability only through the :mod:`repro.obs`
    surface (``checkpoint``, ``span``, ``incr``, ``log``, the worker
    capture pair) — never through the observer modules behind it."""

    def test_no_module_outside_obs_bypasses_the_surface(self):
        package = SRC / "repro"
        modules = [path for path in sorted(package.rglob("*.py"))
                   if package / "obs" not in path.parents]
        assert len(modules) > 50
        offenders = {str(path.relative_to(SRC)): found
                     for path in modules
                     if (found := obs_bypasses(path, SRC))}
        assert offenders == {}

    def test_detects_each_kind_of_bypass(self, tmp_path):
        bad = tmp_path / "repro" / "mc" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("from ..obs.flight import log\n"
                       "from ..obs import active_recorder\n"
                       "import repro.obs.runstore\n"
                       "from . import obs\n"
                       "recorder = obs.active_recorder()\n")
        assert obs_bypasses(bad, tmp_path) == {
            "repro.obs.flight.log", "repro.obs.active_recorder",
            "repro.obs.runstore", "active_recorder"}

    @pytest.mark.parametrize("package", ENGINE_PACKAGES)
    def test_engine_import_loads_no_obs_tooling(self, package):
        # A fresh interpreter, so no other test's imports count.  Only
        # repro.* names are compared: the stdlib's import graph differs
        # between Python versions.
        code = (f"import sys, repro.{package}\n"
                "print('\\n'.join(m for m in sys.modules "
                "if m.startswith('repro.')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        loaded = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True).stdout.split()
        assert f"repro.{package}" in loaded
        assert not set(OBS_TOOL_MODULES) & set(loaded)
