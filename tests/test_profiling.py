"""Tests for the longitudinal performance observatory: the sampling
profiler (and its worker-side shipping), resource accounting, the
persistent run store, and run-to-run diffing with attribution.

The determinism tests use manual-mode profilers (``hz=0``): wall-clock
sampling is stochastic, but the merge algebra is exact, so serial,
parallel, and fault-recovered merged profiles must be bit-identical.
"""

import json
import os
import threading
import time
import tracemalloc

import pytest

from repro.obs import resources
from repro.obs.diff import (
    attribute_regression,
    attribution_for_store,
    diff_reports,
    flatten_spans,
    format_diff,
)
from repro.obs.metrics import Collector, collecting
from repro.obs.profiler import (
    DEFAULT_HZ,
    Profile,
    Profiler,
    active_profiler,
    frame_label,
    profile_record,
    profiling,
)
from repro.obs.report import Report, _check_one, main as report_main
from repro.obs.runstore import (
    RunStore,
    current_git_sha,
    run_fingerprint,
    validate_record,
)
from repro.runtime import (
    FaultInjector,
    FaultPolicy,
    ParallelExecutor,
    SerialExecutor,
)

MP_START = os.environ.get("REPRO_MP_START") or None


@pytest.fixture(scope="module")
def pool2():
    with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
        yield executor


# Module-level task (picklable) for the parallel-equivalence tests:
# records one deterministic logical sample per seed.

def record_probe(seeds):
    total = 0
    for seed in seeds:
        profile_record(("probe.run", f"probe.leaf{seed % 3}"))
        total += seed
    return total


BATCHES = [(list(range(i * 5, i * 5 + 5)),) for i in range(8)]


def merged_probe_profile(executor):
    """Run the probe batches under a manual-mode ambient profiler and
    return ``(results, profile snapshot)``."""
    with profiling(hz=0) as profiler:
        results = list(executor.imap(record_probe, BATCHES))
    return results, profiler.profile.to_dict()


class TestProfile:
    def test_record_and_counts(self):
        profile = Profile(hz=0)
        profile.record(("a", "b"))
        profile.record(("a", "b"), 2)
        profile.record(("a",))
        assert profile.counts == {("a", "b"): 3, ("a",): 1}
        assert profile.samples == 4

    def test_merge_is_commutative(self):
        left, right = Profile(hz=0), Profile(hz=0)
        left.record(("a", "b"), 3)
        left.record(("c",), 1)
        right.record(("a", "b"), 2)
        right.record(("d",), 5)
        one = Profile(hz=0).merge(left).merge(right)
        other = Profile(hz=0).merge(right).merge(left)
        assert one.to_dict() == other.to_dict()
        assert one.counts[("a", "b")] == 5
        assert one.samples == 11

    def test_merge_accepts_snapshot_dicts(self):
        source = Profile(hz=0)
        source.record(("root", "leaf"), 7)
        source.wall_seconds = 2.0
        source.sampling_seconds = 0.1
        merged = Profile(hz=0).merge(source.to_dict())
        assert merged.counts == {("root", "leaf"): 7}
        assert merged.wall_seconds == 2.0
        assert merged.sampling_seconds == 0.1

    def test_collapsed_format(self):
        profile = Profile(hz=0)
        profile.record(("main", "explore", "dbm"), 42)
        profile.record(("main", "other"), 1)
        assert profile.to_collapsed() == \
            "main;explore;dbm 42\nmain;other 1"

    def test_hotspots_self_and_cum(self):
        profile = Profile(hz=0)
        profile.record(("a", "b"), 3)   # self b=3, cum a=3,b=3
        profile.record(("a",), 1)       # self a=1, cum a=1
        rows = profile.hotspots()
        by_name = {row["function"]: row for row in rows}
        assert by_name["b"]["self"] == 3
        assert by_name["a"]["self"] == 1
        assert by_name["a"]["cum"] == 4
        assert by_name["b"]["self_fraction"] == pytest.approx(0.75)

    def test_hotspots_count_recursion_once(self):
        profile = Profile(hz=0)
        profile.record(("f", "f", "f"), 5)
        row = profile.hotspots()[0]
        assert row["function"] == "f"
        assert row["self"] == 5
        assert row["cum"] == 5  # each stack counted once, not 3x

    def test_overhead_ratio(self):
        profile = Profile(hz=0)
        assert profile.overhead_ratio == 0.0  # no wall time yet
        profile.wall_seconds = 10.0
        profile.sampling_seconds = 0.2
        assert profile.overhead_ratio == pytest.approx(0.02)

    def test_frame_label_is_collapsed_safe(self):
        label = frame_label(record_probe.__code__)
        assert label.startswith("test_profiling.")
        assert ";" not in label


def busy(deadline):
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSampling:
    def test_off_by_default(self):
        assert active_profiler() is None
        profile_record(("never", "recorded"))  # must be a no-op

    def test_sampler_collects_stacks_within_overhead_bound(self):
        collector = Collector("profiled")
        with collecting(collector):
            with profiling(hz=250) as profiler:
                busy(time.perf_counter() + 0.4)
        profile = profiler.profile
        assert profile.samples > 0
        assert any("test_profiling.busy" in ";".join(stack)
                   for stack in profile.counts)
        # The duty cycle the CI smoke job bounds at 5%.
        assert profile.overhead_ratio < 0.05
        snap = collector.snapshot()
        assert snap["counters"]["obs.profile.samples"] == profile.samples
        assert snap["max_gauges"]["obs.profile.overhead"] == \
            pytest.approx(profile.overhead_ratio, abs=1e-6)

    def test_sampler_thread_stops_on_exit(self):
        with profiling(hz=200):
            assert any(t.name == "repro-obs-sampler"
                       for t in threading.enumerate())
        assert not any(t.name == "repro-obs-sampler"
                       for t in threading.enumerate())

    def test_manual_mode_records_through_ambient(self):
        with profiling(hz=0) as profiler:
            profile_record(("x", "y"), 4)
        assert profiler.profile.counts == {("x", "y"): 4}
        assert profiler.profile.wall_seconds > 0

    def test_negative_hz_rejected(self):
        with pytest.raises(ValueError):
            Profiler(hz=-1)


class TestParallelProfileEquivalence:
    """The tentpole guarantee: per-worker profiles ship home and merge
    in task order, so the merged parallel profile is bit-identical to
    the serial one — including under fault recovery."""

    def test_parallel_matches_serial(self, pool2):
        serial_results, serial = merged_probe_profile(SerialExecutor())
        parallel_results, parallel = merged_probe_profile(pool2)
        assert parallel_results == serial_results
        assert parallel["stacks"] == serial["stacks"]
        assert parallel["samples"] == serial["samples"]

    def test_fault_recovery_never_double_counts(self):
        _, reference = merged_probe_profile(SerialExecutor())
        policy = FaultPolicy(max_retries=3,
                             injector=FaultInjector(kill={1},
                                                    raises={3, 5}))
        with ParallelExecutor(workers=2, mp_context=MP_START,
                              policy=policy) as faulty:
            results, recovered = merged_probe_profile(faulty)
        # A failed attempt's worker-side profile dies with the worker;
        # only the clean attempt merges, so counts cannot inflate.
        assert recovered["stacks"] == reference["stacks"]
        assert recovered["samples"] == reference["samples"]
        assert results == [sum(batch[0]) for batch in BATCHES]

    def test_serial_fault_recovery_matches_too(self):
        _, reference = merged_probe_profile(SerialExecutor())
        policy = FaultPolicy(max_retries=2,
                             injector=FaultInjector(raises={2, 4}))
        _, recovered = merged_probe_profile(SerialExecutor(policy=policy))
        assert recovered["stacks"] == reference["stacks"]


class TestResources:
    def test_sample_records_max_gauges(self):
        collector = Collector("res")
        readings = resources.sample(collector)
        assert readings["obs.rss_peak_kb"] > 0
        assert readings["obs.rss_kb"] > 0
        snap = collector.snapshot()["max_gauges"]
        assert snap["obs.rss_peak_kb"] == readings["obs.rss_peak_kb"]
        assert "obs.gc_collections" in snap

    def test_heap_gauges_only_when_tracing(self):
        assert "obs.heap_kb" not in resources.sample()
        collector = Collector("heap")
        tracemalloc.start()
        try:
            ballast = [bytearray(1024) for _ in range(200)]
            resources.sample(collector)
        finally:
            tracemalloc.stop()
        snap = collector.snapshot()["max_gauges"]
        assert snap["obs.heap_peak_kb"] >= snap["obs.heap_kb"]
        assert snap["obs.heap_peak_kb"] > 0
        del ballast

    def test_peaks_merge_by_maximum(self):
        low, high = Collector("low"), Collector("high")
        low.set_max("obs.rss_peak_kb", 1000)
        high.set_max("obs.rss_peak_kb", 5000)
        low.merge(high.snapshot())
        assert low.value("obs.rss_peak_kb") == 5000
        # and a later, smaller snapshot cannot lower it
        low.merge(Collector("later").snapshot())
        assert low.value("obs.rss_peak_kb") == 5000


def make_report(counter_value=10, stacks=None, seconds=1.0, meta=None):
    """A synthetic report dict with controlled counters and profile."""
    collector = Collector("synthetic")
    collector.incr("mc.states", counter_value)
    profile = None
    if stacks is not None:
        profile = Profile(hz=0)
        for stack, n in stacks.items():
            profile.record(tuple(stack.split(";")), n)
        profile.wall_seconds = seconds
    report = Report(collector, profile=profile, meta=meta,
                    sample_resources=False)
    return report.to_dict()


class TestRunStore:
    def test_append_and_read_back(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        record = store.append(make_report(), "bench.json")
        assert record["run_id"] == "bench.json#1"
        assert record["schema"] == "repro.runs/1"
        store.append(make_report(counter_value=12), "bench.json")
        records, skipped = store.scan()
        assert [r["run_id"] for r in records] == \
            ["bench.json#1", "bench.json#2"]
        assert skipped == 0
        assert not os.path.exists(f"{store.path}.tmp")

    def test_sequences_are_per_label(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(make_report(), "a.json")
        store.append(make_report(), "b.json")
        record = store.append(make_report(), "a.json")
        assert record["run_id"] == "a.json#2"

    def test_fingerprint_ignores_measurements(self):
        config = {"benchmark": "explore", "n": 5, "quick": False}
        one = make_report(meta={**config, "seconds": 1.23})
        two = make_report(meta={**config, "seconds": 4.56})
        other = make_report(meta={**config, "n": 6, "seconds": 1.23})
        assert run_fingerprint("x", one) == run_fingerprint("x", two)
        assert run_fingerprint("x", one) != run_fingerprint("x", other)
        assert run_fingerprint("x", one) != run_fingerprint("y", one)

    def test_corrupt_lines_skipped_and_preserved(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_report(), "a.json")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated": \n')
            handle.write("not json at all\n")
        store.append(make_report(), "a.json")
        records, skipped = store.scan()
        assert [r["run_id"] for r in records] == ["a.json#1", "a.json#2"]
        assert skipped == 2
        # foreign bytes survive the atomic rewrite verbatim
        text = path.read_text(encoding="utf-8")
        assert "not json at all" in text

    def test_find_resolution_order(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        meta = {"benchmark": "explore"}
        store.append(make_report(counter_value=1, meta=meta), "a.json")
        latest = store.append(make_report(counter_value=2, meta=meta),
                              "a.json")
        assert store.find("a.json#1")["report"]["metrics"]["counters"][
            "mc.states"] == 1
        assert store.find("a.json")["run_id"] == "a.json#2"
        assert store.find(latest["fingerprint"])["run_id"] == "a.json#2"
        assert store.find("nope") is None

    def test_git_sha_stamped_in_checkout(self, tmp_path):
        sha = current_git_sha(cwd=os.path.dirname(__file__))
        assert sha is None or len(sha) == 40
        store = RunStore(tmp_path / "runs.jsonl")
        record = store.append(make_report(), "a.json")
        assert "git_sha" in record and "created" in record

    def test_validate_record_rejects_bad_envelopes(self):
        with pytest.raises(ValueError):
            validate_record([])
        with pytest.raises(ValueError):
            validate_record({"schema": "repro.runs/0"})
        good = {"schema": "repro.runs/1", "run_id": "x#1", "label": "x",
                "fingerprint": "abc", "report": make_report()}
        assert validate_record(good) is good
        bad = dict(good)
        bad["report"] = {"schema": "repro.obs/1"}  # no metrics
        with pytest.raises(ValueError):
            validate_record(bad)

    def test_check_gate_is_strict_on_stores(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_report(), "a.json")
        store.append(make_report(), "a.json")
        assert _check_one(str(path)) == "2 run records"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        with pytest.raises(ValueError, match="line 3"):
            _check_one(str(path))


class TestReportProfileAndAtomicWrite:
    def test_write_is_atomic_and_valid(self, tmp_path):
        path = tmp_path / "report.json"
        Report(Collector("w")).write(path)
        assert not os.path.exists(f"{path}.tmp")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == "repro.obs/1"
        # resource accounting rode along by default
        assert "obs.rss_peak_kb" in data["metrics"]["max_gauges"]

    def test_profile_embeds_from_profiler_profile_or_dict(self):
        profile = Profile(hz=0)
        profile.record(("a", "b"), 2)
        profiler = Profiler(hz=0, profile=profile)
        for source in (profiler, profile, profile.to_dict()):
            data = Report(Collector("p"), profile=source,
                          sample_resources=False).to_dict()
            assert data["profile"]["stacks"] == {"a;b": 2}

    def test_no_profile_key_when_absent(self):
        data = Report(Collector("np"), sample_resources=False).to_dict()
        assert "profile" not in data


class TestDiff:
    def test_counter_rows_and_attribution(self):
        a = make_report(counter_value=10,
                        stacks={"main;fast": 8, "main;slow": 2})
        b = make_report(counter_value=15,
                        stacks={"main;fast": 5, "main;slow": 15})
        diff = diff_reports(a, b)
        counters = {row[0]: row for row in diff["counters"]}
        name, va, vb, delta, drift = counters["mc.states"]
        assert (va, vb, delta) == (10, 15, 5)
        assert drift == pytest.approx(0.5)
        top = diff["profile"][0]
        assert top["function"] == "slow"
        assert top["delta_fraction"] == pytest.approx(0.75 - 0.2)

    def test_attribution_fractions_survive_different_totals(self):
        # 10 vs 1000 samples: fractions, not counts, are compared.
        a = {"stacks": {"m;f": 5, "m;g": 5}, "wall_seconds": 1.0}
        b = {"stacks": {"m;f": 900, "m;g": 100}, "wall_seconds": 1.0}
        rows = attribute_regression(a, b)
        by_name = {row["function"]: row for row in rows}
        assert by_name["f"]["delta_fraction"] == pytest.approx(0.4)
        assert by_name["g"]["delta_fraction"] == pytest.approx(-0.4)

    def test_flatten_spans_sums_repeats(self):
        trace = [{"name": "s", "duration": 1.0,
                  "children": [{"name": "c", "duration": 0.25},
                               {"name": "c", "duration": 0.25}]}]
        flat = flatten_spans(trace)
        assert flat["s/c"] == {"duration": 0.5, "count": 2}

    def test_format_diff_changed_only(self):
        a = make_report(counter_value=10)
        b = make_report(counter_value=10)
        assert format_diff(diff_reports(a, b)) == "no differences"
        text = format_diff(diff_reports(a, b), changed_only=False)
        assert "mc.states" in text

    def test_attribution_for_store(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(make_report(stacks={"m;f": 9, "m;g": 1}), "a.json")
        assert attribution_for_store(store, "a.json") is None
        store.append(make_report(stacks={"m;f": 2, "m;g": 8}), "a.json")
        text = attribution_for_store(store, "a.json")
        assert "a.json#1" in text and "a.json#2" in text
        assert "hot-function attribution" in text

    def test_diff_cli_end_to_end(self, tmp_path, capsys):
        store_path = str(tmp_path / "runs.jsonl")
        store = RunStore(store_path)
        meta = {"benchmark": "explore"}
        store.append(make_report(counter_value=10, meta=meta,
                                 stacks={"m;f": 9, "m;g": 1}), "a.json")
        store.append(make_report(counter_value=20, meta=meta,
                                 stacks={"m;f": 1, "m;g": 9}), "a.json")
        code = report_main(["diff", "a.json#1", "a.json#2",
                            "--runstore", store_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "mc.states" in out
        assert "hot-function attribution" in out
        assert report_main(["diff", "a.json#1", "missing",
                            "--runstore", store_path]) == 2

    def test_default_hz_is_sane(self):
        assert DEFAULT_HZ == 100.0
