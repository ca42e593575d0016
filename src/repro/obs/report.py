"""Observability reports: summary tables and a stable JSON schema.

A :class:`Report` bundles a metrics collector (and optionally a tracer)
into two views:

* human-readable :class:`~repro.core.ResultTable` summaries, grouped by
  engine namespace (``mc``, ``smc``, ``pta``, ``runtime``, ...);
* a schema-versioned JSON document for CI artifacts — consumers check
  the top-level ``"schema"`` key (:data:`SCHEMA_VERSION`) before
  reading anything else, and CI fails artifacts that lack it (see
  :func:`validate` and the ``--check`` CLI mode).

Run as a module for a self-contained demo session (the acceptance
scenario: a train-gate model-checking + SMC session)::

    PYTHONPATH=src python -m repro.obs.report --json obs_report.json

to gate CI artifacts (plain reports or ``repro.runs/1`` JSONL run
stores)::

    PYTHONPATH=src python -m repro.obs.report --check report1.json \\
        bench_runs.jsonl ...

or to diff two recorded runs counter-by-counter, span-by-span, and —
when both carry a sampling profile — with hot-function regression
attribution (``A`` / ``B`` are report files, run ids, labels, or
fingerprints in the ``--runstore``)::

    PYTHONPATH=src python -m repro.obs.report diff A B \\
        --runstore bench_runs.jsonl

or to list / compact a run store's per-label history (CI appends one
record per bench run, so stores grow without bound)::

    PYTHONPATH=src python -m repro.obs.report history bench_runs.jsonl \\
        --prune --keep 20
"""

from __future__ import annotations

import json
import os
import time

from ..core.tables import ResultTable
from .metrics import Collector, collecting
from .trace import span, tracing

#: Bump the suffix on breaking changes to the JSON layout.
SCHEMA_VERSION = "repro.obs/1"


class Report:
    """Metrics (+ optional trace and profile) packaged for humans and
    for CI.

    Unless ``sample_resources`` is off, serialising the report first
    samples the process's resource high-water marks
    (:func:`repro.obs.resources.sample`) into the collector's max
    gauges, so every report — and every run-store record — carries
    peak-RSS / heap / GC columns.  ``profile`` may be a
    :class:`~repro.obs.profiler.Profiler`, a
    :class:`~repro.obs.profiler.Profile`, or a snapshot dict.
    """

    def __init__(self, collector=None, tracer=None, meta=None,
                 profile=None, flight=None, sample_resources=True):
        self.collector = collector if collector is not None else Collector()
        self.tracer = tracer
        self.profile = profile
        self.flight = flight
        self.sample_resources = sample_resources
        self.meta = dict(meta) if meta else {}

    # -- JSON ------------------------------------------------------------------

    def profile_dict(self):
        """The attached profile as a snapshot dict, or ``None``."""
        profile = self.profile
        if profile is None:
            return None
        if hasattr(profile, "profile"):       # a Profiler
            profile = profile.profile
        if hasattr(profile, "to_dict"):       # a Profile
            return profile.to_dict()
        return dict(profile)                  # already a snapshot

    def flight_dict(self):
        """The attached flight recording (a
        :class:`~repro.obs.flight.FlightRecorder` or a snapshot dict)
        as a ``repro.flight/2`` dict, or ``None``."""
        flight = self.flight
        if flight is None:
            return None
        if hasattr(flight, "to_dict"):        # a FlightRecorder
            return flight.to_dict()
        return dict(flight)                   # already a snapshot

    def to_dict(self):
        if self.sample_resources:
            from .resources import sample
            sample(self.collector)
        data = {
            "schema": SCHEMA_VERSION,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "meta": dict(self.meta),
            "metrics": self.collector.snapshot(),
        }
        profile = self.profile_dict()
        if profile is not None:
            data["profile"] = profile
        flight = self.flight_dict()
        if flight is not None:
            data["flight"] = flight
        if self.tracer is not None:
            data["trace"] = self.tracer.to_dict()
            data["chrome_trace"] = self.tracer.to_chrome_trace()
        return data

    def write(self, path):
        """Write the JSON document atomically (temp file +
        :func:`os.replace`, like :class:`~repro.runtime.Checkpoint`):
        an interrupted run can never leave a truncated artifact for the
        CI ``--check`` gate to choke on."""
        payload = json.dumps(self.to_dict(), indent=2, default=repr)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
        return path

    # -- tables ----------------------------------------------------------------

    def tables(self):
        """One counters/gauges table per engine namespace, plus one
        table of histogram summaries."""
        snap = self.collector.snapshot()
        groups = {}
        for name, value in sorted(snap["counters"].items()):
            groups.setdefault(name.split(".", 1)[0], []).append(
                (name, value))
        for name, value in sorted(snap["gauges"].items()):
            groups.setdefault(name.split(".", 1)[0], []).append(
                (name, value))
        for name, value in sorted(snap.get("max_gauges", {}).items()):
            groups.setdefault(name.split(".", 1)[0], []).append(
                (name, value))
        out = []
        for group in sorted(groups):
            table = ResultTable("metric", "value",
                                title=f"[{group}] metrics")
            for name, value in groups[group]:
                table.add_row(name, value)
            out.append(table)
        histograms = snap["histograms"]
        if histograms:
            table = ResultTable("histogram", "count", "mean", "min", "max",
                                title="timing / size distributions")
            for name in sorted(histograms):
                h = histograms[name]
                mean = h["total"] / h["count"] if h["count"] else 0.0
                table.add_row(name, h["count"], round(mean, 6),
                              h["min"], h["max"])
            out.append(table)
        return out

    def print(self):
        for table in self.tables():
            table.print()

    def __repr__(self):
        return f"Report({self.collector!r})"


def validate(data):
    """Raise :class:`ValueError` unless ``data`` is a report dict with
    the current schema version; returns ``data`` for chaining."""
    if not isinstance(data, dict):
        raise ValueError(f"not a report object: {type(data).__name__}")
    schema = data.get("schema")
    if schema is None:
        raise ValueError("report is missing the 'schema' version key")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {schema!r} "
                         f"(expected {SCHEMA_VERSION!r})")
    if "metrics" not in data:
        raise ValueError("report has no 'metrics' section")
    if "flight" in data:
        from .flight import validate_flight

        try:
            validate_flight(data["flight"])
        except ValueError as exc:
            raise ValueError(f"embedded flight section: {exc}") from exc
    return data


def _check_one(path):
    """Validate one artifact: a ``repro.obs/1`` report, a single
    ``repro.runs/1`` record, or a JSONL run store (every line must be a
    valid run record wrapping a valid report).  Returns a short
    description; raises :class:`ValueError` on any problem."""
    from .runstore import SCHEMA_VERSION as RUNS_SCHEMA, validate_record

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        if data.get("schema") == RUNS_SCHEMA:
            validate_record(data)
            return "1 run record"
        validate(data)
        return "report"
    # Not one JSON document: treat as a JSONL run store.  All invalid
    # lines are accumulated (not just the first), so one --check pass
    # reports everything RunStore.scan() would silently skip.
    count = 0
    bad = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            bad.append(f"line {lineno}: not JSON ({exc})")
            continue
        try:
            validate_record(record)
        except ValueError as exc:
            bad.append(f"line {lineno}: {exc}")
            continue
        count += 1
    if bad:
        shown = "; ".join(bad[:5])
        if len(bad) > 5:
            shown += f"; ... and {len(bad) - 5} more"
        raise ValueError(f"{len(bad)} invalid line(s) "
                         f"({count} valid records would be kept): {shown}")
    if count == 0:
        raise ValueError("neither a report nor a run store")
    return f"{count} run records"


def check_files(paths):
    """Validate report / run-store files; returns the number of invalid
    ones and prints a verdict per file (the CI schema gate)."""
    failures = 0
    for path in paths:
        try:
            kind = _check_one(path)
        except (OSError, ValueError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
        else:
            print(f"ok   {path} ({kind})")
    return failures


# -- the demo session -------------------------------------------------------------

def demo_session(trains=3, runs=200, seed=42):
    """The acceptance scenario: one observed train-gate MC + SMC session.

    Checks ``E<> Train(0).Cross`` and deadlock freedom on the paper's
    Fig. 1 train gate, then estimates ``Pr[<=100](<> Train(0).Cross)``,
    all under one collector and tracer.  Returns the :class:`Report`.
    """
    from ..mc import EF, LocationIs, Verifier
    from ..models.traingate import cross_predicate, make_traingate
    from ..smc import probability_estimate

    network = make_traingate(trains)
    with collecting() as collector, tracing() as tracer:
        with span("session.mc", model=f"traingate-{trains}"):
            verifier = Verifier(network)
            verifier.check(EF(LocationIs("Train(0)", "Cross")))
            verifier.deadlock_free()
        with span("session.smc", runs=runs):
            probability_estimate(network, cross_predicate(0), horizon=100,
                                 runs=runs, rng=seed)
    return Report(collector, tracer,
                  meta={"session": "train-gate MC + SMC demo",
                        "trains": trains, "runs": runs, "seed": seed})


def _resolve_run(key, store):
    """Resolve a diff operand to ``(display_label, report_dict)``.

    A path to a report or run-record file wins; otherwise the key is
    looked up in ``store`` (run id, then latest label / fingerprint
    match).  Raises :class:`ValueError` when nothing resolves.
    """
    from .runstore import SCHEMA_VERSION as RUNS_SCHEMA

    if os.path.exists(key):
        with open(key, encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and data.get("schema") == RUNS_SCHEMA:
            return data["run_id"], validate(data["report"])
        return os.path.basename(key), validate(data)
    if store is None:
        raise ValueError(f"{key!r} is not a file and no --runstore was "
                         f"given to look it up in")
    record = store.find(key)
    if record is None:
        raise ValueError(f"no run matching {key!r} in {store.path}")
    sha = record.get("git_sha")
    label = record["run_id"] + (f" @ {sha[:10]}" if sha else "")
    return label, record["report"]


def diff_main(argv):
    import argparse

    from .diff import diff_reports, format_diff
    from .runstore import RunStore

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report diff",
        description="compare two recorded runs counter-by-counter and "
                    "span-by-span, with hot-function regression "
                    "attribution when both carry a profile")
    parser.add_argument("run_a", help="report file, run id, label, or "
                                      "fingerprint")
    parser.add_argument("run_b", help="as run_a; the newer run")
    parser.add_argument("--runstore", default=None, metavar="PATH",
                        help="JSONL run store to resolve run ids in")
    parser.add_argument("--top", type=int, default=10,
                        help="attribution rows to print (default 10)")
    parser.add_argument("--all", action="store_true",
                        help="include unchanged metrics")
    args = parser.parse_args(argv)

    store = RunStore(args.runstore) if args.runstore else None
    try:
        label_a, report_a = _resolve_run(args.run_a, store)
        label_b, report_b = _resolve_run(args.run_b, store)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}")
        return 2
    print(f"diff {label_a} -> {label_b}")
    print(format_diff(diff_reports(report_a, report_b, top=args.top),
                      label_a="A", label_b="B",
                      changed_only=not args.all))
    return 0


def history_main(argv):
    import argparse

    from .runstore import RunStore

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report history",
        description="inspect a JSONL run store and optionally compact "
                    "it to the newest N records per label")
    parser.add_argument("runstore", metavar="PATH",
                        help="the repro.runs/1 JSONL run store")
    parser.add_argument("--label", default=None,
                        help="restrict the listing / pruning to one "
                             "label")
    parser.add_argument("--prune", action="store_true",
                        help="rewrite the store keeping only the newest "
                             "--keep records per label (atomic)")
    parser.add_argument("--keep", type=int, default=20, metavar="N",
                        help="records to keep per label when pruning "
                             "(default 20)")
    args = parser.parse_args(argv)

    store = RunStore(args.runstore)
    if args.prune:
        try:
            kept, removed = store.prune(args.keep, label=args.label)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        print(f"pruned {args.runstore}: removed {removed} record(s), "
              f"kept {kept}")
        return 0
    records, skipped = store.scan()
    by_label = {}
    for record in records:
        if args.label is not None and record["label"] != args.label:
            continue
        by_label.setdefault(record["label"], []).append(record)
    for label in sorted(by_label):
        runs = by_label[label]
        newest = runs[-1]
        sha = newest.get("git_sha") or "?"
        print(f"{label}: {len(runs)} run(s), newest "
              f"{newest['run_id']} @ {sha[:10]} "
              f"({newest.get('created', '?')})")
    if not by_label:
        print("no matching records")
    if skipped:
        print(f"({skipped} unparseable/foreign line(s) skipped)")
    return 0


def main(argv=None):
    import argparse
    import sys

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "diff":
        return diff_main(argv[1:])
    if argv and argv[0] == "history":
        return history_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="observability demo session / report schema gate / "
                    "run diff and history (use the 'diff' / 'history' "
                    "subcommands)")
    parser.add_argument("--check", nargs="+", metavar="FILE", default=None,
                        help="validate report / run-store files and exit")
    parser.add_argument("--json", dest="json_path",
                        default="obs_report.json",
                        help="where the demo session report is written")
    parser.add_argument("--runstore", default=None, metavar="PATH",
                        help="also record the demo session report into "
                             "this JSONL run store")
    parser.add_argument("--trains", type=int, default=3)
    parser.add_argument("--runs", type=int, default=200)
    args = parser.parse_args(argv)

    if args.check is not None:
        return 1 if check_files(args.check) else 0

    report = demo_session(trains=args.trains, runs=args.runs)
    report.print()
    report.write(args.json_path)
    print(f"\nwrote {args.json_path} (schema {SCHEMA_VERSION})")
    if args.runstore:
        from .runstore import RunStore

        record = RunStore(args.runstore).append(
            report, os.path.basename(args.json_path))
        print(f"recorded {record['run_id']} -> {args.runstore}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
