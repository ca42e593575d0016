"""CI benchmark-regression gate.

Compares the ``repro.obs``-schema JSON artifacts produced by the
bench-smoke job against the committed baseline
(``benchmarks/BENCH_baseline.json``) and fails on regression:

* **exact** metrics (seeded, combinatorial — state counts, run totals,
  iteration counts within tolerance 0) must match the baseline to the
  digit; a drift means an engine changed behaviour, not just speed;
* **tolerance** metrics (``{"value": v, "tolerance": 0.1}``) may move
  within a relative band — used for quantities with benign jitter;
* **floor** metrics (``{"min": m}``) must stay at or above a bound —
  used for speedups, which vary with CI hardware but must not collapse.

Usage (the CI bench-smoke job)::

    python benchmarks/check_regression.py \
        --baseline benchmarks/BENCH_baseline.json \
        parallel_smc.json engine_metrics.json \
        exploration_metrics.json mdp_metrics.json

Re-baselining: when a PR *intentionally* changes a gated metric (a new
engine explores fewer states, a budget changes), regenerate the
baseline with the same commands CI runs (see the workflow's bench-smoke
job, including its ``REPRO_*`` environment) and rewrite the committed
file::

    python benchmarks/check_regression.py --update \
        --baseline benchmarks/BENCH_baseline.json \
        parallel_smc.json engine_metrics.json ...

``--update`` keeps each metric's spec shape (tolerance band, floor),
the file's key order and its ``meta`` entries, and only refreshes the
expected values and the ``meta`` provenance stamp; review the diff like
any other code change.  Artifacts are keyed by basename, metrics by
dotted path into the report (``counters.X`` / ``gauges.X`` /
``meta.X``, with list indices allowed, e.g.
``meta.workloads.0.speedup``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BASELINE_SCHEMA = "repro.bench-baseline/1"
DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "BENCH_baseline.json")


def metric_view(report):
    """The gated view of a ``repro.obs`` report: ``counters`` and
    ``gauges`` (which the schema nests under ``metrics``) plus
    ``meta``, addressable with the dotted paths the baseline uses."""
    metrics = report.get("metrics", {})
    return {"counters": metrics.get("counters", {}),
            "gauges": metrics.get("gauges", {}),
            "max_gauges": metrics.get("max_gauges", {}),
            "histograms": metrics.get("histograms", {}),
            "meta": report.get("meta", {})}


def lookup(report, path):
    """Resolve a dotted path (``counters.mc.states`` or
    ``meta.workloads.0.speedup``) into a report dict.  The path is
    resolved greedily: at each node the longest dotted prefix that is a
    key wins, so metric names containing dots need no escaping."""
    node = report
    rest = path
    while rest:
        if isinstance(node, list):
            head, _, rest = rest.partition(".")
            try:
                node = node[int(head)]
            except (ValueError, IndexError):
                return None
            continue
        if not isinstance(node, dict):
            return None
        if rest in node:
            return node[rest]
        parts = rest.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            head = ".".join(parts[:cut])
            if head in node:
                node = node[head]
                rest = ".".join(parts[cut:])
                break
        else:
            return None
    return node


def check_metric(name, spec, actual):
    """Return an error string, or None when the metric passes."""
    if actual is None:
        return f"{name}: missing from artifact"
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        return f"{name}: not numeric ({actual!r})"
    if "min" in spec:
        if actual < spec["min"]:
            return (f"{name}: {actual:g} fell below the floor "
                    f"{spec['min']:g}")
        return None
    expected = spec["value"]
    tolerance = spec.get("tolerance", 0)
    if tolerance == 0:
        if actual != expected:
            return (f"{name}: {actual!r} != baseline {expected!r} "
                    f"(exact metric — seeded/combinatorial)")
        return None
    scale = max(abs(expected), 1e-12)
    drift = abs(actual - expected) / scale
    if drift > tolerance:
        return (f"{name}: {actual:g} drifted {drift:.1%} from baseline "
                f"{expected:g} (tolerance {tolerance:.0%})")
    return None


def check_artifact(name, specs, report):
    errors = []
    for metric, spec in sorted(specs.items()):
        problem = check_metric(f"{name}:{metric}", spec, lookup(report,
                                                                metric))
        if problem:
            errors.append(problem)
    return errors


def update_baseline(baseline, reports):
    """Refresh expected values in place, keeping each spec's shape, and
    stamp provenance (git SHA + date) into the baseline's ``meta``,
    keeping its other entries (such as ``note``)."""
    for name, report in reports.items():
        specs = baseline["artifacts"].get(name)
        if specs is None:
            continue
        view = metric_view(report)
        for metric, spec in specs.items():
            actual = lookup(view, metric)
            if actual is None or "min" in spec:
                continue
            spec["value"] = actual
    meta = baseline.setdefault("meta", {})
    meta["git_sha"] = _git_sha()
    meta["updated"] = time.strftime("%Y-%m-%d")
    return baseline


def _git_sha():
    """The checkout's HEAD SHA, or None outside a git worktree (this
    script stays standalone, so no repro.obs import here)."""
    import subprocess
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def print_attribution(store_path, labels):
    """Best-effort regression attribution from the run history: for
    each failing artifact, diff its two most recent recorded runs."""
    try:
        from repro.obs.diff import attribution_for_store
        from repro.obs.runstore import RunStore
    except ImportError as exc:
        print(f"(no attribution: repro.obs not importable — {exc}; "
              f"run with PYTHONPATH=src)", file=sys.stderr)
        return
    if not os.path.exists(store_path):
        print(f"(no attribution: run store {store_path} not found)",
              file=sys.stderr)
        return
    store = RunStore(store_path)
    for label in sorted(labels):
        text = attribution_for_store(store, label)
        if text is None:
            print(f"(no attribution for {label}: fewer than two runs "
                  f"recorded in {store_path})", file=sys.stderr)
            continue
        print(f"\nattribution for {label} (last two recorded runs):",
              file=sys.stderr)
        print(text, file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="gate benchmark artifacts against the committed "
                    "baseline")
    parser.add_argument("artifacts", nargs="+",
                        help="repro.obs report JSON files (keyed by "
                             "basename in the baseline)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON (default: the committed "
                             "benchmarks/BENCH_baseline.json)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline's expected values "
                             "from these artifacts instead of checking")
    parser.add_argument("--runstore", default=None, metavar="PATH",
                        help="repro.runs/1 run history; on gate failure "
                             "print per-artifact regression attribution "
                             "from the last two recorded runs")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"error: {args.baseline} is not a {BASELINE_SCHEMA} file",
              file=sys.stderr)
        return 2

    reports = {}
    for path in args.artifacts:
        with open(path) as handle:
            reports[os.path.basename(path)] = json.load(handle)

    if args.update:
        update_baseline(baseline, reports)
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"rewrote {args.baseline}")
        return 0

    errors = []
    checked = 0
    failing = set()
    for name, report in sorted(reports.items()):
        specs = baseline["artifacts"].get(name)
        if specs is None:
            errors.append(f"{name}: no baseline entry — add one to "
                          f"{args.baseline}")
            continue
        checked += len(specs)
        problems = check_artifact(name, specs, metric_view(report))
        if problems:
            failing.add(name)
        errors.extend(problems)
    for name in baseline["artifacts"]:
        if name not in reports:
            errors.append(f"{name}: in the baseline but not among the "
                          f"artifacts passed on the command line")

    if errors:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        print("(intentional change? re-baseline per the module "
              "docstring of benchmarks/check_regression.py)",
              file=sys.stderr)
        if args.runstore and failing:
            print_attribution(args.runstore, failing)
        return 1
    print(f"benchmark regression gate passed: {checked} metrics across "
          f"{len(reports)} artifacts within baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
