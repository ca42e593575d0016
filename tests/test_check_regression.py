"""``benchmarks/check_regression.py --update`` on a copy of a committed
baseline: it refreshes the expected values and stamps provenance, but
keeps the file's ``meta.note`` and its key order."""

import importlib.util
import json
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_BASELINE = os.path.join(ROOT, "benchmarks", "LINT_baseline.json")


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression",
        os.path.join(ROOT, "benchmarks", "check_regression.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def key_paths(node, prefix=()):
    """Every dict key path in document order."""
    if not isinstance(node, dict):
        return []
    paths = []
    for key, value in node.items():
        paths.append(prefix + (key,))
        paths.extend(key_paths(value, prefix + (key,)))
    return paths


def test_update_refreshes_values_and_keeps_note_and_key_order(tmp_path):
    baseline = tmp_path / "LINT_baseline.json"
    shutil.copy(LINT_BASELINE, baseline)
    with open(LINT_BASELINE) as handle:
        before = json.load(handle)
    specs = before["artifacts"]["lint_metrics.json"]
    counters = {path.removeprefix("counters."): spec["value"] + 1
                for path, spec in specs.items()}
    artifact = tmp_path / "lint_metrics.json"
    artifact.write_text(json.dumps({"metrics": {"counters": counters},
                                    "meta": {}}))

    assert load_gate().main(["--update", "--baseline", str(baseline),
                             str(artifact)]) == 0

    after = json.loads(baseline.read_text())
    assert {path: spec["value"] for path, spec in
            after["artifacts"]["lint_metrics.json"].items()} == {
        path: spec["value"] + 1 for path, spec in specs.items()}
    assert after["meta"]["note"] == before["meta"]["note"]
    assert "updated" in after["meta"] and "git_sha" in after["meta"]
    stamp = [("meta", "git_sha"), ("meta", "updated")]
    assert [path for path in key_paths(after)
            if path not in stamp] == key_paths(before)
