"""Run the doctest examples embedded in public docstrings, and the
``from repro... import ...`` lines the docs show."""

import doctest
import pathlib
import re

import pytest

import repro.bip.component
import repro.core.values
import repro.runtime.spec
import repro.ta.syntax


@pytest.mark.parametrize("module", [
    repro.core.values,
    repro.ta.syntax,
    repro.bip.component,
    repro.runtime.spec,
])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures " \
                                f"in {module.__name__}"


ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_IMPORTS = [
    (f"{path.relative_to(ROOT)}:{number}", line.strip())
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1)
    if re.match(r"\s*from repro[\w.]* import \w", line)
]


@pytest.mark.parametrize("where, statement", DOC_IMPORTS,
                         ids=[where for where, _ in DOC_IMPORTS])
def test_doc_imports_resolve(where, statement):
    """Every ``from repro... import ...`` line in the docs imports."""
    exec(statement, {})


def test_doc_import_scan_finds_the_examples():
    assert len(DOC_IMPORTS) > 10
