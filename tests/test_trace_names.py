"""The benchmark's traced run (perfbench/spans.py) wraps package functions by
the names its callers look up.  Every listed name must resolve, so a refactor
that drops one fails here instead of in the traced run.  The lists are read
from the source text; nothing under perfbench/ is imported or written."""

import ast
import importlib
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def listed(name):
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {SPANS_FILE.name}")


def namespace(module):
    return vars(importlib.import_module(f"antipode_spectrum.{module}"))


def test_span_targets_resolve():
    for module, attr, _ in listed("SPANS"):
        assert callable(namespace(module).get(attr)), f"{module}.{attr}"


def test_counter_targets_resolve():
    for module, cls, attr, _ in listed("COUNTERS"):
        assert attr in vars(namespace(module)[cls]), f"{module}.{cls}.{attr}"


def test_patched_spectrum_names_resolve():
    spectrum = namespace("spectrum")
    assert callable(spectrum["canonical_key"])
    assert isinstance(vars(spectrum["SpectrumFactorization"])["merge_pairs"], classmethod)
