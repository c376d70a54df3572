"""The package ships only what it runs: every function, class and method
defined in src/ is named somewhere in src/ outside its own definition and
__init__.py, or in the benchmark's files under perfbench/ (read as text;
nothing there is imported).  A definition named only by unused ones is
unused too.  Helpers that only tests call live in tests/support.py.  Dunder
methods are called by the language, and the error classes of errors.py are
the catalogue the command line maps to exit codes; both are exempt."""

import ast
import re
from collections import Counter
from pathlib import Path

import antipode_spectrum

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "antipode_spectrum"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(tree):
    """How often tree refers to each identifier; an import is no use."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_definition_is_used_by_the_package():
    uses, definitions = Counter(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "errors.py":
            definitions += [(f"{path.stem}.{node.name}", node, names_in(node))
                            for node in ast.walk(tree) if isinstance(node, DEFINITIONS)]
        if path.name != "__init__.py":
            uses += names_in(tree)
    bench = {word for path in (ROOT / "perfbench").glob("*.py")
             for word in re.findall(r"\w+", path.read_text())}
    candidates = [d for d in definitions if d[1].name not in bench
                  and not (d[1].name.startswith("__") and d[1].name.endswith("__"))]
    unused = []
    while True:
        found = [d for d in candidates if d not in unused and uses[d[1].name] == d[2][d[1].name]]
        if not found:
            break
        for _, _, names in found:
            uses -= names
        unused += found
    assert not unused, f"defined in src/ but used only outside it: {sorted(d[0] for d in unused)}"


def test_every_export_resolves():
    package = antipode_spectrum
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
