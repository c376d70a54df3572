"""The package ships only what it runs: every function, class and method
defined in src/ is used somewhere in src/ outside its own definition and
__init__.py, or named in the code of the benchmark's files under
perfbench/ (as a name or in a string constant, read with tokenize: comments
and docstrings do not count, and nothing there is imported).  A
module-level (or nested) function or class is used only through its bare
name in its own module, a name imported from that module, or an attribute
of a name bound to that module (``_linalg.rank``); a method only through an
attribute.  A definition used only by unused ones is unused too.  Helpers
that only tests call live in tests/support.py.  Dunder methods are called by
the language, and the error classes of errors.py are the catalogue the
command line maps to exit codes; both are exempt."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import antipode_spectrum

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "antipode_spectrum"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def bindings(tree):
    """The names a module binds by relative imports: each imported name to
    (its module, its name there), and each imported module's name to the
    module."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return names, modules


def uses_in(tree, module, names, modules):
    """How often tree uses each definition key: (module, name) for a
    module-level or nested definition, ("attr", name) for a method.  An
    import is no use."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[names.get(node.id, (module, node.id))] += 1
        elif isinstance(node, ast.Attribute):
            uses["attr", node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                uses[modules[node.value.id], node.attr] += 1
    return uses


def unused_definitions(sources: dict, exempt=frozenset()) -> list:
    """The "module.name" of each definition in sources (module name ->
    source text) that nothing but unused definitions uses, leaving out
    __init__'s uses, errors' definitions, dunder methods and the names in
    exempt."""
    uses, definitions = Counter(), []
    for module, text in sources.items():
        tree = ast.parse(text)
        scope = bindings(tree)
        if module != "errors":
            owners = {id(item): f"{node.name}." for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)
                      for item in node.body if isinstance(item, DEFINITIONS)}
            definitions += [(f"{module}.{owners.get(id(node), '')}{node.name}",
                             ("attr", node.name) if id(node) in owners else (module, node.name),
                             uses_in(node, module, *scope))
                            for node in ast.walk(tree) if isinstance(node, DEFINITIONS)
                            and node.name not in exempt
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
        if module != "__init__":
            uses += uses_in(tree, module, *scope)
    unused = []
    while True:
        found = [d for d in definitions if d not in unused and uses[d[1]] == d[2][d[1]]]
        if not found:
            break
        for *_, own in found:
            uses -= own
        unused += found
    return sorted(d[0] for d in unused)


def code_words(text):
    """The words of a module's names and string constants, read with
    tokenize: its comments and docstrings are left out."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    words = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME or (tok.type == tokenize.STRING
                                         and tok.start not in docstrings):
            words.update(re.findall(r"\w+", tok.string))
    return words


def test_every_definition_is_used_by_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = set().union(*(code_words(path.read_text())
                          for path in (ROOT / "perfbench").glob("*.py")))
    assert unused_definitions(sources, bench) == []


def test_comments_and_docstrings_are_no_words():
    text = ('"""rank, in the module docstring."""\n\n'
            "def f():\n    \"\"\"matrix, in a docstring.\"\"\"\n"
            "    return g('select_m') + h  # lift, in a comment\n")
    assert code_words(text) == {"def", "f", "return", "g", "select_m", "h"}


def test_an_attribute_of_another_object_is_no_use():
    """An unused f is flagged beside an unrelated obj.f, which a scan by bare
    name takes for a use; each of the three ways to use a module-level
    definition, and an attribute for a method, counts."""
    sources = {
        "a": "def f():\n    pass\n\n\ndef g():\n    pass\n\n\ndef h():\n    pass\n\n\n"
             "def k():\n    pass\n\n\nclass C:\n    def f(self):\n        pass\n\n\nk()\n",
        "b": "from . import a\nfrom .a import C, g as gee\n\n\n"
             "def run(obj):\n    return obj.f, gee(), a.h(), C\n\n\nrun(None)\n",
    }
    assert unused_definitions(sources) == ["a.f"]
    assert unused_definitions({"a": sources["a"], "b": "def run(obj):\n    return obj.f\n"}) \
        == ["a.C", "a.C.f", "a.f", "a.g", "a.h", "b.run"]


def test_every_export_resolves():
    package = antipode_spectrum
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
