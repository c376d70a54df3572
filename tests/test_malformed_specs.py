"""Malformed spec documents end in exit code 1 or 2, never a traceback.

Each case takes a valid document, replaces one random node by a bad value
(or deletes it) and runs one command on the result.  The seed is fixed, so
the cases are the same on every run.
"""

import contextlib
import io
import json
import random

import pytest

from antipode_spectrum import specfile
from antipode_spectrum.cli import main
from antipode_spectrum.families import (
    Group,
    regular_module,
    taft_family,
    uqsl2_family,
    vecg_family,
)
from support import fibonacci_fusion

CASES = 400
BAD_VALUES = [None, 0, -1, 1.5, "x", "", [], {}, [[1]], "1/0", "((", "1e999", True, 10**30]
DELETE = object()
COMMANDS = [
    ["verify"],
    ["solve-m"],
    ["charpoly", "--json"],
    ["pivotalize"],
    ["family", "regular", "--charpoly", "--spec"],
]


def _sources():
    s3 = Group.symmetric3()
    z6 = Group.cyclic(6)
    fib = fibonacci_fusion()
    fam = uqsl2_family(3)
    docs = [
        specfile.dumps(*taft_family(3), order=3),
        specfile.dumps(*vecg_family(s3, {g: 1 for g in s3.elements}, ["e", "s"])),
        specfile.dumps(fib, *regular_module(fib), order=5),
        specfile.dumps(*vecg_family(z6, {str(a): 1 for a in range(6)}, ["0", "3"])),
        specfile.dumps(fam.fusion, fam.module, m=fam.m, order=3),
    ]
    return [json.loads(d) for d in docs]


def _paths(node, path=()):
    """Every node below the root, as a key path."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _cases():
    rng = random.Random(20181)
    sources = _sources()
    for _ in range(CASES):
        doc = rng.choice(sources)
        path = rng.choice(list(_paths(doc)))
        value = rng.choice(BAD_VALUES + [DELETE])
        yield _mutated(doc, path, value), rng.choice(COMMANDS)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_mutated_documents_exit_cleanly(tmp_path):
    spec = tmp_path / "doc.json"
    for doc, cmd in _cases():
        text = json.dumps(doc)
        spec.write_text(text)
        try:
            code = _run(cmd + [str(spec)])
        except Exception as e:  # report the case that raised
            pytest.fail(f"{cmd} raised {type(e).__name__}: {e} on {text}")
        assert code in (0, 1, 2), (cmd, text)


@pytest.mark.parametrize(
    "literal, code",
    [("(" * 3000 + "z" + ")" * 3000, 2), ("-" * 5000 + "z", 0)],
    ids=["parentheses-too-deep", "unary-minus-chain"],
)
def test_deeply_nested_literal(tmp_path, literal, code):
    """Parentheses nest at most 200 deep; a chain of unary minuses has no
    limit.  Either way the literal never exhausts the stack."""
    f, mod, m = taft_family(3)
    doc = json.loads(specfile.dumps(f, mod, m=m, order=3))
    assert doc["m_vector"][1] == "z"
    doc["m_vector"][1] = literal
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    assert _run(["charpoly", str(spec)]) == code
