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
from antipode_spectrum.errors import SchemaError
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


def test_strict_duality_without_a_dual(tmp_path, capsys):
    """verify --strict-duality on a label without a dual: a failed report
    and exit 1, not a traceback."""
    doc = json.loads(specfile.dumps(*taft_family(3), order=3))
    del doc["category"]["dual"]["2"]
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    assert main(["verify", str(spec), "--strict-duality"]) == 1
    out, err = capsys.readouterr()
    assert "    witness ('2',) dual undefined" in out and "strict-duality: ok" in out
    assert err == ""


def _entry(where, value):
    """Set entry (2, 1) of module.action["1"] or of category.cartan."""
    def mutate(doc):
        _matrix(doc, where)[2][1] = value
    return mutate


def _ragged(where):
    def mutate(doc):
        mat = _matrix(doc, where)
        mat[1] = mat[1][:2]
    return mutate


def _matrix(doc, where):
    return doc["module"]["action"]["1"] if where == "action" else doc["category"]["cartan"]


def _fusion_row(row):
    def mutate(doc):
        doc["category"]["fusion"][4] = row
    return mutate


def _two_bad_rows(doc):
    doc["category"]["fusion"][6][3] = -1
    doc["category"]["fusion"][2][1] = "y"


def _two_bad_matrices(doc):
    doc["module"]["action"]["2"][0][0] = True
    doc["module"]["action"]["1"][1][1] = -1


ENTRY_ERROR = "input error: matrix entries must be nonnegative int64 integers (at {})\n"
SHAPE_ERROR = "input error: expected a 3x3 integer matrix (at {})\n"
COUNT_ERROR = ("input error: fusion count must be a nonnegative int64 integer "
               "(at $.category.fusion[4])\n")
MATRIX_CASES = [
    (f"{where}-{name}", mutate, text.format(path))
    for where, path in (("action", "$.module.action.1"), ("cartan", "$.category.cartan"))
    for name, mutate, text in (
        ("bool", _entry(where, True), ENTRY_ERROR),
        ("2**63", _entry(where, 2**63), ENTRY_ERROR),
        ("-1", _entry(where, -1), ENTRY_ERROR),
        ("1.5", _entry(where, 1.5), ENTRY_ERROR),
        ("ragged", _ragged(where), SHAPE_ERROR),
    )
]
FUSION_CASES = [
    ("fusion-unknown-label", _fusion_row(["1", "x", "2", 1]),
     "input error: unknown label 'x' (at $.category.fusion[4])\n"),
    ("fusion-3-items", _fusion_row(["1", "1", "2"]),
     "input error: fusion rows are [q, r, s, count] (at $.category.fusion[4])\n"),
    ("fusion-count-True", _fusion_row(["1", "1", "2", True]), COUNT_ERROR),
    ("fusion-count--1", _fusion_row(["1", "1", "2", -1]), COUNT_ERROR),
    ("fusion-count-2**63", _fusion_row(["1", "1", "2", 2**63]), COUNT_ERROR),
    ("fusion-label-{}", _fusion_row(["1", {}, "2", 1]),
     "input error: unknown label {} (at $.category.fusion[4])\n"),
    ("fusion-first-bad-row", _two_bad_rows,
     "input error: unknown label 'y' (at $.category.fusion[2])\n"),
    ("action-first-bad-label", _two_bad_matrices, ENTRY_ERROR.format("$.module.action.1")),
]


@pytest.mark.parametrize("mutate, stderr", [c[1:] for c in MATRIX_CASES + FUSION_CASES],
                         ids=[c[0] for c in MATRIX_CASES + FUSION_CASES])
def test_front_end_error_texts(tmp_path, capsys, mutate, stderr):
    """A bad count, matrix entry, row shape or label in a document: exit 2
    and this exact message naming the first bad node, nothing on stdout."""
    doc = json.loads(specfile.dumps(*taft_family(3), order=3))
    mutate(doc)
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    assert main(["verify", str(spec)]) == 2
    assert tuple(capsys.readouterr()) == ("", stderr)


@pytest.mark.parametrize("value", BAD_VALUES + [7, False, 1.0, 2**63, -2**63, 2**64, "12", [1, 1],
                                                {"a": 1}, [[1, 0], [0, 1]]])
def test_matrix_screen_accepts_what_the_walk_accepts(value):
    """The whole-list screen of a map of matrices passes exactly the maps in
    which the entry-by-entry walk finds no bad matrix, wherever the value is
    put: as an entry, a row or a whole matrix."""
    for where in ("entry", "row", "matrix"):
        mats = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        if where == "entry":
            mats[1][0][1] = value
        elif where == "row":
            mats[1][0] = value
        else:
            mats[1] = value
        try:
            for mat in mats:
                specfile._check_matrix(mat, 2, "$")
            walked = True
        except SchemaError:
            walked = False
        stack = specfile._int_stack(mats, 2)
        assert (stack is not None) == walked, (where, value)
        if walked:
            assert stack.tolist() == mats
