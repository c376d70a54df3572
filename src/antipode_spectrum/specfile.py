"""JSON spec documents: the on-disk input format of the CLI.

Layout:

    {
      "scalar_backend": {"mode": "cyclotomic"|"numeric", "order": 5,
                         "precision": 1e-9},
      "category": {"labels": [...], "unit": "...", "dual": {...},
                   "fusion": [[q, r, s, count], ...],
                   "cartan": [[...]],            # optional
                   "dims": {label: literal}},    # optional
      "module": {"labels": [...], "action": {ring label: matrix}},
      "m_vector": [literal, ...],                # optional
      "pivotalization": {"nu": [literal, ...],   # optional
                         "n_plus": {label: matrix},
                         "n_minus": {label: matrix}}
    }

Scalar values are strings in the literal grammar, never floats, so exact
data survives the round trip.

Validation reads the document top down: the backend, then the category
(labels, unit, dual, fusion rows, cartan, dims), the module, m_vector and
pivotalization, and the first bad node ends the load with a SchemaError
that names its path.  The fusion rows and each map of integer matrices are
screened as one whole list first: the types and lengths of all rows at
once, and the matrices as one int64 array with one range check.  Only when
a screen fails are the entries walked one at a time, to name the first bad
one.  Literals are read through scalar.from_literal, whose cache keeps the
values of the LITERAL_CACHE_SIZE (256) most recent distinct literals, so a
literal repeated within a document or across documents is parsed once.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import ParseError, SchemaError
from .grothendieck import FusionData
from .modcat import ModuleActionData
from .pivotalization import PivotalizationData
from .scalar import DEFAULT_TOLERANCE, count_torus_vars, from_literal, literal_order, to_literal


# Q(zeta_n) keeps an n x phi(n) reduction table: about 130 MB at n = 4093
MAX_ORDER = 4096
# counts and matrix entries are stored as int64
MAX_COUNT = 2**63 - 1


class SpecDocument:
    def __init__(self, mode, order, tolerance, fusion, module, m=None, pivotalization=None):
        self.mode = mode
        self.order = order
        self.tolerance = tolerance
        self.fusion = fusion
        self.module = module
        self.m = m
        self.pivotalization = pivotalization


def _object(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", location=path)
    return obj


def _count(x):
    """True for a JSON integer in 0..MAX_COUNT (booleans excluded)."""
    return type(x) is int and 0 <= x <= MAX_COUNT


def _need(obj, key, path):
    if key not in _object(obj, path):
        raise SchemaError(f"missing key {key!r}", location=path)
    return obj[key]


def _parse_scalar(lit, mode, order, path, nvars=0):
    if not isinstance(lit, str):
        raise SchemaError("scalar values must be literal strings", location=path)
    try:
        return from_literal(lit, mode, order, nvars)
    except ParseError as e:
        raise SchemaError(f"bad scalar literal {lit!r}: {e}", location=path)


def _check_matrix(obj, size, path):
    """SchemaError unless obj is a size x size list of count rows."""
    if (not isinstance(obj, list) or len(obj) != size
            or any(not isinstance(r, list) or len(r) != size for r in obj)):
        raise SchemaError(f"expected a {size}x{size} integer matrix", location=path)
    for r in obj:
        for x in r:
            if not _count(x):
                raise SchemaError("matrix entries must be nonnegative int64 integers",
                                  location=path)


def _int_stack(mats, size):
    """mats as one int64 array of shape (len(mats), size, size) when each is
    a size x size list of count rows; None otherwise.  One screen of the
    whole list: the set of entry types (JSON booleans are not ints here)
    and the least and greatest entry, then one np.array.  A matrix or row
    that is not a list yields str entries, raises TypeError or ValueError,
    or gives another shape."""
    try:
        entries = list(chain.from_iterable(chain.from_iterable(mats)))
        if (set(map(type, entries)) <= {int}
                and (not entries or 0 <= min(entries) and max(entries) <= MAX_COUNT)):
            stack = np.array(mats, dtype=np.int64)
            if stack.shape == (len(mats), size, size):
                return stack
    except (TypeError, ValueError):
        pass
    return None


def _parse_matrix(obj, size, path):
    """A size x size count matrix, as an int64 array when size > 0."""
    stack = _int_stack([obj], size)
    if stack is None:
        _check_matrix(obj, size, path)
        return obj
    return stack[0]


def _parse_matrices(obj, size, path):
    """A map from labels to size x size count matrices, int64 arrays when
    the whole map passes _int_stack; else the entries are walked label by
    label for the first bad one."""
    mats = _object(obj, path)
    stack = _int_stack(list(mats.values()), size)
    if stack is None:
        for lab, mat in mats.items():
            _check_matrix(mat, size, f"{path}.{lab}")
        return mats
    return dict(zip(mats, stack))


def _fusion_structure(rows, labels):
    """{(q, r, s): count} of the fusion rows.  One screen of the whole list:
    every row a 4-list, the label columns within labels (an unhashable
    entry raises TypeError) and the counts ints in range.  Otherwise the
    rows are walked in order, and the first bad one raises SchemaError."""
    if not rows:
        return {}
    try:
        if set(map(type, rows)) <= {list} and set(map(len, rows)) == {4}:
            qs, rs, ss, counts = zip(*rows)
            if (set(qs).union(rs, ss) <= set(labels) and set(map(type, counts)) <= {int}
                    and min(counts) >= 0 and max(counts) <= MAX_COUNT):
                return dict(zip(zip(qs, rs, ss), counts))
    except TypeError:
        pass
    structure = {}
    for idx, row in enumerate(rows):
        path = f"$.category.fusion[{idx}]"
        if not isinstance(row, list) or len(row) != 4:
            raise SchemaError("fusion rows are [q, r, s, count]", location=path)
        q, r, s, c = row
        for lab in (q, r, s):
            if lab not in labels:
                raise SchemaError(f"unknown label {lab!r}", location=path)
        if not _count(c):
            raise SchemaError("fusion count must be a nonnegative int64 integer", location=path)
        structure[(q, r, s)] = c
    return structure


def loads(text: str) -> SpecDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}, column {e.colno}")

    backend = _need(doc, "scalar_backend", "$")
    mode = _need(backend, "mode", "$.scalar_backend")
    if mode not in ("cyclotomic", "numeric"):
        raise SchemaError(f"unknown mode {mode!r}", location="$.scalar_backend.mode")
    order = backend.get("order", 1)
    if type(order) is not int or not 1 <= order <= MAX_ORDER:
        raise SchemaError(f"order must be an integer in 1..{MAX_ORDER}",
                          location="$.scalar_backend.order")
    tolerance = backend.get("precision", backend.get("tolerance", DEFAULT_TOLERANCE))
    if type(tolerance) not in (int, float) or not 0 <= tolerance < math.inf:
        raise SchemaError("precision must be a finite nonnegative number",
                          location="$.scalar_backend.precision")
    tolerance = float(tolerance)

    cat = _need(doc, "category", "$")
    labels = _need(cat, "labels", "$.category")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels must be a list of strings", location="$.category.labels")
    unit = _need(cat, "unit", "$.category")
    dual = _object(_need(cat, "dual", "$.category"), "$.category.dual")
    fusion_triples = _need(cat, "fusion", "$.category")
    if not isinstance(fusion_triples, list):
        raise SchemaError("fusion must be a list of rows", location="$.category.fusion")
    structure = _fusion_structure(fusion_triples, labels)
    cartan = cat.get("cartan")
    if cartan is not None:
        cartan = _parse_matrix(cartan, len(labels), "$.category.cartan")
    dims = None
    if cat.get("dims") is not None:
        raw = _object(cat["dims"], "$.category.dims")
        if set(raw) != set(labels):
            raise SchemaError("dims must cover exactly the labels", location="$.category.dims")
        dims = {
            lab: _parse_scalar(raw[lab], mode, order, f"$.category.dims.{lab}")
            for lab in labels
        }
    try:
        fusion = FusionData(labels, unit, dual, structure, cartan=cartan, dims=dims)
    except Exception as e:
        raise SchemaError(str(e), location="$.category")

    modobj = _need(doc, "module", "$")
    mlabels = _need(modobj, "labels", "$.module")
    if not isinstance(mlabels, list) or not all(isinstance(x, str) for x in mlabels):
        raise SchemaError("labels must be a list of strings", location="$.module.labels")
    action_raw = _object(_need(modobj, "action", "$.module"), "$.module.action")
    if set(action_raw) != set(labels):
        raise SchemaError("module action must cover exactly the ring labels", location="$.module.action")
    action = _parse_matrices(action_raw, len(mlabels), "$.module.action")
    try:
        module = ModuleActionData(mlabels, action)
    except Exception as e:
        raise SchemaError(str(e), location="$.module")

    m = None
    if doc.get("m_vector") is not None:
        raw = doc["m_vector"]
        if not isinstance(raw, list) or len(raw) != len(mlabels):
            raise SchemaError("m_vector must list one literal per module label", location="$.m_vector")
        nvars = max((count_torus_vars(x) for x in raw if isinstance(x, str)), default=0)
        m = [
            _parse_scalar(x, mode, order, f"$.m_vector[{i}]", nvars=nvars)
            for i, x in enumerate(raw)
        ]

    pivot = None
    if doc.get("pivotalization") is not None:
        p = doc["pivotalization"]
        nu_raw = _need(p, "nu", "$.pivotalization")
        if not isinstance(nu_raw, list) or len(nu_raw) != len(mlabels):
            raise SchemaError("nu must list one literal per module label", location="$.pivotalization.nu")
        nu = [
            _parse_scalar(x, mode, order, f"$.pivotalization.nu[{i}]")
            for i, x in enumerate(nu_raw)
        ]
        n_plus = _parse_matrices(_need(p, "n_plus", "$.pivotalization"), len(mlabels),
                                 "$.pivotalization.n_plus")
        n_minus = _parse_matrices(_need(p, "n_minus", "$.pivotalization"), len(mlabels),
                                  "$.pivotalization.n_minus")
        try:
            pivot = PivotalizationData(mlabels, nu, n_plus, n_minus, unsigned=module)
        except Exception as e:
            raise SchemaError(str(e), location="$.pivotalization")

    return SpecDocument(mode, order, tolerance, fusion, module, m, pivot)


def load(path: str) -> SpecDocument:
    if path == "-":
        import sys

        return loads(sys.stdin.read())
    with open(path) as fh:
        return loads(fh.read())


# -- serialization ------------------------------------------------------------------

def dumps(fusion: FusionData, module: ModuleActionData, m=None, mode="cyclotomic",
          order=None, pivotalization=None) -> str:
    if order is None:
        order = literal_order((fusion.dims or {}).values())
    doc = {
        "scalar_backend": {"mode": mode, "order": order, "precision": DEFAULT_TOLERANCE},
        "category": {
            "labels": fusion.labels,
            "unit": fusion.unit,
            "dual": fusion.dual,
            "fusion": sorted(
                [q, r, s, int(c)] for (q, r, s), c in fusion.structure.items()
            ),
        },
        "module": {
            "labels": module.labels,
            "action": {r: module.matrix(r).tolist() for r in fusion.labels},
        },
    }
    if fusion.cartan is not None:
        doc["category"]["cartan"] = fusion.cartan.tolist()
    if fusion.dims is not None:
        doc["category"]["dims"] = {lab: to_literal(v) for lab, v in fusion.dims.items()}
    if m is not None:
        doc["m_vector"] = [to_literal(x) for x in m]
    if pivotalization is not None:
        doc["pivotalization"] = {
            "nu": [to_literal(v) for v in pivotalization.nu],
            "n_plus": {r: pivotalization.n_plus[r].tolist() for r in pivotalization.ring_labels},
            "n_minus": {r: pivotalization.n_minus[r].tolist() for r in pivotalization.ring_labels},
        }
    return json.dumps(doc, indent=2, sort_keys=True)
