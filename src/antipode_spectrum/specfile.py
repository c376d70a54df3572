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
"""

from __future__ import annotations

import json
import math

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


def _parse_matrix(obj, size, path):
    if (not isinstance(obj, list) or len(obj) != size
            or any(not isinstance(r, list) or len(r) != size for r in obj)):
        raise SchemaError(f"expected a {size}x{size} integer matrix", location=path)
    for r in obj:
        for x in r:
            if not _count(x):
                raise SchemaError("matrix entries must be nonnegative int64 integers",
                                  location=path)
    return obj


def _parse_matrices(obj, size, path):
    """A map from labels to size x size integer matrices."""
    return {lab: _parse_matrix(mat, size, f"{path}.{lab}")
            for lab, mat in _object(obj, path).items()}


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
    structure = {}
    for idx, row in enumerate(fusion_triples):
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
