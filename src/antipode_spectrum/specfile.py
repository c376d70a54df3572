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

from .errors import ParseError, SchemaError
from .grothendieck import FusionData
from .modcat import ModuleActionData
from .pivotalization import PivotalizationData
from .scalar import DEFAULT_TOLERANCE, count_torus_vars, from_literal, literal_order, to_literal


class SpecDocument:
    def __init__(self, mode, order, tolerance, fusion, module, m=None, pivotalization=None):
        self.mode = mode
        self.order = order
        self.tolerance = tolerance
        self.fusion = fusion
        self.module = module
        self.m = m
        self.pivotalization = pivotalization


def _need(obj, key, path):
    if key not in obj:
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
            if not isinstance(x, int) or x < 0:
                raise SchemaError("matrix entries must be nonnegative integers", location=path)
    return obj


def loads(text: str) -> SpecDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}, column {e.colno}")
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object", location="$")

    backend = _need(doc, "scalar_backend", "$")
    mode = _need(backend, "mode", "$.scalar_backend")
    if mode not in ("cyclotomic", "numeric"):
        raise SchemaError(f"unknown mode {mode!r}", location="$.scalar_backend.mode")
    order = backend.get("order", 1)
    if not isinstance(order, int) or order < 1:
        raise SchemaError("order must be a positive integer", location="$.scalar_backend.order")
    tolerance = float(backend.get("precision", backend.get("tolerance", DEFAULT_TOLERANCE)))

    cat = _need(doc, "category", "$")
    labels = _need(cat, "labels", "$.category")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels must be a list of strings", location="$.category.labels")
    unit = _need(cat, "unit", "$.category")
    dual = _need(cat, "dual", "$.category")
    if not isinstance(dual, dict):
        raise SchemaError("dual must map labels to labels", location="$.category.dual")
    fusion_triples = _need(cat, "fusion", "$.category")
    structure = {}
    for idx, row in enumerate(fusion_triples):
        path = f"$.category.fusion[{idx}]"
        if not isinstance(row, list) or len(row) != 4:
            raise SchemaError("fusion rows are [q, r, s, count]", location=path)
        q, r, s, c = row
        for lab in (q, r, s):
            if lab not in labels:
                raise SchemaError(f"unknown label {lab!r}", location=path)
        if not isinstance(c, int) or c < 0:
            raise SchemaError("fusion count must be a nonnegative integer", location=path)
        structure[(q, r, s)] = c
    cartan = cat.get("cartan")
    if cartan is not None:
        cartan = _parse_matrix(cartan, len(labels), "$.category.cartan")
    dims = None
    if cat.get("dims") is not None:
        raw = cat["dims"]
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
    action_raw = _need(modobj, "action", "$.module")
    if set(action_raw) != set(labels):
        raise SchemaError("module action must cover exactly the ring labels", location="$.module.action")
    action = {
        lab: _parse_matrix(action_raw[lab], len(mlabels), f"$.module.action.{lab}")
        for lab in action_raw
    }
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
        n_plus = {
            lab: _parse_matrix(mat, len(mlabels), f"$.pivotalization.n_plus.{lab}")
            for lab, mat in _need(p, "n_plus", "$.pivotalization").items()
        }
        n_minus = {
            lab: _parse_matrix(mat, len(mlabels), f"$.pivotalization.n_minus.{lab}")
            for lab, mat in _need(p, "n_minus", "$.pivotalization").items()
        }
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
