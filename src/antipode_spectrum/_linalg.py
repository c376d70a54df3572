"""Exact Gaussian elimination over a field (CycNum or Fraction entries),
plus a numeric SVD nullspace for the float backend.

Matrices are lists of row lists.  Entries must support +, -, *, bool
(nonzero test), == and scalar.inverse.
"""

from __future__ import annotations

import numpy as np

from .scalar import inverse


def mat_copy(m):
    return [list(row) for row in m]


def rref(m):
    """Reduced row echelon form in place; returns (matrix, pivot_columns)."""
    m = mat_copy(m)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = inverse(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m) -> int:
    return len(rref(m)[1])


def nullspace(m, one, zero):
    """Basis of the right kernel, one vector per free column.

    ``one``/``zero`` are the field constants used to fill the basis vectors.
    """
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), start=row[0] * 0) for col in bt] for row in a]


def numeric_nullspace(a: np.ndarray, tol: float):
    """Right-kernel basis via SVD; threshold = tol * largest singular value.

    Kernel vectors are the conjugated rows of V^H (A V = U S needs columns
    of V, i.e. conj(vh rows))."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return []
    _, s, vh = np.linalg.svd(a)
    cutoff = tol * (s[0] if len(s) else 1.0)
    null_rows = [vh[i].conj() for i in range(vh.shape[0]) if i >= len(s) or s[i] <= cutoff]
    return [np.asarray(v) for v in null_rows]


def numeric_rank(a: np.ndarray, tol: float) -> int:
    a = np.asarray(a, dtype=complex)
    s = np.linalg.svd(a, compute_uv=False)
    if not len(s):
        return 0
    return int((s > tol * s[0]).sum())
