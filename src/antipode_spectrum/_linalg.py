"""Linear algebra over one scalar backend.

``nullspace`` and ``rank`` lift their entries with scalar.lift and choose
the method from the result: exact entries (int, Fraction, CycNum) take
Gaussian elimination, numeric ones an SVD whose cutoff is tol times the
largest singular value.  ``Subspace`` is an exact subspace held in reduced
row echelon form.

Matrices are sequences of rows (lists, or a 2-D numpy array).
"""

from __future__ import annotations

import numpy as np

from .scalar import DEFAULT_TOLERANCE, inverse, lift


def _lifted(m):
    """(backend, rows, cols): the entries of m brought into one backend."""
    rows = [list(r) for r in m]
    cols = len(rows[0]) if rows else 0
    if not cols:
        return None, [], 0
    backend, flat = lift([x for r in rows for x in r])
    if backend == "numeric":
        return backend, np.array(flat, dtype=complex).reshape(len(rows), cols), cols
    return backend, [flat[i:i + cols] for i in range(0, len(flat), cols)], cols


def rref(m):
    """Reduced row echelon form of exact rows; returns (matrix, pivot_columns).

    The entries are left as they are where elimination does not reach: a
    zero of the scaled pivot row stays unscaled, and a row is updated only
    at the pivot row's nonzero columns, which are listed once per pivot."""
    m = [list(row) for row in m]
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
        m[r] = [x * inv if x else x for x in m[r]]
        support = [(j, x) for j, x in enumerate(m[r]) if x]
        for i in range(rows):
            row = m[i]
            f = row[c]
            if i != r and f:
                for j, x in support:
                    row[j] -= f * x
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m, tol=DEFAULT_TOLERANCE) -> int:
    """Rank of m: exact, or the singular values above tol * the largest."""
    backend, a, cols = _lifted(m)
    if backend != "numeric":
        return len(rref(a)[1])
    s = np.linalg.svd(a, compute_uv=False)
    return int((s > tol * s[0]).sum())


def nullspace(m, tol=DEFAULT_TOLERANCE):
    """Basis of the right kernel of m.

    Exact: one vector per free column, with the field's one there.
    Numeric: the conjugated rows of V^H (A V = U S needs columns of V) whose
    singular value is at most tol * the largest, or absent."""
    backend, a, cols = _lifted(m)
    if not cols:
        return []
    if backend == "numeric":
        _, s, vh = np.linalg.svd(a)
        return [list(v.conj()) for i, v in enumerate(vh) if i >= len(s) or s[i] <= tol * s[0]]
    red, pivots = rref(a)
    zero = a[0][0] * 0
    one = zero + 1
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


class Subspace:
    """Span of exact rows, held as the nonzero rows of their reduced row
    echelon form and the pivot column of each."""

    def __init__(self, rows):
        red, self.pivots = rref(rows)
        self.rows = red[:len(self.pivots)]
        self._supports = [[(j, x) for j, x in enumerate(row) if x] for row in self.rows]

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """v minus its component along the span: zero at every pivot.  Each
        step touches only the stored row's nonzero columns."""
        v = list(v)
        for support, p in zip(self._supports, self.pivots):
            c = v[p]
            if c:
                for j, x in support:
                    v[j] -= c * x
        return v

    def coords(self, v):
        """Coordinates of v in the rows; AssertionError when v is outside
        the span."""
        if any(self.reduce(v)):
            raise AssertionError("vector escaped the quotient basis")
        return [v[p] for p in self.pivots]
