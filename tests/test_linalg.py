import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from antipode_spectrum._linalg import Subspace, nullspace, rank
from antipode_spectrum.cyclotomic import CycField, CycNum

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antipode_spectrum"


def apply(m, v):
    return [sum((a * x for a, x in zip(row, v)), start=0 * v[0]) for row in m]


class TestExact:
    def test_int_matrix(self):
        m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        basis = nullspace(m)
        assert basis == [[Fraction(-1), Fraction(-1), Fraction(1)]]
        assert all(type(x) is Fraction for x in basis[0])
        assert not any(apply(m, basis[0]))
        assert rank(m) == 2

    def test_cyclotomic_matrix(self):
        F = CycField(5)
        z = F.zeta(1)
        m = [[1, z], [z, z * z], [z * z, z**3]]  # rank one: row k is z^k (1, z)
        basis = nullspace(m)
        assert len(basis) == 1
        assert all(isinstance(x, CycNum) for x in basis[0])
        assert basis[0] == [-z, F.one()]
        assert rank(m) == 1
        assert rank([[z, 1], [1, z]]) == 2

    def test_zero_matrix_gives_identity_basis(self):
        assert nullspace([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
        F = CycField(3)
        basis = nullspace([[F.zero()] * 2])
        assert basis == [[F.one(), F.zero()], [F.zero(), F.one()]]
        assert all(isinstance(x, CycNum) for v in basis for x in v)
        assert rank([[0, 0]]) == 0

    def test_empty_matrix(self):
        assert nullspace([]) == []
        assert rank([]) == 0
        assert nullspace(np.zeros((0, 3))) == []


class TestNumeric:
    def test_complex_list(self):
        m = [[1j, 2j], [2j, 4j]]
        basis = nullspace(m)
        assert len(basis) == 1
        v = np.array(basis[0])
        assert np.allclose(np.array(m) @ v, 0)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert rank(m) == 1

    def test_float_ndarray(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        assert rank(m) == 1
        assert rank(m, tol=1e-15) == 2
        assert len(nullspace(m)) == 1
        assert nullspace(m, tol=1e-15) == []

    def test_int_and_complex_mix_is_numeric(self):
        m = [[1, 1j], [1j, -1]]  # second row is i times the first
        basis = nullspace(m)
        assert len(basis) == 1
        assert all(type(x) is not Fraction for x in basis[0])
        assert np.allclose(np.array(m) @ np.array(basis[0]), 0)
        assert rank(m) == 1

    def test_zero_matrix(self):
        basis = nullspace([[0j, 0j]])
        assert np.allclose(np.array(basis), np.eye(2))
        assert rank([[0.0, 0.0]]) == 0


class TestSubspace:
    def setup_method(self):
        F = self.F = CycField(3)
        z, o, zero = F.zeta(1), F.one(), F.zero()
        self.a = [o, z, zero]
        self.b = [zero, o, o]
        self.sub = Subspace([self.a, self.b, [o, z + 1, o]])  # third row = a + b

    def test_dim_and_echelon_form(self):
        assert self.sub.dim == 2
        assert self.sub.pivots == [0, 1]
        assert self.sub.rows[0][1] == self.F.zero()

    def test_reduce_and_contains(self):
        F = self.F
        v = [x * 2 - y * F.zeta(2) for x, y in zip(self.a, self.b)]
        assert self.sub.contains(v)
        assert not any(self.sub.reduce(v))
        w = [F.zero(), F.zero(), F.one()]
        assert not self.sub.contains(w)
        r = self.sub.reduce(w)
        assert [r[p] for p in self.sub.pivots] == [F.zero(), F.zero()]

    def test_coords(self):
        F = self.F
        c = [F.zeta(2), F.from_rational(Fraction(1, 2))]
        v = [c[0] * x + c[1] * y for x, y in zip(*self.sub.rows)]
        assert self.sub.coords(v) == c
        with pytest.raises(AssertionError, match="escaped"):
            self.sub.coords([F.zero(), F.zero(), F.one()])

    def test_empty_span(self):
        sub = Subspace([])
        assert sub.dim == 0
        assert sub.contains([]) and sub.coords([]) == []


def test_elimination_lives_in_linalg():
    """rref and svd are named in _linalg.py only: every other module reaches
    elimination through nullspace, rank and Subspace."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.FunctionDef, ast.alias)):
                name = node.name
            assert name not in ("rref", "svd"), f"{path.name}:{getattr(node, 'lineno', '?')}"
