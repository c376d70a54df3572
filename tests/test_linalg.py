import ast
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from antipode_spectrum import _linalg
from antipode_spectrum._linalg import Subspace, nullspace, rank
from antipode_spectrum.cyclotomic import CycField, CycNum
from antipode_spectrum.families import taft_family
from antipode_spectrum.scalar import inverse, lift
from antipode_spectrum.spectrum import dimension_eigenspace
from support import contains

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
        assert contains(self.sub, v)
        assert not any(self.sub.reduce(v))
        w = [F.zero(), F.zero(), F.one()]
        assert not contains(self.sub, w)
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
        assert contains(sub, []) and sub.coords([]) == []


def dense_rref(m):
    """Gaussian elimination as it was written over whole rows: the reference."""
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


def dense_reduce(sub, v):
    """Subspace.reduce as it was written over whole rows: the reference."""
    v = list(v)
    for row, p in zip(sub.rows, sub.pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def typed(rows):
    """Rows as (type, value) pairs, so equal values of unequal kinds differ."""
    return [[(type(x), x) for x in row] for row in rows]


class TestSparseElimination:
    """rref and Subspace.reduce skip zero entries; the dense loops they
    replaced are the reference, element for element and type for type."""

    def test_matches_dense_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        field = CycField(5)
        z = field.zeta(1)

        @st.composite
        def matrices(draw):
            kind = draw(st.sampled_from(["int", "Fraction", "CycNum"]))

            def entry():
                if draw(st.integers(0, 3)):  # about three in four entries are zero
                    return {"int": 0, "Fraction": Fraction(0), "CycNum": field.zero()}[kind]
                a = draw(st.integers(-3, 3))
                if kind == "int":
                    return a
                q = Fraction(a, draw(st.integers(1, 4)))
                return q if kind == "Fraction" else q + draw(st.integers(-2, 2)) * z ** draw(st.integers(0, 4))

            rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 6))  # rows > cols too
            m = [[entry() for _ in range(cols)] for _ in range(rows)]
            if m and draw(st.booleans()):
                m.insert(draw(st.integers(0, rows)), list(m[draw(st.integers(0, rows - 1))]))
            if m and draw(st.booleans()):
                m[draw(st.integers(0, len(m) - 1))] = [m[0][0] * 0] * cols
            if m and draw(st.booleans()):
                c = draw(st.integers(0, cols - 1))
                m = [row[:c] + [row[c] * 0] + row[c + 1:] for row in m]
            v = [entry() for _ in range(cols)]
            if m and draw(st.booleans()):  # a vector in the span
                k = draw(st.integers(-2, 2))
                v = [a + k * b for a, b in zip(m[0], m[-1])]
            return m, v

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(matrices())
        def check(mv):
            m, v = mv
            copy = [list(row) for row in m]
            got_null, got_rank = nullspace(m), rank(m)
            with mock.patch.object(_linalg, "rref", dense_rref):
                assert typed(nullspace(m)) == typed(got_null)
                assert rank(m) == got_rank
            # rref and Subspace take rows of one kind; nullspace and rank lift
            # ints to Fractions before they eliminate
            if m and type(m[0][0]) is int:
                m = [lift(row)[1] for row in m]
                v = lift(v)[1]
            red, pivots = _linalg.rref(m)
            want_red, want_pivots = dense_rref(m)
            assert pivots == want_pivots and typed(red) == typed(want_red)
            sub = Subspace(m)
            assert sub.pivots == want_pivots and typed(sub.rows) == typed(want_red[:len(pivots)])
            assert typed([sub.reduce(v)]) == typed([dense_reduce(sub, v)])
            assert contains(sub, v) == (not any(dense_reduce(sub, v)))
            assert [list(row) for row in mv[0]] == copy  # the input is left as it was

        check()

    def test_taft_eigenspace_multiplication_count(self):
        """The Taft n=9 eigenspace: elimination over zeros of the 81 x 9
        stacked rows (144 nonzero entries) would make 2,452 products of
        CycNums, the sparse one 576; the kernels intersected one label at a
        time make 191, and the bound leaves 25% above that."""
        fusion, module, _ = taft_family(9)
        calls = []
        mul_vec = CycField._mul_vec

        def counted(self, a, b):
            calls.append(1)
            return mul_vec(self, a, b)

        with mock.patch.object(CycField, "_mul_vec", counted):
            basis, dim = dimension_eigenspace(fusion, module)
        assert dim == 1
        assert len(calls) <= 238

    def test_taft_eigenspace_lifts_only_nonzeros(self):
        """The Taft n=9 eigenspace makes 91 field elements from rationals
        when every integer entry is lifted and an int is compared with a
        CycNum through one; the 63 zero entries of its first block now share
        the field's zero, and an int compares without one, which leaves 19.
        The bound leaves 25% above that."""
        fusion, module, _ = taft_family(9)
        calls = []
        from_rational = CycField.from_rational

        def counted(self, q):
            calls.append(q)
            return from_rational(self, q)

        with mock.patch.object(CycField, "from_rational", counted):
            basis, dim = dimension_eigenspace(fusion, module)
        assert dim == 1
        assert len(calls) <= 24


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
