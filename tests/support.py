"""Checks and examples that only the tests use.

The package computes spectra; these helpers check them.  The matched
identity suite (Tr Q_M = dim C, Q_M rank one, Q_M^2 = dim(C) Q_M, the pivotal
normalization and the Hom table), pivotal-twist invariance, the signed form
of a matched spectrum, numeric spectrum comparison, the matched example
collection, a few algebra and field checks, field elements from long
coefficient lists, complex values of torus-parameter expressions, and the
elimination of the stacked eigenspace rows that dimension_eigenspace is
checked against live here, against the package's public outputs.
"""

from __future__ import annotations

import cmath
import itertools
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction

import numpy as np

from antipode_spectrum import _linalg
from antipode_spectrum.cyclotomic import CycField
from antipode_spectrum.errors import (
    EmptyEigenspace,
    FieldMismatch,
    InvalidTwist,
    MissingDims,
    NonRealSigns,
    NotInEigenspace,
    NotInvertibleClass,
    ZeroGlobalDimension,
)
from antipode_spectrum.families import (
    Group,
    regular_module,
    taft_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.grothendieck import FusionData, VerificationReport, q_matrix
from antipode_spectrum.oracle import StructureAlgebra
from antipode_spectrum.scalar import (
    DEFAULT_TOLERANCE,
    SignedEigenvalue,
    close,
    is_zero,
    numeric_value,
    sign,
)
from antipode_spectrum.spectrum import SpectrumFactorization, _verify_eigenvector, char_poly_s2
from antipode_spectrum.symbolic import LaurentPoly

# the relative part of close_to's bound: a few hundred ulps, the rounding two
# float evaluation orders of one eigenvalue can differ by at large |z|
RELATIVE = 1e-13


# -- spectra -------------------------------------------------------------------------

def close_to(spec: SpectrumFactorization, other: SpectrumFactorization, tol: float) -> bool:
    """Numeric comparison: same multiplicities after matching each
    eigenvalue z to its nearest counterpart within tol + RELATIVE |z|."""
    if spec.total_degree != other.total_degree or len(spec) != len(other):
        return False
    # candidates sorted by real part: only those within the bound of re(z) can match
    theirs = sorted(((numeric_value(w), mw) for w, mw in other.entries),
                    key=lambda t: t[0].real)
    reals = [w.real for w, _ in theirs]
    taken = [False] * len(theirs)
    for v, m in spec.entries:
        z = numeric_value(v)
        bound = tol + RELATIVE * abs(z)
        lo, hi = bisect_left(reals, z.real - bound), bisect_right(reals, z.real + bound)
        best = min(((abs(z - w), i) for i, (w, mw) in enumerate(theirs[lo:hi], lo)
                    if mw == m and not taken[i]), default=None)
        if best is None or best[0] > bound:
            return False
        taken[best[1]] = True
    return True


def signed_spectrum(spec: SpectrumFactorization, tol=DEFAULT_TOLERANCE) -> SpectrumFactorization:
    """Re-express a matched real spectrum as signed eigenvalues
    (sign(lambda), lambda^2) for comparison against the pivotalized route."""
    pairs = []
    for v, mult in spec.entries:
        s = sign(v, tol)
        if s == 0:
            raise NonRealSigns("zero eigenvalue cannot be signed")
        pairs.append((SignedEigenvalue(s, v * v), mult))
    return SpectrumFactorization.merge_pairs(pairs, "signed", tol)


def with_dims(f: FusionData, dims) -> FusionData:
    """f with the dimension vector dims (in the order of f.labels)."""
    return FusionData(f.labels, f.unit, f.dual, f.structure, f.cartan, zip(f.labels, dims))


def pivotal_twist_invariance(f: FusionData, mod, m, ring_character: dict, module_twist,
                             tol=DEFAULT_TOLERANCE) -> bool:
    """True iff the spectrum is unchanged by the pivotal twist
    d_r -> d_r b_r, m_i -> m_i b_i.  The pair (b_r, b_i) must satisfy the
    twisted eigenvector equations; otherwise InvalidTwist."""
    twisted_m = [x * b for x, b in zip(m, module_twist)]
    for i, x in enumerate(twisted_m):
        if is_zero(x, tol):
            raise InvalidTwist(f"twisted m_{mod.labels[i]} vanishes")
    for lab in f.labels:
        if lab not in ring_character:
            raise InvalidTwist(f"no character value for {lab}")
    dims = [d * ring_character[lab] for lab, d in zip(f.labels, f.dims_vector())]
    try:
        _verify_eigenvector(with_dims(f, dims), mod, twisted_m, tol)
    except NotInEigenspace as e:
        raise InvalidTwist(f"twist is not compatible with the action: {e}") from e
    return char_poly_s2(f, mod, m, tol) == char_poly_s2(f, mod, twisted_m, tol)


# -- the Q-element identities ------------------------------------------------------------

def global_dimension(f: FusionData):
    """dim(C) = sum_r dim(X_r) dim(X_r*); nonzero for consistent char-0 input."""
    if f.dims is None:
        raise MissingDims("global dimension needs dims")
    d = f.dims
    total = None
    for x in f.labels:
        term = d[x] * d[f.dual[x]]
        total = term if total is None else total + term
    if not total:
        raise ZeroGlobalDimension("sum of d_r * d_{r*} vanished")
    return total


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), start=row[0] * 0) for col in bt] for row in a]


def matched_checks(f: FusionData, mod, m, mbar, tol=DEFAULT_TOLERANCE) -> VerificationReport:
    """The Q-element identity suite for matched data."""
    rep = VerificationReport("matched pivotal data")
    Q = q_matrix(f, mod.matrices(f))
    size = mod.size
    dim_c = global_dimension(f)

    rep.record("trace")
    tr = Q[0][0]
    for i in range(1, size):
        tr = tr + Q[i][i]
    if not close(tr, dim_c, tol):
        rep.fail("trace", (), f"Tr(Q_M) = {tr}, expected dim(C) = {dim_c}")

    rep.record("rank-one")
    r = _linalg.rank(Q, tol)
    if r != 1:
        rep.fail("rank-one", (), f"rank(Q_M) = {r}")

    rep.record("q-squared")
    Q2 = mat_mul(Q, Q)
    for i in range(size):
        for j in range(size):
            if not close(Q2[i][j], dim_c * Q[i][j], tol):
                rep.fail("q-squared", (mod.labels[i], mod.labels[j]), "Q^2 != dim(C) Q")

    rep.record("pivotal-normalization")
    s = m[0] * mbar[0]
    for i in range(1, size):
        s = s + m[i] * mbar[i]
    if not close(s, dim_c, tol):
        rep.fail("pivotal-normalization", (), f"sum m_i mbar_i = {s} != {dim_c}")

    rep.record("hom-table")
    dims = f.dims_vector()
    for j in range(size):
        for i in range(size):
            lhs = sum(
                (d * int(mod.matrix(lab)[j, i]) for lab, d in zip(f.labels, dims)),
                start=0 * dims[0],
            )
            if not close(lhs, m[i] * mbar[j], tol):
                rep.fail(
                    "hom-table",
                    (mod.labels[i], mod.labels[j]),
                    "sum_r dim(X_r) N_{ri}^j != m_i mbar_j",
                )
    return rep


def d_action_triviality(mod, d_label) -> bool:
    """True iff the invertible class acts trivially on Gr(M).

    The label must act by a permutation matrix (invertible class)."""
    m = mod.matrix(d_label)
    if not ((m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all() and m.max() == 1):
        raise NotInvertibleClass(f"{d_label} does not act by a permutation")
    return bool((m == np.eye(mod.size, dtype=np.int64)).all())


# -- examples ----------------------------------------------------------------------------

def fibonacci_fusion() -> FusionData:
    field = CycField(5)
    phi = -(field.zeta(2)) - field.zeta(3)  # golden ratio
    return FusionData(
        labels=["1", "t"],
        unit="1",
        dual={"1": "1", "t": "t"},
        structure={("1", "1", "1"): 1, ("1", "t", "t"): 1, ("t", "1", "t"): 1,
                   ("t", "t", "1"): 1, ("t", "t", "t"): 1},
        cartan=None,
        dims={"1": field.one(), "t": phi},
    )


BuiltinExample = namedtuple("BuiltinExample", "name fusion module m q_suite pivotal_suite")


def matched_builtins():
    """Matched examples used by the property suites.

    q_suite: the rank-one Q-element identities apply (fusion-type data).
    pivotal_suite: additionally semisimple with real trace vector, so the
    signed-spectrum reduction applies.
    """
    out = []
    f, mod, m = taft_family(2)
    out.append(BuiltinExample("taft-2", f, mod, m, True, False))
    f, mod, m = taft_family(3)
    out.append(BuiltinExample("taft-3", f, mod, m, True, False))
    f, mod, m = taft_family(5, 2)
    out.append(BuiltinExample("taft-5", f, mod, m, True, False))

    z2 = Group.cyclic(2)
    f, mod, m = vecg_family(z2, {"0": 1, "1": -1}, ["0"])
    out.append(BuiltinExample("vecg-z2-sign", f, mod, m, True, True))

    z3 = Group.cyclic(3)
    field3 = CycField(3)
    f, mod, m = vecg_family(z3, {str(a): field3.zeta(a) for a in range(3)}, ["0"])
    out.append(BuiltinExample("vecg-z3-omega", f, mod, m, True, False))
    f, mod, m = vecg_family(z3, {str(a): 1 for a in range(3)}, ["0"])
    out.append(BuiltinExample("vecg-z3-trivial", f, mod, m, True, True))

    s3 = Group.symmetric3()
    f, mod, m = vecg_family(s3, {g: 1 for g in s3.elements}, ["e", "r", "r2"])
    out.append(BuiltinExample("vecg-s3-trivial", f, mod, m, True, True))
    sign = {"e": 1, "r": 1, "r2": 1, "s": -1, "sr": -1, "sr2": -1}
    f, mod, m = vecg_family(s3, sign, ["e"])
    out.append(BuiltinExample("vecg-s3-sign", f, mod, m, True, True))

    fib = fibonacci_fusion()
    mod, m = regular_module(fib)
    out.append(BuiltinExample("fibonacci-regular", fib, mod, m, True, True))

    fam = uqsl2_family(3)
    out.append(BuiltinExample("uqsl2-3-symbolic", fam.fusion, fam.module, fam.m, False, False))
    return out


# -- algebras, subspaces and fields ----------------------------------------------------------

def check_unit(alg: StructureAlgebra) -> bool:
    for i in range(alg.dim):
        e = {i: alg.field.one()}
        if alg.multiply(alg.unit, e) != e or alg.multiply(e, alg.unit) != e:
            return False
    return True


def check_associativity(alg: StructureAlgebra, triples=None) -> bool:
    """Exact (uv)w = u(vw) on basis triples; all triples when none given."""
    rng = range(alg.dim)
    if triples is None:
        triples = itertools.product(rng, rng, rng)
    one = alg.field.one()
    for i, j, k in triples:
        ei, ej, ek = {i: one}, {j: one}, {k: one}
        if alg.multiply(alg.multiply(ei, ej), ek) != alg.multiply(ei, alg.multiply(ej, ek)):
            return False
    return True


def quotient_algebra(alg: StructureAlgebra, ideal_rows) -> StructureAlgebra:
    """A / I for a two-sided ideal given by spanning rows; used to confirm
    that A/rad is semisimple."""
    ideal = _linalg.Subspace(ideal_rows)
    basis = _linalg.Subspace([ideal.reduce(r) for r in alg.identity_rows()])
    labels = [f"q{i}" for i in range(basis.dim)]
    mult = {}
    for i, ri in enumerate(basis.rows):
        vi = alg.sparse(ri)
        for j, rj in enumerate(basis.rows):
            vj = alg.sparse(rj)
            prod = basis.coords(ideal.reduce(alg.dense(alg.multiply(vi, vj))))
            mult[(i, j)] = alg.sparse(prod)
    unit = basis.coords(ideal.reduce(alg.dense(alg.unit)))
    return StructureAlgebra(labels, alg.field, mult, alg.sparse(unit))


def contains(sub: _linalg.Subspace, v) -> bool:
    return not any(sub.reduce(v))


def stacked_eigenspace(f: FusionData, mod, tol=DEFAULT_TOLERANCE):
    """dimension_eigenspace as one elimination of all the stacked rows
    N_r - d_r I, exact and numeric alike: the reference."""
    size = mod.size
    rows = []
    for m, d in zip(mod.matrices(f), f.dims_vector()):
        for j in range(size):
            row = [int(x) for x in m[j]]
            row[j] -= d
            rows.append(row)
    basis = _linalg.nullspace(rows, tol)
    if not basis:
        raise EmptyEigenspace("no matched pivotal structure for the given dims")
    return basis, len(basis)


def reduced(field: CycField, coeffs):
    """sum_e coeffs[e] zeta^e in field, for rational coefficients of any
    length: x^e reduces as zeta^(e mod n)."""
    return sum((field.zeta(e) * Fraction(c) for e, c in enumerate(coeffs) if c), field.zero())


def complex_at(x, lam: tuple) -> complex:
    """The value of the LaurentPoly or FactoredValue x at the torus point
    lam, zeta_ell taken in the standard embedding."""
    if isinstance(x, LaurentPoly):
        total = 0j
        for m, c in x.terms.items():
            v = c.complex_value()
            for t, e in zip(lam, m):
                v *= t**e
            total += v
        return total
    v = x.constant.complex_value()
    for t, e in zip(lam, x.monomial):
        v *= t**e
    z = cmath.exp(2j * cmath.pi / x.ctx.ell)
    for (coords, a), p in x.factors.items():
        la = 1.0 + 0j
        for t, e in zip(lam, coords):
            la *= t**e
        v *= (la * z**a - z**-a) ** p
    return v


def rational_value(x):
    """The Fraction of a rational CycNum."""
    if not x.is_rational():
        raise ValueError(f"{x} is not rational")
    return x.coeffs[0]


def embed(x, target: CycField):
    """Image of the CycNum x under zeta_m -> zeta_n^(n/m); requires m | n."""
    m, n = x.field.order, target.order
    if x.field is target:
        return x
    if n % m:
        raise FieldMismatch(f"Q(zeta_{m}) does not embed in Q(zeta_{n})")
    acc = [0] * n
    for k, c in enumerate(x.coeffs):
        acc[k * (n // m)] = c
    return reduced(target, acc)
