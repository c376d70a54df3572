"""Module-trace vectors and the factored characteristic polynomial of the
squared antipode.

Conventions.  Action matrices follow the module-data convention
(N_r)_{ji} = N_{ri}^j, and the module-trace vector is the right eigenvector
N_r m = dim(X_r) m.  With these conventions the rank-one structure of
Q_M = sum_r dim(X_r*) N_r reads Q_M = m . mbar^T, so mbar is extracted from
the rows of Q_M and the dimension table is

    sum_r dim(X_r) (N_r)_{ji} = m_i mbar_j .

On examples with real self-conjugate data both index orders coincide.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import _linalg
from .cyclotomic import (
    ROW_LIMIT,
    CycField,
    coefficient_approx,
    coefficient_pairs,
    coefficient_rows,
    coefficient_values,
    fit,
    matmul,
    max_abs,
)
from .errors import (
    AmbiguousM,
    BadParameters,
    EmptyEigenspace,
    JDependence,
    NotInEigenspace,
    NumericOverflow,
    ParseError,
    ZeroEntry,
)
from .grothendieck import FusionData, q_matrix
from .modcat import ModuleActionData
from .scalar import (
    DEFAULT_TOLERANCE,
    MAX_TERM_PAIRS,
    _round_digits,
    canonical_key,
    close,
    divided,
    inverse,
    is_zero,
    lift,
    roots_of_unity,
    unit_roots,
)
from .symbolic import canonical_order, exponent_keys, row_values


# -- spectrum container ----------------------------------------------------------

class SpectrumFactorization:
    """Multiset of (eigenvalue, multiplicity) pairs; eigenvalues pairwise
    distinct under canonical equality, entries sorted by canonical key.

    The kernel's spectra are held as arrays instead, with their
    multiplicities ``mults`` (int64): a numeric one as its eigenvalues
    ``values`` (complex128); a symbolic one whose eigenvalues have constant
    1 as their exponent ``rows`` (int64, columns as in
    symbolic.exponent_keys: the monomial, then the powers of ``atoms``) in
    the context ``ctx``; and an exact one as its coefficient rows
    ``coeffs`` = (tops, bottoms), each coefficient tops[i, j] / bottoms[i, j]
    of eigenvalue i in the power basis of ``field`` in lowest terms (row i
    is the sort_key of the eigenvalue), int64 or, where a value passes
    cyclotomic.ROW_LIMIT, object; ``field`` is None when the eigenvalues
    are Fractions, of one coefficient each.  ``entries`` is then built from
    the arrays on first use; ``entries_in(chunk)`` builds only the pairs of
    one chunk, as the text output does, and leaves ``entries`` unbuilt.
    Every other spectrum keeps its entries list, and ``mults`` is None."""

    values = mults = rows = coeffs = field = None

    def __init__(self, entries, backend, tol=DEFAULT_TOLERANCE):
        self._entries = list(entries)
        self.backend = backend
        self.tol = tol
        self.total_degree = sum(m for _, m in self._entries)

    @classmethod
    def _from_mults(cls, backend, mults, tol, make_values):
        """A spectrum with multiplicities mults whose eigenvalues, in the same
        order, make_values(chunk) lists for each slice chunk of them.  The total
        degree is summed in int64 over the high and the low 32 bits of each
        multiplicity apart, exact for any int64 mults; NumericOverflow when
        there are so many that a half could wrap."""
        if len(mults) >= 2**31:
            raise NumericOverflow(
                f"the total degree of {len(mults)} multiplicities may leave int64")
        spec = cls.__new__(cls)
        spec.backend, spec.tol, spec.mults = backend, tol, mults
        spec._entries, spec._make_values = None, make_values
        spec.total_degree = (int((mults >> 32).sum()) << 32) + int((mults & 0xFFFFFFFF).sum())
        return spec

    @classmethod
    def from_arrays(cls, values, mults, tol=DEFAULT_TOLERANCE):
        """The numeric spectrum of the sorted distinct eigenvalues values
        with multiplicities mults, held as the arrays themselves."""
        spec = cls._from_mults("numeric", mults, tol, lambda chunk: values[chunk].tolist())
        spec.values = values
        return spec

    @classmethod
    def from_rows(cls, rows, mults, atoms, ctx, tol=DEFAULT_TOLERANCE):
        """The symbolic spectrum of the distinct eigenvalues of constant 1
        with exponent rows, sorted in canonical order, and multiplicities
        mults, held as the arrays themselves."""
        spec = cls._from_mults("symbolic", mults, tol,
                               lambda chunk: row_values(ctx, atoms, rows[chunk]))
        spec.rows, spec.atoms, spec.ctx = rows, atoms, ctx
        return spec

    @classmethod
    def from_coefficients(cls, field, tops, bottoms, mults, tol=DEFAULT_TOLERANCE):
        """The cyclotomic spectrum of the distinct eigenvalues with coefficients
        tops / bottoms in field (None: Fractions), sorted by canonical key,
        and multiplicities mults, held as the arrays themselves."""
        spec = cls._from_mults("cyclotomic", mults, tol,
                               lambda chunk: coefficient_values(field, tops[chunk], bottoms[chunk]))
        spec.coeffs, spec.field = (tops, bottoms), field
        return spec

    @property
    def entries(self):
        if self._entries is None:
            self._entries = self.entries_in(slice(None))
        return self._entries

    def entries_in(self, chunk: slice):
        """The (value, multiplicity) pairs entries[chunk], built from the
        arrays alone while entries is not built."""
        if self._entries is not None:
            return self._entries[chunk]
        return list(zip(self._make_values(chunk), self.mults[chunk].tolist()))

    @classmethod
    def merge_pairs(cls, pairs, backend, tol=DEFAULT_TOLERANCE):
        acc = {}
        for value, mult in pairs:
            k = canonical_key(value, tol)
            if k in acc:
                acc[k][1] += mult
            else:
                acc[k] = [value, mult]
        items = sorted(acc.items(), key=lambda kv: kv[0])
        return cls([(v, m) for _, (v, m) in items], backend, tol)

    def multiset(self):
        return {canonical_key(v, self.tol): m for v, m in self.entries}

    def __eq__(self, other):
        if not isinstance(other, SpectrumFactorization):
            return NotImplemented
        return self.multiset() == other.multiset()

    def __len__(self):
        return len(self.entries if self.mults is None else self.mults)

    def uniform_root_power(self):
        """(n, e) when the spectrum is exactly all n-th roots of unity, each
        with multiplicity e: the factorization (z^n - 1)^e.  None otherwise."""
        n = len(self)
        if n == 0 or self.backend not in ("cyclotomic", "numeric"):
            return None
        if self.mults is None:
            mults = {m for _, m in self.entries}
            if len(mults) != 1 or not roots_of_unity([v for v, _ in self.entries]):
                return None
            return (n, mults.pop())
        # decided from the arrays: the coefficient rows are screened by their
        # complex values, and only rows that pass are built into values
        if (self.mults != self.mults[0]).any():
            return None
        if self.values is not None:
            z = self.values
        else:
            z = np.empty(n, dtype=complex)
            z.real, z.imag = coefficient_approx(self.field or CycField(1), *self.coeffs)
        if not unit_roots(z) or (self.coeffs is not None
                                 and not roots_of_unity(self._make_values(slice(None)))):
            return None
        return (n, int(self.mults[0]))

    def __str__(self):
        rp = self.uniform_root_power()
        if rp:
            return f"(z^{rp[0]} - 1)^{rp[1]}"
        parts = []
        for v, m in self.entries:
            sv = f"{v:.6g}" if self.backend == "numeric" else str(v)
            parts.append(f"(z - {sv})^{m}")
        return " ".join(parts)


# -- eigenspace machinery --------------------------------------------------------

def dimension_eigenspace(f: FusionData, mod: ModuleActionData, tol=DEFAULT_TOLERANCE):
    """Basis of the joint eigenspace  cap_r ker(N_r - dim(X_r) I)  and its
    dimension (the multiplicity of the dimension character in Gr(M));
    EmptyEigenspace when it is zero.

    Numeric dims: one SVD of the stacked rows N_r - d_r I (_linalg.nullspace,
    cutoff tol).  Exact dims: the kernels are intersected one label at a
    time (_joint_kernel), and the basis is the one an elimination of the
    stacked rows gives, entry for entry.  That basis depends on the kernel
    alone: equal kernels have equal row spaces, hence the same reduced row
    echelon form and the same free columns, and nullspace lists one vector
    per free column c, one at c and zero at every other free column.  Its
    last nonzero entry is at c, as a pivot row of the echelon form is zero
    left of its pivot; so read right to left these vectors are the reduced
    row echelon form of the kernel, in reverse order.  A basis of one
    vector is brought to it by scaling its last nonzero entry to one, a
    larger one by a Subspace of its rows with the columns reversed."""
    matrices, dims = mod.matrices(f), f.dims_vector()
    backend, lifted = lift(dims)
    if backend == "cyclotomic":
        basis = _joint_kernel(matrices, lifted, mod.size)
    else:
        rows = []
        for m, d in zip(matrices, dims):
            for j in range(mod.size):
                row = [int(x) for x in m[j]]
                row[j] -= d
                rows.append(row)
        basis = _linalg.nullspace(rows, tol)
    if not basis:
        raise EmptyEigenspace("no matched pivotal structure for the given dims")
    return basis, len(basis)


def _joint_kernel(matrices, dims, size):
    """The canonical basis (see dimension_eigenspace) of the vectors v of
    length size with N v = d v for each integer matrix N and exact d of
    dims (Fractions, or CycNum of one field); [] when there are none, or no
    matrices.  A running basis B starts as the whole space.  A block
    N - d I that is zero leaves it; the first nonzero one gives
    B = nullspace(N - d I), and each later one W = (N - d I) B^T, from the
    nonzero entries of N, and B <- nullspace(W) B unless W = 0."""
    if not size or not dims:
        return []
    basis = None  # the whole space
    changed = False  # B is no longer a nullspace of its own
    for N, d in zip(matrices, dims):
        block = N.tolist()
        rows = [[(i, x) for i, x in enumerate(row) if x] for row in block]
        if all(row == [(j, d)] for j, row in enumerate(rows)):
            continue
        if basis is None:
            for j in range(size):
                block[j][j] -= d
            basis = _linalg.nullspace(block)
        else:
            W = [[sum((v[i] if x == 1 else x * v[i] for i, x in row), -(d * v[j]) if v[j] else v[j])
                  for v in basis] for j, row in enumerate(rows)]
            if not any(x for row in W for x in row):
                continue
            basis = [_combination(c, basis) for c in _linalg.nullspace(W)]
            changed = True
        if not basis:
            return []
    if basis is None:
        zero = dims[0] * 0
        one = zero + 1
        return [[one if i == j else zero for i in range(size)] for j in range(size)]
    if not changed:
        return basis
    if len(basis) == 1:
        v = basis[0]
        inv = inverse(next(x for x in reversed(v) if x))
        return [[x * inv if x else x for x in v]]
    return [v[::-1] for v in reversed(_linalg.Subspace([v[::-1] for v in basis]).rows)]


def _combination(coeffs, vectors):
    """sum_c coeffs[c] vectors[c], over the nonzero coefficients."""
    out = None
    for c, v in zip(coeffs, vectors):
        if c:
            term = v if c == 1 else [c * x if x else x for x in v]
            out = term if out is None else [a + b for a, b in zip(out, term)]
    return out


def _verify_eigenvector(f, mod, m, tol):
    """Check N_r m = d_r m for every r, d the dimension vector; exact for
    exact and symbolic entries.  NotInEigenspace names the first label, and
    in it the first row, where the check fails."""
    size = mod.size
    dims = f.dims_vector()
    backend, m = lift(m)
    if backend == "cyclotomic":
        joint, values = lift(m + dims)
        if joint == "cyclotomic":
            return _verify_exact(f, mod, values[:size], values[size:])
    if backend == "symbolic":
        try:  # factored values have no sum
            m = [x.expand(MAX_TERM_PAIRS) for x in m]
        except ParseError as e:
            raise BadParameters(f"the m-vector is too large to check: {e}") from None
    for lab, d in zip(f.labels, dims):
        N = mod.matrix(lab)
        for j in range(size):
            lhs = sum((int(N[j, i]) * m[i] for i in range(size)), start=0 * m[0])
            if not close(lhs, d * m[j], tol):
                raise NotInEigenspace(f"N_{lab} m != d_{lab} m at row {mod.labels[j]}")


def _verify_exact(f, mod, m, dims):
    """_verify_eigenvector for exact m and dims (CycNum of one field, or
    Fractions), all labels in one batch: m is the integer rows M over their
    common denominator, and N_r m = d_r m reads den(d_r) N_r M ==
    num(d_r) M, the right side one batch of mul_rows."""
    field, num, den, top = coefficient_rows(m + dims)
    field = field or CycField(1)
    size, count = len(m), len(dims)
    common = math.lcm(*den[:size].tolist())
    M = fit(num[:size].astype(object) * (common // den[:size])[:, None])
    lhs = matmul(np.stack([mod.matrix(lab) for lab in f.labels]), M)
    bound = (max_abs(lhs) + 1) * top  # also bounds the denominators
    lhs = fit(lhs, bound) * fit(den[size:], bound)[:, None, None]
    rhs = field.mul_rows(np.tile(M, (count, 1)), num[size:], np.repeat(np.arange(count), size))
    bad = np.flatnonzero((lhs.reshape(count * size, -1) != rhs).any(axis=1))
    if len(bad):
        lab, j = f.labels[bad[0] // size], mod.labels[bad[0] % size]
        raise NotInEigenspace(f"N_{lab} m != d_{lab} m at row {j}")


def select_m(f: FusionData, mod: ModuleActionData, eigenspace=None, candidate=None,
             tol=DEFAULT_TOLERANCE):
    """Pick the module-trace vector.

    Unique eigenvector: scaled to first entry 1, all entries checked nonzero.
    Higher multiplicity: a candidate is required and is verified to solve the
    eigenvector equations with no vanishing entry.  A verified candidate is a
    dimension eigenvector, so the eigenspace is computed only when the
    candidate fails, to report an absent dimension character first.
    """
    if eigenspace is not None and eigenspace[1] == 0:
        raise EmptyEigenspace("dimension character does not occur")
    if candidate is not None:
        try:
            for i, x in enumerate(candidate):
                if is_zero(x, tol):
                    raise ZeroEntry(f"candidate m_{mod.labels[i]} = 0")
            _verify_eigenvector(f, mod, candidate, tol)
        except (ZeroEntry, NotInEigenspace):
            if eigenspace is None:
                dimension_eigenspace(f, mod, tol)  # raises EmptyEigenspace
            raise
        return list(candidate)
    basis, mult = eigenspace if eigenspace is not None else dimension_eigenspace(f, mod, tol)
    if mult > 1:
        raise AmbiguousM(
            f"dimension character has multiplicity {mult}; supply an m-vector"
        )
    v = basis[0]
    for i, x in enumerate(v):
        if is_zero(x, tol):
            raise ZeroEntry(f"m_{mod.labels[i]} = 0 in the unique eigenvector")
    return divided(v, v[0])


def m_bar(f: FusionData, mod: ModuleActionData, m, tol=DEFAULT_TOLERANCE):
    """Conjugate trace vector from the rank-one structure of Q_M:
    mbar_i = (Q_M)_{ji} / m_j, checked to be independent of the row j.
    m and the entries of Q_M are lifted into one backend together."""
    size = mod.size
    Q = q_matrix(f, mod.matrices(f))
    _, values = lift(list(m) + [x for row in Q for x in row])
    m, Q = values[:size], [values[size * (j + 1):size * (j + 2)] for j in range(size)]
    mbar = [Q[0][i] / m[0] for i in range(size)]
    for j in range(size):
        for i in range(size):
            if not close(Q[j][i], mbar[i] * m[j], tol):
                raise JDependence(
                    f"row {mod.labels[j]} of Q_M is not m_j * mbar; data is not matched"
                )
    return mbar


# -- the characteristic polynomial ------------------------------------------------

def block_multiplicities(f: FusionData, mod: ModuleActionData) -> np.ndarray:
    """n_{ijkl} = sum_{q,r} N_{qi}^j C_{qr} N_{rl}^k as an int64 tensor."""
    T = np.stack([mod.matrix(r) for r in f.labels])  # T[r, j, i]
    C = f.cartan_matrix()
    return np.einsum("qji,qr,rkl->ijkl", T, C, T)


def char_poly_s2(f: FusionData, mod: ModuleActionData, m,
                 tol=DEFAULT_TOLERANCE) -> SpectrumFactorization:
    """Factored characteristic polynomial of S^2 on the weak Hopf algebra of
    (C, M): eigenvalue m_j m_l / (m_i m_k) with multiplicity n_{ijkl},
    merged under canonical equality."""
    n = block_multiplicities(f, mod)
    return pair_class_spectrum(m, n.transpose(1, 3, 0, 2), tol)


def pair_class_spectrum(values, weights, tol=DEFAULT_TOLERANCE, factored=None):
    """The spectrum kernel: eigenvalue values[a] values[b] / (values[c] values[d])
    with multiplicity weights[a, b, c, d], where weights is an integer tensor
    of shape (k, k, k, k) or one integer shared by every quadruple.  The
    values are lifted into one backend here.

    Each of the k^2 pair products values[a] values[b] gets an id, and the
    pair classes are the distinct ids, each with its first pair (a, b).
    The id is the sum keys[a] + keys[b] of the symbolic.exponent_keys of
    the values when they are factored, or else of factored, the factored
    values of which values are a specialization (there are keys only when
    those share one nonzero constant); without keys, the complex product as
    the row of its two parts when numeric (equal floats, so rounding never
    joins two values here), else the product itself, as exact values are
    canonical.  distinct_rows classes the id rows.  With keys, class
    pairs of nonzero total weight are merged by the difference of their
    sums, word by word in int64 (merge_rows), and values that are factored
    themselves are not evaluated at all: every quotient has constant 1,
    and its exponent row, the difference of two pair sums of rows, is its
    canonical form, so distinct differences are distinct eigenvalues (the
    atoms are pairwise coprime irreducibles of a unique factorization
    domain), listed in canonical order as a row-backed spectrum.
    Otherwise one representative product per class is formed, and one
    quotient per class pair: numeric ones merge by sort and sweep at tol
    (see _sweep_numeric), exact ones as coefficient rows
    (_quotient_spectrum), factored ones by merge_pairs; these join values
    that coincide although their ids differ.  An exact zero that a
    quotient divides by raises DivisionByZero."""
    backend, values = lift(values)
    k = len(values)
    source = values if backend == "symbolic" else factored
    keys = None if source is None else exponent_keys(source)
    if backend == "numeric":
        values = np.asarray(values, dtype=complex)
    if keys is None and backend != "numeric":
        # exact values are canonical, so equal ones hash and compare equal;
        # a class is numbered, and represented, by its first product
        first_of = {}
        cls = np.array([first_of.setdefault(a * b, len(first_of))
                        for a, b in itertools.product(values, repeat=2)], dtype=np.intp)
        reps = list(first_of)
        classes = len(reps)
    else:
        if keys is not None:
            ids = sums = (keys.keys[:, None] + keys.keys[None, :]).reshape(k * k, -1)
        else:
            with np.errstate(all="ignore"):
                products = np.multiply.outer(values, values).ravel()
            ids = np.stack([products.real, products.imag], axis=1)
        first, cls = distinct_rows(ids)
        left, right = np.divmod(first, k)
        classes = len(first)
    if np.ndim(weights) == 0:
        hist = np.bincount(cls, minlength=classes)
        totals = int(weights) * np.outer(hist, hist)
    else:
        totals = np.zeros((classes, classes), dtype=np.int64)
        np.add.at(totals, np.ix_(cls, cls), weights.reshape(k * k, k * k))
    p, q = np.nonzero(totals)
    mults = totals[p, q]
    if keys is not None:
        merged, mults = merge_rows(sums[first[p]] - sums[first[q]], mults)
        p, q = p[merged], q[merged]
        if backend == "symbolic":
            rows = keys.exponents[left] + keys.exponents[right]
            quotients = rows[p] - rows[q]
            order = canonical_order(quotients, values[0].ctx.nvars)
            return SpectrumFactorization.from_rows(quotients[order], mults[order],
                                                   keys.atoms, values[0].ctx, tol)
    if backend == "numeric":
        with np.errstate(all="ignore"):
            reps = values[left] * values[right]
            quotients = reps[p] / reps[q]
        return _sweep_numeric(quotients, mults, tol)
    if keys is not None:
        reps = [values[i] * values[j] for i, j in zip(left.tolist(), right.tolist())]
    if backend == "symbolic":
        inv = {b: inverse(reps[b]) for b in set(q.tolist())}
        return SpectrumFactorization.merge_pairs(
            [(reps[a] * inv[b], m) for a, b, m in zip(p.tolist(), q.tolist(), mults.tolist())],
            backend, tol,
        )
    return _quotient_spectrum(reps, p, q, mults, tol)


def _quotient_spectrum(reps, p, q, mults, tol):
    """The eigenvalues reps[p] / reps[q] of the exact class representatives
    reps (CycNum of one field, or Fractions), with multiplicities mults,
    merged and listed by canonical key as a coefficient-row spectrum.  Each
    class is inverted once; the quotients are one batch of row products,
    and their coefficients in lowest terms, their canonical form, are
    sorted with the rational ones first, as canonical_key sorts them."""
    field, num, den, top = coefficient_rows(reps + [inverse(r) for r in reps])
    ring, classes = field or CycField(1), len(reps)
    den = fit(den, top * top)
    tops, bottoms = coefficient_pairs(ring.mul_rows(num[p], num[classes:], q),
                                      den[p] * den[classes + q])
    pairs = np.stack([tops, bottoms], axis=2).reshape(len(tops), 2 * ring.degree)  # p0, q0, ...
    if pairs.dtype == object:
        pairs = np.column_stack([k for c in pairs.T for k in _int64_keys(c)])
    irrational = (tops[:, 1:] != 0).any(axis=1)  # sorts last
    first, totals = merge_rows(np.column_stack([irrational, pairs]), mults)
    return SpectrumFactorization.from_coefficients(field, tops[first], bottoms[first], totals, tol)


def sorted_runs(rows):
    """(order, new) for the int or float matrix rows: the stable order that
    sorts its rows lexicographically, column 0 first (np.lexsort, much
    faster on a few columns than a unique over rows), and whether each row
    along it differs from the one before: True at the first and at a NaN."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return order, new


def distinct_rows(rows):
    """(first, ids) for the matrix rows: the index of the first occurrence
    of each distinct row, the distinct rows in sorted_runs order, and the
    number of each row's class in that order."""
    order, new = sorted_runs(rows)
    ids = np.empty(len(rows), np.intp)
    ids[order] = np.cumsum(new) - 1
    return order[new], ids


def merge_rows(rows, mults):
    """(first, totals) for the int matrix rows and int64 mults: the index of
    the first occurrence of each distinct row, in sorted_runs order, and the
    sum of the mults of its equal rows."""
    order, new = sorted_runs(rows)
    starts = np.flatnonzero(new)
    totals = np.add.reduceat(mults[order], starts) if len(order) else mults
    return order[starts], totals


def _int64_keys(col):
    """int64 columns, most significant first, whose lexicographic order and
    equality are those of the integers col: col itself when it is int64,
    else its 62-bit digits in two's complement (x = hi 2^62 + lo with
    0 <= lo < 2^62)."""
    if col.dtype != object:
        return [col]
    keys = []
    while max_abs(col) >= ROW_LIMIT:
        keys.append((col & (ROW_LIMIT - 1)).astype(np.int64))
        col = col >> 62
    keys.append(col.astype(np.int64))
    return keys[::-1]


def _lex_order(primary, secondary):
    """np.lexsort((secondary, primary)): one stable argsort of the complex
    keys primary + i secondary.  Their parts are assigned, not summed, since
    x + 1j * y turns an infinite y into a nan real part."""
    keys = np.empty(len(primary), dtype=complex)
    keys.real, keys.imag = primary, secondary
    return np.argsort(keys, kind="stable")


def _ties_by_index(order, primary, secondary):
    """order, with each run of equal (primary, secondary) keys (as sorted
    along it; -0.0 == 0.0) put in increasing index, as np.lexsort leaves
    ties."""
    same = (primary[1:] == primary[:-1]) & (secondary[1:] == secondary[:-1])
    tied = np.flatnonzero(same)
    if not len(tied):
        return order
    at = np.union1d(tied, tied + 1)
    run = np.cumsum(np.concatenate(([True], ~same)))[at] * len(order)
    order[at] = np.sort(run + order[at]) - run
    return order


def _finite(values):
    """values, when all of them are finite; NumericOverflow otherwise."""
    if not np.isfinite(values).all():
        raise NumericOverflow(
            "a numeric eigenvalue is not finite: the data overflowed the float range; "
            "use the cyclotomic mode for exact values")
    return values


def _sweep_numeric(values, mults, tol):
    """Merge numeric eigenvalues into clusters: sorted by real part, neighbours
    at most tol apart chain together; each chain, sorted by imaginary part,
    splits where neighbours are more than tol apart.  A cluster is listed as
    its member of least imaginary part, rounded to the digits of tol, with
    a zero part as +0.0 (as in canonical_key).  NumericOverflow when a
    value, or its rounding, is not finite."""
    values = _finite(values)
    by_real = np.argsort(values.real)
    chain = np.cumsum(np.diff(values.real[by_real], prepend=-np.inf) > tol)
    imag = values.imag[by_real]
    # the (chain, imag) order is sorted in real-sorted position: chain does
    # not decrease there, so the stable sort meets nearly sorted keys
    sub = _lex_order(chain, imag)
    chain = chain[sub]
    order = _ties_by_index(by_real[sub], chain, imag[sub])
    values, mults = values[order], mults[order]
    new = (np.diff(chain, prepend=-1) != 0) | (np.diff(values.imag, prepend=-np.inf) > tol)
    first = values[new]
    digits = _round_digits(tol)
    with np.errstate(over="ignore"):
        reps = _finite((np.round(first.real, digits) + 0.0)
                       + 1j * (np.round(first.imag, digits) + 0.0))
    totals = np.add.reduceat(mults, np.flatnonzero(new))
    order = _lex_order(reps.real, reps.imag)
    return SpectrumFactorization.from_arrays(reps[order], totals[order], tol)

