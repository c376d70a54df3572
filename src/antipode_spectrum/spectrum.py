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

from bisect import bisect_left, bisect_right

import numpy as np

from . import _linalg
from .errors import (
    AmbiguousM,
    BadParameters,
    EmptyEigenspace,
    InvalidTwist,
    JDependence,
    NotInEigenspace,
    NumericOverflow,
    ParseError,
    ZeroEntry,
)
from .grothendieck import FusionData, VerificationReport, global_dimension, q_matrix
from .modcat import ModuleActionData
from .scalar import (
    DEFAULT_TOLERANCE,
    MAX_TERM_PAIRS,
    _round_digits,
    canonical_key,
    close,
    inverse,
    is_zero,
    lift,
    numeric_value,
    roots_of_unity,
)
from .symbolic import KEY_RADIX_LIMIT, canonical_order, exponent_keys


# -- spectrum container ----------------------------------------------------------

class SpectrumFactorization:
    """Multiset of (eigenvalue, multiplicity) pairs; eigenvalues pairwise
    distinct under canonical equality, entries sorted by canonical key.

    A numeric spectrum from the sweep is held as two arrays instead, the
    eigenvalues ``values`` (complex128) and their multiplicities ``mults``
    (int64); ``entries`` is then built from them on first use.  Every other
    spectrum keeps its entries list, and ``values`` is None."""

    values = mults = None

    def __init__(self, entries, backend, tol=DEFAULT_TOLERANCE):
        self._entries = list(entries)
        self.backend = backend
        self.tol = tol
        self.total_degree = sum(m for _, m in self._entries)

    @classmethod
    def from_arrays(cls, values, mults, tol=DEFAULT_TOLERANCE):
        """The numeric spectrum of the sorted distinct eigenvalues values
        with multiplicities mults, held as the arrays themselves."""
        spec = cls.__new__(cls)
        spec.backend, spec.tol = "numeric", tol
        spec._entries, spec.values, spec.mults = None, values, mults
        spec.total_degree = sum(mults.tolist())
        return spec

    @property
    def entries(self):
        if self._entries is None:
            self._entries = list(zip(self.values.tolist(), self.mults.tolist()))
        return self._entries

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
        return len(self.entries if self.values is None else self.values)

    def close_to(self, other: "SpectrumFactorization", tol: float) -> bool:
        """Numeric comparison: same multiplicities after matching each
        eigenvalue to its nearest counterpart within tol."""
        if self.total_degree != other.total_degree or len(self) != len(other):
            return False
        # candidates sorted by real part: only those within tol of re(z) can match
        theirs = sorted(((numeric_value(w), mw) for w, mw in other.entries),
                        key=lambda t: t[0].real)
        reals = [w.real for w, _ in theirs]
        taken = [False] * len(theirs)
        for v, m in self.entries:
            z = numeric_value(v)
            lo, hi = bisect_left(reals, z.real - tol), bisect_right(reals, z.real + tol)
            best = min(((abs(z - w), i) for i, (w, mw) in enumerate(theirs[lo:hi], lo)
                        if mw == m and not taken[i]), default=None)
            if best is None or best[0] > tol:
                return False
            taken[best[1]] = True
        return True

    def uniform_root_power(self):
        """(n, e) when the spectrum is exactly all n-th roots of unity, each
        with multiplicity e: the factorization (z^n - 1)^e.  None otherwise."""
        n = len(self)
        if n == 0 or self.backend not in ("cyclotomic", "numeric"):
            return None
        mults = {m for _, m in self.entries}
        if len(mults) != 1 or not roots_of_unity([v for v, _ in self.entries]):
            return None
        return (n, mults.pop())

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
    """Exact basis of the joint eigenspace  cap_r ker(N_r - dim(X_r) I)  and
    its dimension (the multiplicity of the dimension character in Gr(M))."""
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


def _verify_eigenvector(f, mod, m, tol, dims=None):
    """Check N_r m = d_r m for every r, where d is the dimension vector unless
    given; exact for symbolic entries."""
    size = mod.size
    backend, m = lift(m)
    if backend == "symbolic":
        try:  # factored values have no sum
            m = [x.expand(MAX_TERM_PAIRS) for x in m]
        except ParseError as e:
            raise BadParameters(f"the m-vector is too large to check: {e}") from None
    for lab, d in zip(f.labels, f.dims_vector() if dims is None else dims):
        N = mod.matrix(lab)
        for j in range(size):
            lhs = sum((int(N[j, i]) * m[i] for i in range(size)), start=0 * m[0])
            if not close(lhs, d * m[j], tol):
                raise NotInEigenspace(f"N_{lab} m != d_{lab} m at row {mod.labels[j]}")


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
    lead = v[0]
    return [x / lead for x in v]


def m_bar(f: FusionData, mod: ModuleActionData, m, tol=DEFAULT_TOLERANCE):
    """Conjugate trace vector from the rank-one structure of Q_M:
    mbar_i = (Q_M)_{ji} / m_j, checked to be independent of the row j."""
    Q = q_matrix(f, mod.matrices(f))
    size = mod.size
    backend, m = lift(m)
    if backend == "symbolic":
        return _m_bar_symbolic(mod, m, Q, tol)
    mbar = [Q[0][i] / m[0] for i in range(size)]
    for j in range(size):
        for i in range(size):
            if not close(Q[j][i], mbar[i] * m[j], tol):
                raise JDependence(
                    f"row {mod.labels[j]} of Q_M is not m_j * mbar; data is not matched"
                )
    return mbar


def _m_bar_symbolic(mod, m, Q, tol):
    """m_bar for factored m; no FactoredValue is zero, so a vanishing entry
    of Q or of m_bar is None."""
    size = mod.size
    nonzero = [(j, i) for j in range(size) for i in range(size) if not is_zero(Q[j][i], tol)]
    _, lifted = lift([m[0]] + [Q[j][i] for j, i in nonzero])
    q = dict(zip(nonzero, lifted[1:]))
    mbar = [q[0, i] / m[0] if (0, i) in q else None for i in range(size)]
    for j in range(size):
        for i in range(size):
            lhs = q.get((j, i))
            rhs = None if mbar[i] is None else mbar[i] * m[j]
            if (lhs is None) != (rhs is None) or (lhs is not None and lhs != rhs):
                raise JDependence(
                    f"row {mod.labels[j]} of Q_M is not m_j * mbar; the torus "
                    "parameter does not cancel"
                )
    return mbar


def matched_checks(f: FusionData, mod: ModuleActionData, m, mbar,
                   tol=DEFAULT_TOLERANCE) -> VerificationReport:
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
    Q2 = _linalg.mat_mul(Q, Q)
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
    backend, m = lift(m)
    return pair_class_spectrum(m, n.transpose(1, 3, 0, 2), backend, tol)


def _exact_classes(values, tol):
    """One representative per canonical key, and the class of each value."""
    index, reps, classes = {}, [], []
    for v in values:
        c = index.setdefault(canonical_key(v, tol), len(reps))
        if c == len(reps):
            reps.append(v)
        classes.append(c)
    return reps, np.array(classes, dtype=np.intp)


def _fuse(words, radices):
    """One int64 per row of words (int64, shape (n, w), column j in
    [0, radices[j])), equal exactly for equal rows: the columns joined by
    mixed radix.  Where the running radix would pass KEY_RADIX_LIMIT, the
    partial ids and the next column are re-ranked first."""
    ids, span = words[:, 0], radices[0]
    for col, radix in zip(words.T[1:], radices[1:]):
        if span * radix > KEY_RADIX_LIMIT:
            uniq, ids = np.unique(ids, return_inverse=True)
            other, col = np.unique(col, return_inverse=True)
            span, radix = len(uniq), len(other)
        ids = ids * radix + col
        span *= radix
    return ids


def _merge_class_pairs(pair_keys, radices, p, q, mults):
    """The class pairs (p, q) merged by their quotient keys
    pair_keys[p] - pair_keys[q] in int64: per distinct key its first class
    pair and the sum of its multiplicities."""
    half = np.array([(r - 1) // 2 for r in radices], dtype=np.int64)
    quotient = _fuse(pair_keys[p] - pair_keys[q] + half, radices)
    order = np.argsort(quotient, kind="stable")
    starts = np.flatnonzero(np.diff(quotient[order], prepend=-1))
    first = order[starts]
    return p[first], q[first], np.add.reduceat(mults[order], starts)


def pair_class_spectrum(values, weights, backend, tol=DEFAULT_TOLERANCE, keys=None):
    """The spectrum kernel: eigenvalue values[a] values[b] / (values[c] values[d])
    with multiplicity weights[a, b, c, d], where weights is an integer tensor
    of shape (k, k, k, k) or one integer shared by every quadruple.

    keys, the symbolic.exponent_keys of the factored values of which values
    are a specialization (made here when values are factored), give the
    integer route: pair classes are the distinct sums keys[a] + keys[b],
    class pairs of nonzero total weight are merged by the difference of
    their sums in int64, and one representative class pair per distinct
    difference is evaluated in the values' own backend.  Without keys the k^2
    pair products are formed and classed (bitwise-equal floats when numeric,
    so rounding never joins two values here, else by canonical key) and one
    quotient is formed per class pair.  The quotients then merge by canonical
    key, or by sort and sweep at tol when numeric (see _sweep_numeric), which
    joins values that coincide although their keys differ."""
    k = len(values)
    if keys is None and backend == "symbolic":
        keys = exponent_keys(values)
    if keys is not None:
        sums = (keys.keys[:, None] + keys.keys[None, :]).reshape(k * k, len(keys.radices))
        _, first, cls = np.unique(_fuse(sums, keys.radices), return_index=True,
                                  return_inverse=True)
        left, right = np.divmod(first, k)
        if backend == "numeric":
            v = np.asarray(values, dtype=complex)
            with np.errstate(all="ignore"):
                reps = v[left] * v[right]
        else:
            reps = [values[i] * values[j] for i, j in zip(left.tolist(), right.tolist())]
    elif backend == "numeric":
        v = np.asarray(values, dtype=complex)
        with np.errstate(all="ignore"):
            products = np.multiply.outer(v, v).ravel()
        reps, cls = np.unique(products, return_inverse=True)
    else:
        reps, cls = _exact_classes([a * b for a in values for b in values], tol)
    if np.ndim(weights) == 0:
        hist = np.bincount(cls, minlength=len(reps))
        totals = int(weights) * np.outer(hist, hist)
    else:
        totals = np.zeros((len(reps), len(reps)), dtype=np.int64)
        np.add.at(totals, np.ix_(cls, cls), weights.reshape(k * k, k * k))
    p, q = np.nonzero(totals)
    mults = totals[p, q]
    if keys is not None:
        p, q, mults = _merge_class_pairs(sums[first], keys.radices, p, q, mults)
        if backend == "symbolic" and len(p):  # nearly in the order merge_pairs sorts into
            rows = keys.exponents[left] + keys.exponents[right]
            order = canonical_order(rows[p] - rows[q], values[0].ctx.nvars)
            p, q, mults = p[order], q[order], mults[order]
    if backend == "numeric":
        with np.errstate(all="ignore"):
            quotients = reps[p] / reps[q]
        return _sweep_numeric(quotients, mults, tol)
    inv = {b: inverse(reps[b]) for b in set(q.tolist())}
    return SpectrumFactorization.merge_pairs(
        [(reps[a] * inv[b], m) for a, b, m in zip(p.tolist(), q.tolist(), mults.tolist())],
        backend, tol,
    )


def _lex_order(primary, secondary):
    """np.lexsort((secondary, primary)): one stable argsort of the complex
    keys primary + i secondary.  Their parts are assigned, not summed, since
    x + 1j * y turns an infinite y into a nan real part."""
    keys = np.empty(len(primary), dtype=complex)
    keys.real, keys.imag = primary, secondary
    return np.argsort(keys, kind="stable")


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
    its member of least imaginary part, rounded to the digits of tol.
    NumericOverflow when a value, or its rounding, is not finite."""
    values = _finite(values)
    by_real = np.argsort(values.real)
    chain = np.empty(len(values), dtype=np.intp)
    chain[by_real] = np.cumsum(np.diff(values.real[by_real], prepend=-np.inf) > tol)
    order = _lex_order(chain, values.imag)
    values, mults, chain = values[order], mults[order], chain[order]
    new = (np.diff(chain, prepend=-1) != 0) | (np.diff(values.imag, prepend=-np.inf) > tol)
    first = values[new]
    digits = _round_digits(tol)
    with np.errstate(over="ignore"):
        reps = _finite(np.round(first.real, digits) + 1j * np.round(first.imag, digits))
    totals = np.add.reduceat(mults, np.flatnonzero(new))
    order = _lex_order(reps.real, reps.imag)
    return SpectrumFactorization.from_arrays(reps[order], totals[order], tol)


def pivotal_twist_invariance(f: FusionData, mod: ModuleActionData, m,
                             ring_character: dict, module_twist,
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
        _verify_eigenvector(f, mod, twisted_m, tol, dims)
    except NotInEigenspace as e:
        raise InvalidTwist(f"twist is not compatible with the action: {e}") from e
    return char_poly_s2(f, mod, m, tol) == char_poly_s2(f, mod, twisted_m, tol)

