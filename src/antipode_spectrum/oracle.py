"""Independent brute-force validation on explicit algebras.

Everything here recomputes from first principles what the rest of the
package takes as input: Cartan matrices are validated against radical
filtrations of the actual finite dimensional algebras, and the squared
antipode is composed directly on a PBW basis.

Elements of a StructureAlgebra are sparse dicts {basis index: CycNum}, and
each algebra carries its whole multiplication table, built when the algebra is.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _linalg
from .cyclotomic import CycField
from .errors import BadParameters
from .grothendieck import FusionData, VerificationReport
from .modcat import ModuleActionData
from .scalar import DEFAULT_TOLERANCE, lift
from .spectrum import SpectrumFactorization


class StructureAlgebra:
    """Finite dimensional associative algebra with explicit basis and sparse
    multiplication tensor over a cyclotomic field.

    ``mult`` is the complete table (i, j) -> {k: CycNum}; a pair that is
    absent multiplies to zero.
    """

    def __init__(self, labels, field: CycField, mult: dict, unit):
        self.labels = list(labels)
        self.index = {x: i for i, x in enumerate(self.labels)}
        self.field = field
        self.mult = mult
        self.unit = dict(unit)  # sparse vector

    @property
    def dim(self):
        return len(self.labels)

    def basis_product(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

    def multiply(self, v: dict, w: dict) -> dict:
        out = {}
        for i, a in v.items():
            if not a:
                continue
            for j, b in w.items():
                if not b:
                    continue
                ab = a * b
                for k, c in self.basis_product(i, j).items():
                    cur = out.get(k)
                    out[k] = ab * c if cur is None else cur + ab * c
        return {k: c for k, c in out.items() if c}

    def basis_element(self, label) -> dict:
        return {self.index[label]: self.field.one()}

    def trace_vector(self):
        """tr[i] = trace of left multiplication by e_i."""
        tr = []
        for i in range(self.dim):
            t = self.field.zero()
            for m in range(self.dim):
                t = t + self.basis_product(i, m).get(m, self.field.zero())
            tr.append(t)
        return tr

    def identity_rows(self):
        """The basis as dense rows."""
        return [self.dense({i: self.field.one()}) for i in range(self.dim)]

    def dense(self, v: dict):
        out = [self.field.zero()] * self.dim
        for k, c in v.items():
            out[k] = c
        return out

    @staticmethod
    def sparse(row) -> dict:
        """The nonzero entries of a dense row, as a sparse vector."""
        return {i: c for i, c in enumerate(row) if c}

HopfOracle = namedtuple("HopfOracle", "algebra antipode")
# antipode: dict basis index -> sparse image vector


def apply_linear(mapping: dict, v: dict) -> dict:
    out = {}
    for i, c in v.items():
        for k, d in mapping.get(i, {}).items():
            cur = out.get(k)
            out[k] = c * d if cur is None else cur + c * d
    return {k: c for k, c in out.items() if c}


# -- Taft algebra -------------------------------------------------------------------

def taft_algebra(n: int, s: int = 1) -> HopfOracle:
    """T_n on the PBW basis g^a x^b with x g = q^-1 g x, plus the antipode
    S(g) = g^-1, S(x) = -x g^-1 composed as an anti-homomorphism."""
    if n < 2 or math.gcd(s, n) != 1:
        raise BadParameters("need n >= 2 and gcd(s, n) = 1")
    field = CycField(n)
    labels = [(a, b) for a in range(n) for b in range(n)]
    index = {x: i for i, x in enumerate(labels)}
    mult = {}
    for i, (a1, b1) in enumerate(labels):
        for j, (a2, b2) in enumerate(labels):
            if b1 + b2 >= n:
                continue
            coeff = field.zeta(-s * b1 * a2)
            mult[(i, j)] = {index[((a1 + a2) % n, b1 + b2)]: coeff}
    alg = StructureAlgebra(labels, field, mult, {index[(0, 0)]: field.one()})
    g_inv = alg.basis_element(((n - 1) % n, 0))
    x_el = alg.basis_element((0, 1))
    s_of_g = g_inv
    s_of_x = {k: -c for k, c in alg.multiply(x_el, g_inv).items()}
    antipode = {}
    for i, (a, b) in enumerate(labels):
        img = dict(alg.unit)
        for _ in range(b):
            img = alg.multiply(img, s_of_x)
        for _ in range(a):
            img = alg.multiply(img, s_of_g)
        antipode[i] = img
    return HopfOracle(alg, antipode)


def taft_s2_spectrum(n: int, s: int = 1) -> SpectrumFactorization:
    """Eigenvalues of S^2 on T_n itself, by composing the antipode twice on
    the PBW basis (the matrix comes out diagonal)."""
    oracle = taft_algebra(n, s)
    alg = oracle.algebra
    pairs = []
    for i in range(alg.dim):
        img = apply_linear(oracle.antipode, apply_linear(oracle.antipode, {i: alg.field.one()}))
        if set(img) != {i}:
            raise AssertionError("S^2 is not diagonal on the PBW basis")
        pairs.append((img[i], 1))
    return SpectrumFactorization.merge_pairs(pairs, "cyclotomic")


# -- small quantum sl2 ---------------------------------------------------------------

def uqsl2_algebra(ell: int, s: int = 1) -> StructureAlgebra:
    """u_q(sl2) on the PBW basis E^a F^b K^c, 0 <= a,b,c < ell, with the
    standard straightening derived from KE = q^2 EK, KF = q^-2 FK and
    EF - FE = (K - K^-1)/(q - q^-1).  The ell^6 basis products come from
    the ell^2 normal forms of F^b E^a, each computed once."""
    if ell < 3 or ell % 2 == 0 or math.gcd(s, ell) != 1:
        raise BadParameters("need odd ell >= 3 and gcd(s, ell) = 1")
    field = CycField(ell)
    q = field.zeta(s)
    qinv = field.zeta((-s) % ell)
    denom_inv = (q - qinv).inverse()
    labels = [(a, b, c) for a in range(ell) for b in range(ell) for c in range(ell)]
    index = {x: i for i, x in enumerate(labels)}

    def mul_e_left(v):
        out = {}
        for (a, b, c), coeff in v.items():
            if a + 1 < ell:
                out[(a + 1, b, c)] = out.get((a + 1, b, c), field.zero()) + coeff
        return out

    # fe[a] = normal form of F E^a
    fe = [{(0, 1, 0): field.one()}]
    for a in range(1, ell):
        term = mul_e_left(fe[a - 1])
        k_pos = (a - 1, 0, 1)
        k_neg = (a - 1, 0, (ell - 1))
        term[k_pos] = term.get(k_pos, field.zero()) - denom_inv * field.zeta(2 * s * (a - 1))
        term[k_neg] = term.get(k_neg, field.zero()) + denom_inv * field.zeta(-2 * s * (a - 1))
        fe.append({k: c for k, c in term.items() if c})

    def mul_f_left(v):
        out = {}
        for (a, b, c), coeff in v.items():
            # F E^a = fe[a]; then append F^b K^c on the right
            for (a2, b2, c2), c_fe in fe[a].items():
                nb = b2 + b
                if nb >= ell:
                    continue
                phase = field.zeta(-2 * s * c2 * b)
                key = (a2, nb, (c2 + c) % ell)
                out[key] = out.get(key, field.zero()) + coeff * c_fe * phase
        return {k: c for k, c in out.items() if c}

    # nf[b][a] = normal form of F^b E^a
    nf = [[{(a, 0, 0): field.one()} for a in range(ell)]]
    for _ in range(1, ell):
        nf.append([mul_f_left(v) for v in nf[-1]])

    # (E^a1 F^b1 K^c1)(E^a2 F^b2 K^c2) = q^(2 c1 (a2 - b2)) E^a1 (F^b1 E^a2) F^b2 K^(c1 + c2),
    # and a term E^a3 F^b3 K^c3 of F^b1 E^a2 contributes
    # q^(-2 c3 b2) E^(a1 + a3) F^(b3 + b2) K^(c3 + c1 + c2). Distinct terms land on
    # distinct basis elements, so nothing needs summing.
    mult = {}
    for i, (a1, b1, c1) in enumerate(labels):
        for j, (a2, b2, c2) in enumerate(labels):
            prod = {
                index[(a1 + a3, b3 + b2, (c3 + c1 + c2) % ell)]:
                    coeff * field.zeta(2 * s * (c1 * (a2 - b2) - c3 * b2))
                for (a3, b3, c3), coeff in nf[b1][a2].items()
                if a1 + a3 < ell and b3 + b2 < ell
            }
            if prod:
                mult[(i, j)] = prod

    return StructureAlgebra(labels, field, mult, {index[(0, 0, 0)]: field.one()})


def uqsl2_generators(alg: StructureAlgebra) -> dict:
    return {
        "E": alg.basis_element((1, 0, 0)),
        "F": alg.basis_element((0, 1, 0)),
        "K": alg.basis_element((0, 0, 1)),
    }


def taft_generators(alg: StructureAlgebra) -> dict:
    return {"g": alg.basis_element((1, 0)), "x": alg.basis_element((0, 1))}


SimpleModule = namedtuple("SimpleModule", "name dim matrices")
# matrices: generator label -> dense CycNum matrix (list of rows)


def uqsl2_simple_modules(ell: int, s: int = 1):
    """Highest-weight simples L(mu), mu = 0..ell-1, with the standard basis:
    K v_t = q^(mu-2t) v_t, F v_t = v_{t+1}, E v_t = [t][mu-t+1] v_{t-1}."""
    field = CycField(ell)
    q = field.zeta(s)
    qinv = field.zeta((-s) % ell)
    denom_inv = (q - qinv).inverse()

    def bracket(k):
        return (field.zeta((s * k) % ell) - field.zeta((-s * k) % ell)) * denom_inv

    out = []
    for mu in range(ell):
        d = mu + 1
        zero = field.zero()
        E = [[zero] * d for _ in range(d)]
        F = [[zero] * d for _ in range(d)]
        K = [[zero] * d for _ in range(d)]
        for t in range(d):
            K[t][t] = field.zeta((s * (mu - 2 * t)) % ell)
            if t + 1 < d:
                F[t + 1][t] = field.one()
            if t >= 1:
                E[t - 1][t] = bracket(t) * bracket(mu - t + 1)
        out.append(SimpleModule(f"L{mu}", d, {"E": E, "F": F, "K": K}))
    return out


def taft_simple_modules(n: int, s: int = 1):
    field = CycField(n)
    return [
        SimpleModule(f"L{a}", 1, {"g": [[field.zeta((s * a) % n)]], "x": [[field.zero()]]})
        for a in range(n)
    ]


def taft_idempotents(n: int, s: int = 1):
    """e_a = (1/n) sum_c q^(-ac) g^c, the lifted idempotents of the group
    subalgebra, ordered to match taft_simple_modules."""
    oracle = taft_algebra(n, s)
    alg = oracle.algebra
    field = alg.field
    inv_n = field.from_rational(1) / field.from_rational(n)
    out = []
    for a in range(n):
        v = {}
        for c in range(n):
            v[alg.index[(c, 0)]] = inv_n * field.zeta((-s * a * c) % n)
        out.append(v)
    return out


# -- radical and Cartan validation ----------------------------------------------------

def radical_via_trace_form(alg: StructureAlgebra):
    """Exact basis of the Jacobson radical in characteristic zero: the null
    space of the Gram matrix B_{uv} = Tr(L_{e_u e_v}) of the trace form."""
    tr = alg.trace_vector()
    gram = []
    for u in range(alg.dim):
        row = []
        for v in range(alg.dim):
            t = alg.field.zero()
            for k, c in alg.basis_product(u, v).items():
                if tr[k]:
                    t = t + c * tr[k]
            row.append(t)
        gram.append(row)
    return _linalg.nullspace(gram)


def _ideal_chain(alg: StructureAlgebra, radical_rows):
    """rad^0 = A >= rad >= rad^2 >= ... as exact subspaces, ending at 0."""
    full = _linalg.Subspace(alg.identity_rows())
    rad = _linalg.Subspace(radical_rows)
    chain = [full, rad]
    while chain[-1].dim > 0:
        prev = chain[-1]
        gens = []
        for u in prev.rows:
            uv = alg.sparse(u)
            for w in rad.rows:
                wv = alg.sparse(w)
                gens.append(alg.dense(alg.multiply(uv, wv)))
        nxt = _linalg.Subspace(gens)
        if nxt.dim == prev.dim:
            raise AssertionError("radical chain does not descend; not nilpotent")
        chain.append(nxt)
    return chain


def _layer_action(alg: StructureAlgebra, generators, big: _linalg.Subspace,
                  small: _linalg.Subspace):
    """Action matrices of the generators on big/small, with the quotient
    basis extracted from big's rows reduced mod small."""
    basis = _linalg.Subspace([small.reduce(r) for r in big.rows])
    qdim = basis.dim
    mats = {}
    for name, g in generators.items():
        cols = []
        for row in basis.rows:
            img = alg.multiply(g, alg.sparse(row))
            cols.append(basis.coords(small.reduce(alg.dense(img))))
        mats[name] = [[cols[j][i] for j in range(qdim)] for i in range(qdim)]
    return qdim, mats


def _intertwiner_multiplicity(field, layer_dim, layer_mats, simple: SimpleModule):
    """dim Hom_A(L, layer) by exact solution of F rho(g) = sigma(g) F."""
    if layer_dim == 0:
        return 0
    dl = simple.dim
    zero = field.zero()
    rows = []
    for name, rho in simple.matrices.items():
        sigma = layer_mats[name]
        for a in range(layer_dim):
            for b in range(dl):
                row = [zero] * (layer_dim * dl)
                for t in range(dl):
                    row[a * dl + t] = row[a * dl + t] + rho[t][b]
                for u in range(layer_dim):
                    row[u * dl + b] = row[u * dl + b] - sigma[a][u]
                rows.append(row)
    return len(_linalg.nullspace(rows))


def validate_cartan(alg: StructureAlgebra, generators, simples, candidate,
                    idempotents=None) -> VerificationReport:
    """Check a candidate Cartan matrix C_{qr} = [P_r : L_q] against the
    algebra itself.

    (a) with lifted idempotents: dim(A e_r) must equal sum_q C_{qr} dim L_q;
    (b) always: the aggregate multiplicities [A : L_q] from the radical
        filtration must equal sum_r C_{qr} dim L_r.
    """
    import numpy as np

    rep = VerificationReport("cartan matrix candidate")
    candidate = np.asarray(candidate, dtype=np.int64)
    k = len(simples)
    if candidate.shape != (k, k):
        rep.record("shape")
        rep.fail("shape", candidate.shape, f"expected {k}x{k}")
        return rep
    dims = [sm.dim for sm in simples]

    if idempotents is not None:
        rep.record("projective-dims")
        for r, e in enumerate(idempotents):
            cols = []
            for m in range(alg.dim):
                prod = alg.multiply({m: alg.field.one()}, e)
                cols.append(alg.dense(prod))
            got = _linalg.rank(cols)
            want = int(sum(candidate[q][r] * dims[q] for q in range(k)))
            if got != want:
                rep.fail("projective-dims", (simples[r].name,), f"dim A e = {got}, expected {want}")

    rep.record("aggregate-multiplicities")
    radical = radical_via_trace_form(alg)
    chain = _ideal_chain(alg, radical)
    totals = [0] * k
    for big, small in zip(chain[:-1], chain[1:]):
        layer_dim, mats = _layer_action(alg, generators, big, small)
        for qi, sm in enumerate(simples):
            totals[qi] += _intertwiner_multiplicity(alg.field, layer_dim, mats, sm)
    for qi, sm in enumerate(simples):
        want = int(sum(candidate[qi][r] * dims[r] for r in range(k)))
        if totals[qi] != want:
            rep.fail(
                "aggregate-multiplicities",
                (sm.name,),
                f"[A : {sm.name}] = {totals[qi]}, expected {want}",
            )
    return rep


# -- independent spectrum enumeration ---------------------------------------------------

def brute_force_spectrum(f: FusionData, mod: ModuleActionData, m,
                         tol=DEFAULT_TOLERANCE) -> SpectrumFactorization:
    """Plain quadruple-loop evaluation of the block multiplicities and
    eigenvalue ratios, independent of the vectorized route in spectrum."""
    backend, m = lift(m)
    size = mod.size
    cart = [[int(x) for x in row] for row in f.cartan_matrix()]
    mats = [mod.matrix(r) for r in f.labels]
    nring = len(f.labels)
    pairs = []
    for i in range(size):
        for j in range(size):
            for k in range(size):
                for l in range(size):
                    n = 0
                    for q in range(nring):
                        nq = int(mats[q][j, i])
                        if not nq:
                            continue
                        for r in range(nring):
                            c = cart[q][r]
                            if c:
                                n += nq * c * int(mats[r][k, l])
                    if n:
                        pairs.append(((m[j] * m[l]) / (m[i] * m[k]), n))
    return SpectrumFactorization.merge_pairs(pairs, backend, tol)
