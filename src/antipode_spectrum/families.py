"""Built-in families: Taft, small quantum sl2 with a torus parameter, the
dynamical families for simply-laced root systems, pointed categories Vec_G
with a pivotal character, and regular modules.

Each generator returns verified Grothendieck-level data together with the
module-trace vector.  `uqg_family` instead evaluates the closed product
formula of the dynamical families; for type A1 it is an independent
cross-check of the block route on `uqsl2_family`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections import namedtuple

import numpy as np

from .cyclotomic import CycField
from .errors import BadParameters, EmptyEigenspace, MissingDims, NotACharacter, NotASubgroup, ZeroEntry
from .grothendieck import FusionData
from .modcat import ModuleActionData
from .scalar import DEFAULT_TOLERANCE, inverse, is_zero, lift
from .spectrum import SpectrumFactorization, dimension_eigenspace, pair_class_spectrum
from .symbolic import FactoredContext, FactoredValue


# -- Chebyshev polynomials of the second kind ------------------------------------

def _chebyshev(x, one, mul, count):
    """[P_1(x), ..., P_count(x)] for P_1 = 1, P_2 = x and
    P_{j+1} = x P_j - P_{j-1}, in the ring of x with unit one and product mul."""
    out = [one, x]
    while len(out) < count:
        out.append(mul(x, out[-1]) - out[-2])
    return out[:count]


# -- torus characters -------------------------------------------------------------

def _torus_characters(ell, s, roots, pairings, lam, tol):
    """y_i = prod_a (L^roots[a] q^p - q^-p), p = pairings[a][i] and
    q = zeta_ell^s, at the torus point lam: "symbolic" (or None) gives
    factored values; exact coordinates give CycNum values; numeric ones give
    complex values.  lam is one coordinate per torus variable, a scalar when
    there is one.  ZeroEntry when some Lambda^alpha is an ell-th root of
    unity, which makes a character vanish."""
    if ell < 3 or ell % 2 == 0:
        raise BadParameters("ell must be odd and >= 3")
    if math.gcd(s, ell) != 1:
        raise BadParameters("q = zeta_ell^s must be primitive")
    rank, count = len(roots[0]), len(pairings[0])
    if lam is None or lam == "symbolic":
        ctx = FactoredContext(ell, rank)
        ys = [FactoredValue.one(ctx)] * count
        for alpha, row in zip(roots, pairings):
            ys = [y * FactoredValue.atom(ctx, alpha, s * p) for y, p in zip(ys, row)]
        return ys
    coords = lam if isinstance(lam, (list, tuple)) else [lam]
    if len(coords) != rank:
        raise BadParameters(f"torus point needs {rank} coordinate(s), got {len(coords)}")
    backend, coords = lift(coords)
    if backend == "numeric":
        q = cmath.exp(2j * cmath.pi * s / ell)
        ys = np.ones(count, dtype=complex)
    else:
        field = CycField(ell)
        ys = [field.one()] * count
    for alpha, row in zip(roots, pairings):
        la = math.prod(x**e for x, e in zip(coords, alpha))
        # |la| > 2 puts la^ell, which may overflow, at least 7 away from 1
        if (backend != "numeric" or abs(la) <= 2) and is_zero(la**ell - 1, tol):
            raise ZeroEntry(f"Lambda_alpha^ell = 1 for root {alpha}")
        if backend == "numeric":
            p = np.array(row)
            ys = ys * (la * q**p - q ** (-p.astype(float)))
        else:
            ys = [y * (la * field.zeta(s * p) - field.zeta(-s * p)) for y, p in zip(ys, row)]
    return ys.tolist() if backend == "numeric" else ys


# -- Taft family ------------------------------------------------------------------

def taft_family(n: int, s: int = 1):
    """Grothendieck data of (Rep T_n, Rep Z/n): group ring of Z/n with
    dims q^a (q = zeta_n^s), all-ones Cartan matrix, and m_i = q^i.

    The action uses the inverse-shift orientation (N_a)_{ji} = [j = i - a],
    which is the labeling that makes N_a m = q^a m hold with both d_a = q^a
    and m_i = q^i.
    """
    if n < 2 or math.gcd(s, n) != 1:
        raise BadParameters("need n >= 2 and gcd(s, n) = 1")
    field = CycField(n)
    q = field.zeta(s)
    labels = [str(a) for a in range(n)]
    structure = {
        (str(a), str(b), str((a + b) % n)): 1 for a in range(n) for b in range(n)
    }
    fusion = FusionData(
        labels=labels,
        unit="0",
        dual={str(a): str((-a) % n) for a in range(n)},
        structure=structure,
        cartan=np.ones((n, n), dtype=np.int64),
        dims={str(a): q**a for a in range(n)},
    )
    action = {
        str(a): np.array(
            [[1 if j == (i - a) % n else 0 for i in range(n)] for j in range(n)],
            dtype=np.int64,
        )
        for a in range(n)
    }
    module = ModuleActionData(labels=[str(i) for i in range(n)], action=action)
    m = [q**i for i in range(n)]
    return fusion, module, m


# -- small quantum sl2 ------------------------------------------------------------

DynamicalFamily = namedtuple("DynamicalFamily", "fusion module m")


def _uqsl2_fusion(ell: int, s: int) -> FusionData:
    # X_j = P_j(X_2), so L_{X_j} = P_j(L_{X_2}) with X_2 X_j = X_{j-1} + X_{j+1}
    # and the boundary rule X_2 X_ell = 2 X_{ell-1} + 2 X_1
    x2 = np.eye(ell, k=1, dtype=np.int64) + np.eye(ell, k=-1, dtype=np.int64)
    x2[ell - 2, ell - 1] = x2[0, ell - 1] = 2
    labels = [f"X{j}" for j in range(1, ell + 1)]
    structure = {
        (labels[j], labels[k], labels[t]): int(lj[t, k])
        for j, lj in enumerate(_chebyshev(x2, np.eye(ell, dtype=np.int64), np.matmul, ell))
        for t, k in zip(*np.nonzero(lj))
    }
    field = CycField(ell)
    x0 = field.zeta(s) + field.zeta(-s)
    dims = dict(zip(labels, _chebyshev(x0, field.one(), operator.mul, ell)))
    cartan = np.zeros((ell, ell), dtype=np.int64)
    for mu in range(ell - 1):
        for nu in range(ell - 1):
            cartan[mu, nu] = 2 * (mu == nu) + 2 * (mu + nu == ell - 2)
    cartan[ell - 1, ell - 1] = 1
    return FusionData(
        labels=labels,
        unit="X1",
        dual={x: x for x in labels},
        structure=structure,
        cartan=cartan,
        dims=dims,
    )


def _uqsl2_module(ell: int) -> ModuleActionData:
    # X_j acts on the weights Z/ell as P_j(S + S^-1), S the shift t -> t + 1
    shift = np.roll(np.eye(ell, dtype=np.int64), 1, axis=0)
    mats = _chebyshev(shift + shift.T, np.eye(ell, dtype=np.int64), np.matmul, ell)
    action = {f"X{j}": mat for j, mat in enumerate(mats, start=1)}
    return ModuleActionData(labels=[str(t) for t in range(ell)], action=action)


def uqsl2_family(ell: int, s: int = 1, lam="symbolic", tol=DEFAULT_TOLERANCE) -> DynamicalFamily:
    """The dynamical sl2 family at an odd root of unity: fusion ring from the
    Chebyshev presentation, the weight-space Cartan matrix, the Rep Z/ell
    module and m_j = Lambda q^j - q^-j, the rank-one torus characters.  Its
    spectrum is the closed product formula, every exponent ell:
    uqg_family("A1", ell, s, [Lambda])."""
    m = _torus_characters(ell, s, [(1,)], [range(ell)], lam, tol)
    return DynamicalFamily(_uqsl2_fusion(ell, s), _uqsl2_module(ell), m)


# -- general simply-laced dynamical families --------------------------------------

class RootSystemData:
    """Simply-laced root system: Cartan matrix, positive roots in simple-root
    coordinates, and the dimension of the Lie algebra."""

    def __init__(self, name, cartan, positive_roots, dim_g):
        self.name = name
        self.cartan = np.asarray(cartan, dtype=np.int64)
        self.rank = self.cartan.shape[0]
        self.positive_roots = [tuple(r) for r in positive_roots]
        self.dim_g = dim_g
        if len(self.positive_roots) != (dim_g - self.rank) // 2:
            raise ValueError("positive root count does not match dim g")
        if not (self.cartan == self.cartan.T).all():
            raise ValueError("simply-laced Cartan matrix must be symmetric")

    @classmethod
    def preset(cls, name: str) -> "RootSystemData":
        try:
            return cls(name, *_ROOT_PRESETS[name])
        except KeyError:
            raise BadParameters(f"unknown root system {name!r} (have A1, A2, A3)")


_ROOT_PRESETS = {
    "A1": ([[2]], [(1,)], 3),
    "A2": ([[2, -1], [-1, 2]], [(1, 0), (0, 1), (1, 1)], 8),
    "A3": (
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
        15,
    ),
}


def uqg_family(rs, ell: int, s: int = 1, lam="symbolic", tol=DEFAULT_TOLERANCE) -> SpectrumFactorization:
    """Spectrum of the dynamical family for a simply-laced g, evaluated
    directly from the closed product formula: eigenvalues
    y_l y_k / (y_m y_n) over quadruples of torus characters, each with
    multiplicity ell^(dim g - 2 rank).  The spectrum at an exact or numeric
    torus point is a specialization of the symbolic one: the quadruples are
    merged by the exponent keys of the factored characters, and only one
    representative per symbolic eigenvalue is evaluated at the point."""
    if isinstance(rs, str):
        rs = RootSystemData.preset(rs)
    chars = list(itertools.product(range(ell), repeat=rs.rank))
    pairings = [
        [int(np.dot(lamv, rs.cartan @ np.array(alpha))) % ell for lamv in chars]
        for alpha in rs.positive_roots
    ]
    ys = _torus_characters(ell, s, rs.positive_roots, pairings, lam, tol)
    det = int(round(np.linalg.det(rs.cartan)))
    if math.gcd(ell, det) != 1:
        raise BadParameters(
            f"ell = {ell} shares a factor with det(Cartan) = {det} for {rs.name}"
        )
    factored = _torus_characters(ell, s, rs.positive_roots, pairings, "symbolic", tol)
    return pair_class_spectrum(ys, ell ** (rs.dim_g - 2 * rs.rank), tol, factored)


# -- pointed categories Vec_G -------------------------------------------------------

class Group:
    """Finite group as a multiplication table over string labels."""

    def __init__(self, elements, table, unit):
        self.elements = list(elements)
        self.table = dict(table)
        self.unit = unit
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table:
                    raise ValueError(f"incomplete multiplication table at {(a, b)}")
        self._inv = {}
        for a in self.elements:
            inv = [b for b in self.elements if self.table[(a, b)] == self.unit]
            if len(inv) != 1 or self.table[(inv[0], a)] != self.unit:
                raise ValueError(f"no two-sided inverse for {a}")
            self._inv[a] = inv[0]

    def mul(self, a, b):
        return self.table[(a, b)]

    def inverse(self, a):
        return self._inv[a]

    @classmethod
    def cyclic(cls, n: int) -> "Group":
        els = [str(a) for a in range(n)]
        table = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
        return cls(els, table, "0")

    @classmethod
    def symmetric3(cls) -> "Group":
        perms = {
            "e": (0, 1, 2),
            "r": (1, 2, 0),
            "r2": (2, 0, 1),
            "s": (1, 0, 2),
            "sr": (0, 2, 1),
            "sr2": (2, 1, 0),
        }
        names = {v: k for k, v in perms.items()}
        els = list(perms)
        table = {}
        for a in els:
            for b in els:
                pa, pb = perms[a], perms[b]
                table[(a, b)] = names[tuple(pa[pb[i]] for i in range(3))]
        return cls(els, table, "e")


class MatchFailure:
    """Evidence that no module trace exists for the requested pivotal data."""

    def __init__(self, reason, multiplicity=0):
        self.reason = reason
        self.multiplicity = multiplicity

    def __repr__(self):
        return f"MatchFailure({self.reason!r})"


def vecg_family(group: Group, kappa: dict, subgroup):
    """Vec_G with pivotal character kappa acting on the coset module G/H.

    Matched exactly when kappa restricts trivially to H; then the trace
    vector is m_{gH} = kappa(g)^-1.  Otherwise a MatchFailure carrying the
    (empty) eigenspace evidence is returned in place of m.
    """
    kappa = dict(zip(kappa, lift(list(kappa.values()))[1]))
    if set(kappa) != set(group.elements):
        raise NotACharacter("kappa must be defined on every group element")
    for a in group.elements:
        for b in group.elements:
            if kappa[group.mul(a, b)] != kappa[a] * kappa[b]:
                raise NotACharacter(f"kappa({a} {b}) != kappa({a}) kappa({b})")
    H = list(subgroup)
    hset = set(H)
    if group.unit not in hset or len(hset) != len(H):
        raise NotASubgroup("subgroup must contain the unit, without repeats")
    for a in H:
        if group.inverse(a) not in hset:
            raise NotASubgroup(f"{a}^-1 missing")
        for b in H:
            if group.mul(a, b) not in hset:
                raise NotASubgroup(f"{a} {b} escapes the subgroup")

    fusion = FusionData(
        labels=group.elements,
        unit=group.unit,
        dual={g: group.inverse(g) for g in group.elements},
        structure={(a, b, group.mul(a, b)): 1 for a in group.elements for b in group.elements},
        cartan=None,
        dims=dict(kappa),
    )
    # left cosets, labeled by their first representative in element order
    coset_of = {}
    reps = []
    for g in group.elements:
        if g in coset_of:
            continue
        members = {group.mul(g, h) for h in H}
        for x in members:
            coset_of[x] = g
        reps.append(g)
    labels = [f"{r}H" for r in reps]
    rep_index = {r: i for i, r in enumerate(reps)}
    size = len(reps)
    action = {}
    for g in group.elements:
        mat = np.zeros((size, size), dtype=np.int64)
        for i, r in enumerate(reps):
            target = coset_of[group.mul(g, r)]
            mat[rep_index[target], i] = 1
        action[g] = mat
    module = ModuleActionData(labels=labels, action=action)

    if all(kappa[h] == 1 for h in H):
        return fusion, module, [inverse(kappa[r]) for r in reps]
    try:
        dimension_eigenspace(fusion, module)
        multiplicity = -1  # unreachable for unmatched kappa
    except EmptyEigenspace:
        multiplicity = 0
    return fusion, module, MatchFailure("kappa does not restrict trivially to H", multiplicity)


# -- regular module and small presets ----------------------------------------------

def regular_module(f: FusionData):
    """M = C with N_r the left-multiplication matrices; the trace vector is
    the dims composed with duality (equal to dims whenever the dims are
    dual-symmetric, as in every spherical example)."""
    if f.dims is None:
        raise MissingDims("regular module needs dims")
    action = {r: f.left_mult_matrix(r) for r in f.labels}
    module = ModuleActionData(labels=list(f.labels), action=action)
    m = [f.dims[f.dual[x]] for x in f.labels]
    return module, m

