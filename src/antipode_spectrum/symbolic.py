"""Symbolic torus parameters: Laurent polynomials and factored values.

The dynamical families produce eigenvalues that are products and quotients
of the atoms  L_alpha * z^a - z^-a,  where L_alpha is a monomial in the
torus coordinates L1..Lk and z = zeta_ell.  A FactoredValue stores such an
expression in the canonical shape

    constant * L^monomial * prod_f (L^(coords_f) * z^(cls_f) - z^(-cls_f))^(power_f)

and never expands.  Equality of canonical forms is sound because atoms with
the same coordinate vector and distinct exponent classes are coprime
irreducibles (classes a and a + ell collapse; for even ell, a and a + ell/2
differ by the unit -1 and are folded into the constant).  The zero is the
constant 0 with no monomial and no factors.

LaurentPoly is the additive workhorse used to verify linear identities
(eigenvector equations) and to recognize atoms when parsing literals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .cyclotomic import CycField, CycNum, coefficient_values
from .errors import FieldMismatch, NotFactorable, NumericOverflow, ParseError


class FactoredContext:
    """Fixes the root-of-unity order and the number of torus variables."""

    _instances: dict = {}

    def __new__(cls, ell: int, nvars: int):
        key = (ell, nvars)
        inst = cls._instances.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.ell = ell
            inst.nvars = nvars
            inst.field = CycField(ell)
            inst._atom_texts = {}
            cls._instances[key] = inst
        return inst

    def __repr__(self):
        return f"FactoredContext(ell={self.ell}, nvars={self.nvars})"

    def zero_exp(self):
        return (0,) * self.nvars

    def atom_text(self, atom, power=1):
        """The text of the atom (coords, a) to the power in str(FactoredValue);
        the atom's own text is made once."""
        text = self._atom_texts.get(atom)
        if text is None:
            coords, a = atom
            mono = monomial_text(coords, self.nvars)
            text = f"({mono}*z^{a} - z^-{a})" if a else f"({mono} - 1)"
            self._atom_texts[atom] = text
        return text if power == 1 else f"{text}^{power}"


def _check_ctx(a, b):
    if a.ctx is not b.ctx:
        raise FieldMismatch(f"contexts {a.ctx} and {b.ctx} differ")


class LaurentPoly:
    """Laurent polynomial in L1..Lk with CycNum coefficients.

    Monomials are integer exponent tuples; zero coefficients are dropped, so
    the term dict is canonical.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FactoredContext, terms: dict):
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def constant(cls, ctx, c: CycNum):
        return cls(ctx, {ctx.zero_exp(): c})

    @classmethod
    def variable(cls, ctx, index: int, power: int = 1):
        exp = [0] * ctx.nvars
        exp[index] = power
        return cls(ctx, {tuple(exp): ctx.field.one()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _check_ctx(self, other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        _check_ctx(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, self.ctx.field.zero()) + c
        return LaurentPoly(self.ctx, out)

    def __neg__(self):
        return LaurentPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (CycNum, int, Fraction)):
            return LaurentPoly(self.ctx, {m: c * other for m, c in self.terms.items()})
        _check_ctx(self, other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                prod = c1 * c2
                if m in out:
                    out[m] = out[m] + prod
                else:
                    out[m] = prod
        return LaurentPoly(self.ctx, out)

    __rmul__ = __mul__

    def scale_monomial(self, exp: tuple):
        return LaurentPoly(
            self.ctx, {tuple(a + b for a, b in zip(m, exp)): c for m, c in self.terms.items()}
        )

    def __repr__(self):
        return f"LaurentPoly({self.terms})"


def _lex_positive(exp):
    for e in exp:
        if e > 0:
            return True
        if e < 0:
            return False
    return False


def _is_one(c) -> bool:
    """c == 1, for a CycNum read off its canonical form."""
    return c.den == 1 and c.num == c.field.one().num


def _product(a, b):
    """a * b for constants of factored values; nearly all are 1, and a
    product with it is skipped."""
    if _is_one(b):
        return a
    if _is_one(a):
        return b
    return a * b


def monomial_text(exp, nvars):
    """The text of L^exp in str(FactoredValue); "" for exp = 0."""
    parts = []
    for i, e in enumerate(exp):
        if e:
            name = "L" if nvars == 1 else f"L{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


class FactoredValue:
    """constant * L^monomial * product of atom powers; canonical, never
    expanded.  The constant is held in ctx.field, wherever it was given (a
    rational, or an element of Q), and a zero constant drops the monomial
    and the factors."""

    __slots__ = ("ctx", "constant", "monomial", "factors", "_hash")

    def __init__(self, ctx, constant: CycNum, monomial: tuple = None, factors: dict = None):
        self.ctx = ctx
        self.constant = constant = ctx.field.embed(constant)
        if not constant:
            monomial = factors = None
        self.monomial = monomial if monomial is not None else ctx.zero_exp()
        self.factors = {k: p for k, p in (factors or {}).items() if p}
        self._hash = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def one(cls, ctx):
        return cls(ctx, ctx.field.one())

    @classmethod
    def from_constant(cls, ctx, c: CycNum):
        return cls(ctx, c)

    @classmethod
    def atom(cls, ctx, coords: tuple, cls_exp: int, power: int = 1):
        """(L^coords * z^a - z^-a)^power with a reduced mod ell; for even ell
        the class is folded to a < ell/2 at the cost of a sign.

        coords must be primitive and lex-positive: L^(g c) z^a - z^-a with
        g > 1 factors into atoms of c, and L^-c z^a - z^-a is
        -L^-c (L^c z^-a - z^a), so any other coords would give one value a
        second canonical form."""
        if math.gcd(*coords) != 1 or not _lex_positive(coords):
            raise NotFactorable(
                f"atom coordinates {tuple(coords)} are not primitive and lex-positive")
        a = cls_exp % ctx.ell
        const = ctx.field.one()
        if ctx.ell % 2 == 0 and a >= ctx.ell // 2:
            # L z^(a+ell/2) - z^-(a+ell/2) = -(L z^a - z^-a)
            a -= ctx.ell // 2
            if power % 2:
                const = -const
        return cls(ctx, const, ctx.zero_exp(), {(tuple(coords), a): power})

    @classmethod
    def from_laurent(cls, poly: LaurentPoly) -> "FactoredValue":
        """Recognize a Laurent polynomial as constant * monomial * single atom.

        Accepts zero factors deep (the zero and one- or two-term polynomials
        only); raises NotFactorable otherwise.
        """
        ctx = poly.ctx
        terms = list(poly.terms.items())
        if not terms:
            return cls(ctx, ctx.field.zero())
        if len(terms) == 1:
            m, c = terms[0]
            return cls(ctx, c, m, {})
        if len(terms) == 2:
            (m1, c1), (m2, c2) = terms
            delta = tuple(a - b for a, b in zip(m1, m2))
            if not _lex_positive(delta):
                (m1, c1), (m2, c2) = (m2, c2), (m1, c1)
                delta = tuple(-d for d in delta)
            # poly = L^m2 * (c1 L^delta + c2); match c1 L^delta + c2 with
            # k (L^delta z^a - z^-a): need -c2/c1 = z^(-2a)
            u = -c2 / c1
            field = ctx.field
            for a in range(ctx.ell):
                if field.zeta((-2 * a) % ctx.ell) == u:
                    k = c1 * field.zeta((-a) % ctx.ell)
                    base = cls.atom(ctx, delta, a)
                    return cls(ctx, k * base.constant, m2, dict(base.factors))
            raise NotFactorable(f"binomial is not an atom times a constant: {poly}")
        raise NotFactorable("only monomials and atom binomials factor")

    # -- structure -------------------------------------------------------------

    def _key(self):
        c = self.constant
        return (c.num, c.den, self.monomial, frozenset(self.factors.items()))

    def __eq__(self, other):
        if not isinstance(other, FactoredValue):
            return NotImplemented
        _check_ctx(self, other)
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __bool__(self):
        return bool(self.constant)

    def __mul__(self, other):
        _check_ctx(self, other)
        factors = dict(self.factors)
        for k, p in other.factors.items():
            factors[k] = factors.get(k, 0) + p
        return FactoredValue(
            self.ctx,
            _product(self.constant, other.constant),
            tuple(a + b for a, b in zip(self.monomial, other.monomial)),
            factors,
        )

    def __truediv__(self, other):
        _check_ctx(self, other)
        factors = dict(self.factors)
        for k, p in other.factors.items():
            factors[k] = factors.get(k, 0) - p
        return FactoredValue(
            self.ctx,
            self.constant / other.constant,
            tuple(a - b for a, b in zip(self.monomial, other.monomial)),
            factors,
        )

    def __pow__(self, e: int):
        if e == 0:
            return FactoredValue.one(self.ctx)
        return FactoredValue(
            self.ctx,
            self.constant**e,
            tuple(a * e for a in self.monomial),
            {k: p * e for k, p in self.factors.items()},
        )

    def is_constant(self):
        return not any(self.monomial) and not self.factors

    def expand(self, max_pairs=None) -> LaurentPoly:
        """Multiply out, one 2-term atom at a time; factor powers must be
        nonnegative.  With max_pairs (the literal parser's bound) a
        ParseError is raised once the products together would form more
        than max_pairs term pairs."""
        ctx = self.ctx
        out = LaurentPoly.constant(ctx, self.constant).scale_monomial(self.monomial)
        field = ctx.field
        pairs = 0
        for (coords, a), p in self.factors.items():
            if p < 0:
                raise NotFactorable("cannot expand a factor with negative power")
            atom_poly = LaurentPoly(
                ctx,
                {
                    tuple(coords): field.zeta(a),
                    ctx.zero_exp(): -field.zeta((-a) % ctx.ell),
                },
            )
            for _ in range(p):
                pairs += 2 * len(out.terms)
                if max_pairs is not None and pairs > max_pairs:
                    raise ParseError(
                        f"expanding a factored value exceeds {max_pairs} term pairs")
                out = out * atom_poly
        return out

    def sort_key(self):
        return (
            self.monomial,
            tuple(sorted((k[0], k[1], p) for k, p in self.factors.items())),
            self.constant.sort_key(),
        )

    def __repr__(self):
        return f"FactoredValue({self})"

    def __str__(self):
        return self.text(sorted(self.factors.items()))

    def text(self, factors):
        """str(self), given its factor items sorted: the texts of the
        constant ("(c)", none for 1), the monomial and the factor powers,
        joined by "*"; "(1)" when all are empty."""
        ctx = self.ctx
        parts = ("" if _is_one(self.constant) else f"({self.constant})",
                 monomial_text(self.monomial, ctx.nvars),
                 *[ctx.atom_text(atom, p) for atom, p in factors])
        return "*".join(filter(None, parts)) or "(1)"


# every packed key word stays below this radix, so a key, the sum of two keys
# and the difference of two such sums all fit in int64
KEY_RADIX_LIMIT = 2**62

ExponentKeys = namedtuple("ExponentKeys", "exponents keys atoms")


def exponent_keys(values):
    """Additive integer keys of the exponents of factored values of one
    context.

    exponents is the int64 matrix of the values' columns: the monomial
    coordinates and the powers of the atoms (coords, class) of the sorted
    list atoms, all those met in values.  A column whose entries span
    [lo, hi] is a digit of width 4 (hi - lo) + 1 holding entry - lo, packed
    by mixed radix into the words (columns) of keys; a new word starts where
    the word's running radix would pass KEY_RADIX_LIMIT.  Digits of a pair
    sum lie in [0, 2 (hi - lo)] and of a difference of pair sums in
    [-2 (hi - lo), 2 (hi - lo)], so per word keys[a] + keys[b] identifies
    the exponents of the product of a and b, and that sum minus the one of
    c and d identifies those of the quotient, all within (radix - 1) / 2 of
    zero, hence in int64.  The constants are not keyed: values of one
    constant have equal keys exactly when they are equal.  NumericOverflow
    when an exponent or a digit is larger than KEY_RADIX_LIMIT."""
    atom_list = sorted({a for v in values for a in v.factors})
    atoms = {a: j for j, a in enumerate(atom_list)}
    nvars = values[0].ctx.nvars if values else 0
    exponents = []
    for v in values:
        row = list(v.monomial) + [0] * len(atoms)
        for atom, p in v.factors.items():
            row[nvars + atoms[atom]] = p
        exponents.append(row)
    digits, words, radix = [], 0, KEY_RADIX_LIMIT
    for j, col in enumerate(zip(*exponents)):
        lo, hi = min(col), max(col)
        width = 4 * (hi - lo) + 1
        if width > KEY_RADIX_LIMIT or max(hi, -lo) > KEY_RADIX_LIMIT:
            raise NumericOverflow(f"exponents in [{lo}, {hi}] are too wide for a key digit")
        if width > 1:
            if radix * width > KEY_RADIX_LIMIT:
                words += 1
                radix = 1
            digits.append((j, lo, radix, words - 1))
            radix *= width
    exponents = np.array(exponents, dtype=np.int64).reshape(len(values), nvars + len(atoms))
    keys = np.zeros((len(values), max(words, 1)), dtype=np.int64)
    for j, lo, place, word in digits:
        keys[:, word] += (exponents[:, j] - lo) * place
    return ExponentKeys(exponents, keys, atom_list)


def row_values(ctx, atoms, rows, constants=None):
    """The factored values whose exponents are the int64 rows, with columns
    as in exponent_keys: the monomial, then the powers of the atoms; their
    constants are 1, or with constants = (tops, bottoms) the elements of
    ctx.field with those coefficient rows (cyclotomic.coefficient_pairs)."""
    nvars, field = ctx.nvars, ctx.field
    constants = [field.one()] * len(rows) if constants is None else coefficient_values(field, *constants)
    return [FactoredValue(ctx, c, tuple(row[:nvars]),
                          {atoms[j]: p for j, p in enumerate(row[nvars:]) if p})
            for c, row in zip(constants, rows.tolist())]


def canonical_order(exponents, nvars, constants=None):
    """Stable argsort of exponent rows (columns as in exponent_keys) in the
    order of FactoredValue.sort_key: the monomial, then the list of (atom,
    power) pairs of the nonzero powers, a list coming before any longer
    list that it begins, then the constant, by its id in sort_key order
    (None: one constant).  In that order a zero power at an atom sorts
    below every power when no later atom has a nonzero power, and above
    every power otherwise."""
    powers = exponents[:, nvars:]
    nonzero = powers != 0
    later = np.zeros_like(nonzero)
    later[:, :-1] = np.cumsum(nonzero[:, :0:-1], axis=1)[:, ::-1] > 0
    top = int(np.abs(powers).max(initial=0)) + 1
    digits = np.where(nonzero, powers, np.where(later, top, -top))
    columns = [exponents[:, j] for j in range(nvars)] + list(digits.T)
    if constants is not None:
        columns.append(constants)
    return np.lexsort(columns[::-1]) if columns else np.arange(len(exponents))
