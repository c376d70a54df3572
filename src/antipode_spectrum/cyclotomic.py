"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a polynomial in zeta reduced modulo the n-th cyclotomic
polynomial Phi_n, stored as in ANTIC's nf_elem: an integer numerator vector
``num`` of length phi(n) over one common denominator ``den``, the value
(num[0] + num[1] zeta + ... + num[phi(n)-1] zeta^(phi(n)-1)) / den.  Every
stored element is in lowest terms: den > 0, gcd(den, *num) == 1, and zero is
(0, ..., 0) / 1.  Reduction mod Phi_n (rather than mod x^n - 1) makes the
vector unique, so equality and hashing compare (num, den) structurally.

Phi_n is monic with integer coefficients, so every power x^e reduces to an
integer row.  CycField tabulates those rows for e < max(n, 2 phi(n) - 1),
which covers zeta^e for 0 <= e < n and every exponent of a product of two
reduced elements.  A product is an integer convolution folded through the
table, then one gcd; a Galois conjugate reads its rows from the same table;
the inverse is the product of the other Galois conjugates over the norm.
Fraction appears only where a rational enters or leaves: ``from_rational``
and ``coeffs``.

Many elements at once are integer coefficient rows: an (n, phi(n)) numpy
array of numerators, with their denominators alongside.  A row array is
int64 when a bound shows that no entry or partial sum passes ROW_LIMIT, and
object (Python ints, the same code) otherwise.  ``coefficient_rows`` lays
exact values out as rows, ``CycField.mul_rows`` forms many products in one
pass, ``coefficient_pairs`` brings each coefficient to lowest terms, and
``coefficient_approx`` evaluates rows in the standard embedding as
``complex_value`` does, bit for bit.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, inf, lcm, nan

import numpy as np

from .errors import DivisionByZero, FieldMismatch


def _divide_exact(a, b):
    """Quotient of the integer polynomial a by the monic integer polynomial b,
    which must divide it (coefficients low degree first)."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + db]
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    assert not any(a), "divisor must divide exactly"
    return q


def _float_or_inf(c: int, den: int) -> float:
    """c / den as a float, +-inf when it is beyond the float range."""
    try:
        return c / den
    except OverflowError:
        return inf if c > 0 else -inf


# an int64 coefficient row keeps every entry, and every partial sum of the
# products that form it, below this in absolute value
ROW_LIMIT = 2**62


def max_abs(a) -> int:
    """The largest absolute value in the integer array a; 0 when it is empty."""
    return int(np.abs(a).max(initial=0))


def fit(a, bound=None):
    """The integer array a as int64 when bound is below ROW_LIMIT, else as
    object.  Without a bound an int64 a is kept as it is (every int64 row
    array is made below ROW_LIMIT), and an object a is made int64 when its
    largest absolute value is below ROW_LIMIT."""
    if bound is None:
        if a.dtype != object:
            return a
        bound = max_abs(a)
    return a.astype(np.int64 if bound < ROW_LIMIT else object, copy=False)


def matmul(a, b):
    """a @ b for integer arrays, in int64 when no sum can pass ROW_LIMIT,
    else in object."""
    x, y = max_abs(a), max_abs(b)
    dtype = np.int64 if max(x, y, a.shape[-1] * x * y) < ROW_LIMIT else object
    return a.astype(dtype) @ b.astype(dtype)


def coefficient_rows(values):
    """(field, num, den, top) for exact values, CycNum of one field or
    Fractions: the field, None for Fractions; the numerator rows, int64
    when they fit; the denominators, an object array; and the largest
    denominator."""
    if values and type(values[0]) is CycNum:
        field = values[0].field
        num, den = [v.num for v in values], [v.den for v in values]
    else:
        field = None
        num, den = [(v.numerator,) for v in values], [v.denominator for v in values]
    degree = field.degree if field else 1
    return (field, fit(np.array(num, dtype=object).reshape(len(values), degree)),
            np.array(den, dtype=object), max(den, default=1))


def coefficient_pairs(num, den):
    """Each coefficient num[i, j] / den[i] (den > 0) in lowest terms, as the
    array of numerators and the array of denominators: row i is the
    sort_key of the element num[i] / den[i]."""
    den = den[:, None]
    g = np.gcd(num, den)
    return fit(num // g), fit(den // g)


def coefficient_values(field, tops, bottoms) -> list:
    """The elements of field whose coefficients are tops / bottoms (rows of
    coefficient_pairs); Fractions, from the first column, when field is
    None."""
    if field is None:
        return [Fraction(p, q) for p, q in zip(tops[:, 0].tolist(), bottoms[:, 0].tolist())]
    out = []
    for ps, qs in zip(tops.tolist(), bottoms.tolist()):
        den = lcm(*qs)  # lowest terms: a prime power of den is all of some q
        out.append(CycNum(field, tuple(p * (den // q) for p, q in zip(ps, qs)), den))
    return out


def _quotient(p: int, q: int) -> float:
    """p / q correctly rounded, nan when it is beyond the float range."""
    try:
        return p / q
    except OverflowError:
        return nan


def coefficient_approx(field, tops, bottoms):
    """The real parts and the imaginary parts, as the two rows of a float
    array, of the elements tops / bottoms of field (rows of
    coefficient_pairs) as complex_value computes them, bit for bit.  A
    coefficient x is the correctly rounded p / q, which is c / den of the
    element's own vector; each term is x * w = (x w.real - 0.0 w.imag,
    x w.imag + 0.0 w.real), -0.0 (which adds nothing) for a zero
    coefficient, and the terms are summed in order from 0.0
    (np.add.accumulate adds left to right).  A row with a coefficient
    beyond the float range goes through complex_value."""
    slow = ()
    if tops.dtype != object and bottoms.dtype != object and max_abs(tops) < 2**53 \
            and bottoms.max(initial=1) < 2**53:  # exact as doubles
        x = tops / bottoms
    else:
        x = np.frompyfunc(_quotient, 2, 1)(tops, bottoms).astype(float)
        slow = np.flatnonzero(np.isnan(x).any(axis=1))
    scale, shift = field._embedding
    with np.errstate(all="ignore"):
        terms = np.where(tops == 0, -0.0, x * scale + shift)
    terms[:, :, 0] += 0.0
    parts = np.add.accumulate(terms, axis=2)[:, :, -1]
    for i in slow:
        z = coefficient_values(field, tops[i:i + 1], bottoms[i:i + 1])[0].complex_value()
        parts[:, i] = z.real, z.imag
    return parts


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n (low degree first), by iterated exact
    division of x^n - 1 by Phi_d over the proper divisors d of n."""
    if n < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


class CycField:
    """The field Q(zeta_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1)."""

    _instances: dict = {}

    def __new__(cls, order: int):
        inst = cls._instances.get(order)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(order)
            cls._instances[order] = inst
        return inst

    def _init(self, order):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        d = self.degree = len(self.modulus) - 1
        xdeg = [-c for c in self.modulus[:-1]]  # x^degree mod Phi_n
        rows = []
        v = [1] + [0] * (d - 1)
        for _ in range(order):
            rows.append(tuple(v))
            top = v[-1]
            v = [0] + v[:-1]
            if top:
                v = [c + top * r for c, r in zip(v, xdeg)]
        rows += [rows[e % order] for e in range(order, 2 * d - 1)]  # x^n = 1 mod Phi_n
        # row e of x^e mod Phi_n as its nonzero (index, coefficient) pairs
        self._rows = tuple(tuple((i, r) for i, r in enumerate(row) if r) for row in rows)
        self._power_rows = fit(np.array(rows, dtype=object))  # row e: x^e mod Phi_n
        self._units = tuple(k for k in range(2, order) if gcd(k, order) == 1)
        self._zero_tail = (0,) * (d - 1)
        self._zetas = tuple(CycNum(self, row, 1) for row in rows[:order])
        self._zero = CycNum(self, (0,) * d, 1)
        self._one = self._zetas[0]
        z = cmath.exp(2j * cmath.pi / order)
        self._powers = tuple(z**k for k in range(d))  # of zeta in the standard embedding
        # (w.real, w.imag) and (-(0.0 w.imag), 0.0 w.real) for each power w,
        # shaped to broadcast over (rows, d) in coefficient_approx
        w = np.array([[z.real for z in self._powers], [z.imag for z in self._powers]])
        self._embedding = w[:, None], (0.0 * w[::-1] * [[-1], [1]])[:, None]

    def __repr__(self):
        return f"CycField({self.order})"

    def __reduce__(self):  # pickling support: fields are interned singletons
        return (CycField, (self.order,))

    def zero(self) -> "CycNum":
        return self._zero

    def one(self) -> "CycNum":
        return self._one

    def from_rational(self, q) -> "CycNum":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return CycNum(self, (q.numerator,) + self._zero_tail, q.denominator)

    def zeta(self, e: int = 1) -> "CycNum":
        return self._zetas[e % self.order]

    # -- integer vector kernels ------------------------------------------------------

    def _mul_vec(self, a, b):
        """Integer vector of a(x) b(x) mod Phi_n."""
        d = self.degree
        nb = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nb:
                    prod[i + j] += x * y
        out = prod[:d]
        rows = self._rows
        for e in range(d, 2 * d - 1):
            c = prod[e]
            if c:
                for i, r in rows[e]:
                    out[i] += c * r
        return out

    def mul_rows(self, a, b, index):
        """Row i is the vector of a[i](x) b[index[i]](x) mod Phi_n, for integer
        row arrays a and b: the rows x^i v of the multiplication matrix of
        each row v of b come from one product with _product_table, and row
        i is a[i] times the matrix of b[index[i]]; in int64 when no sum can
        pass ROW_LIMIT (d^2 max|a| max|b| max|table|), else in object."""
        d, (table, top) = self.degree, self._product_table
        x, y = max_abs(a), max_abs(b)
        dtype = np.int64 if max(x, y, d * d * x * y * top) < ROW_LIMIT else object
        mats = (b.astype(dtype) @ table.astype(dtype, copy=False)).reshape(len(b), d, d)
        return (a.astype(dtype)[:, None] @ mats[index])[:, 0]

    @cached_property
    def _product_table(self):
        """Row j holds the rows x^(i + j) mod Phi_n, i = 0, ..., d - 1, side
        by side, so that v @ table lists x^i v for every i; and the largest
        absolute value in it."""
        d = self.degree
        table = self._power_rows[np.add.outer(np.arange(d), np.arange(d))].reshape(d, d * d)
        return table, max_abs(table)

    def _galois(self, num, k):
        """Integer vector of sigma_k(num), where sigma_k maps zeta to zeta^k."""
        out = [0] * self.degree
        rows, n = self._rows, self.order
        for j, c in enumerate(num):
            if c:
                for i, r in rows[j * k % n]:
                    out[i] += c * r
        return out


def _canonical(field, num, den):
    """The CycNum num / den (den > 0), brought to lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return CycNum(field, tuple(num), den)


class CycNum:
    """An element of Q(zeta_n); immutable, in the canonical form num / den.

    The constructor takes that form as given; arithmetic results go through
    ``_canonical``, except a sum with an int, num + n den over den, which is
    in lowest terms already."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CycField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, in the power basis."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.field is not self.field:
                raise FieldMismatch(
                    f"orders {self.field.order} and {other.field.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _scale(self, p: int, q: int) -> "CycNum":
        """self * p / q for integers p and q != 0."""
        if q < 0:
            p, q = -p, -q
        return _canonical(self.field, [c * p for c in self.num], self.den * q)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if type(other) is int:  # n / 1 and num / den are both in lowest terms
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.order, self.num, self.den))
        return self._hash

    def __add__(self, other):
        if type(other) is int:  # gcd(den, num + n den) = gcd(den, num) = 1
            return CycNum(self.field, (self.num[0] + other * self.den,) + self.num[1:], self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return _canonical(self.field, [x + y for x, y in zip(self.num, other.num)], a)
        return _canonical(self.field, [x * b + y * a for x, y in zip(self.num, other.num)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if type(other) is int:
            return self + -other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return _canonical(self.field, [x - y for x, y in zip(self.num, other.num)], a)
        return _canonical(self.field, [x * b - y * a for x, y in zip(self.num, other.num)], a * b)

    def __rsub__(self, other):
        if type(other) is int:
            return -self + other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        # a CycNum operand is tested first: isinstance(x, Fraction) goes
        # through the ABC machinery of numbers.Rational
        if type(other) is CycNum:
            field = self._coerce(other).field
            return _canonical(field, field._mul_vec(self.num, other.num), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if not self:
            raise DivisionByZero("inverse of zero cyclotomic number")
        num, field = self.num, self.field
        if not any(num[1:]):
            return field.one()._scale(self.den, num[0])
        # x^-1 = prod_{k != 1} sigma_k(x) / N(x); N(num) is the rational
        # num * prod_{k != 1} sigma_k(num), so only its constant term is kept
        units = field._units
        p = field._galois(num, units[0])
        for k in units[1:]:
            p = field._mul_vec(p, field._galois(num, k))
        norm = field._mul_vec(num, p)[0]
        if norm < 0:
            norm, p = -norm, [-c for c in p]
        return _canonical(field, [c * self.den for c in p], norm)

    def __truediv__(self, other):
        if type(other) is CycNum:
            return self * self._coerce(other).inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("inverse of zero cyclotomic number")
            return self._scale(other.denominator, other.numerator)
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def galois(self, k: int) -> "CycNum":
        """The Galois automorphism sigma_k: zeta -> zeta^k, a ring map fixing
        Q; k must be a unit mod n."""
        field = self.field
        if gcd(k, field.order) != 1:
            raise ValueError(f"{k} is not a unit mod {field.order}")
        return _canonical(field, field._galois(self.num, k), self.den)

    def conjugate(self) -> "CycNum":
        """Galois conjugation zeta -> zeta^-1 (complex conjugation under the
        standard embedding); a ring involution fixing Q."""
        return self.galois(-1)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_real(self) -> bool:
        return self.conjugate() == self

    def complex_value(self) -> complex:
        """The value in the standard embedding; a part beyond the float range
        is +-inf (or nan where infinities of both signs meet)."""
        if not self:
            return 0j
        den = self.den
        try:
            # int / int is correctly rounded, so c / den is float(Fraction(c, den))
            return sum(c / den * w for c, w in zip(self.num, self.field._powers) if c)
        except OverflowError:
            pass
        terms = [(_float_or_inf(c, den), w) for c, w in zip(self.num, self.field._powers) if c]
        # a zero component of z^k adds nothing, not inf * 0
        return complex(sum(x * w.real for x, w in terms if w.real),
                       sum(x * w.imag for x, w in terms if w.imag))

    def sort_key(self):
        """Per coefficient (numerator, denominator) in lowest terms."""
        den = self.den
        if den == 1:
            return tuple((c, 1) for c in self.num)
        key = []
        for c in self.num:
            g = gcd(c, den)
            key.append((c // g, den // g))
        return tuple(key)

    def __repr__(self):
        return f"CycNum({self.field.order}; {self})"

    def __str__(self):
        return key_text(self.sort_key())


def coefficient_texts(k: int, tops, bottoms):
    """For the coefficients p / q (in lowest terms) of zeta^k in the lists
    tops and bottoms, two lists: each coefficient as str(Fraction(p, q))
    writes it, and its term in str as written after another term, " + t"
    or " - t" with t = |p|/q z^k ("1*" and "^1" left out), or "" when
    p = 0."""
    z = "" if not k else "*z" if k == 1 else f"*z^{k}"
    coeffs, pieces = [], []
    for p, q in zip(tops, bottoms):
        a = -p if p < 0 else p
        mag = f"{a}/{q}" if q != 1 else f"{a}"
        coeffs.append("-" + mag if p < 0 else mag)
        sign = " - " if p < 0 else " + "
        pieces.append("" if not p else sign + z[1:] if k and mag == "1" else sign + mag + z)
    return coeffs, pieces


def joined_text(pieces: str) -> str:
    """The text str writes for an element, from the join of the pieces that
    coefficient_texts gives for its coefficients."""
    if not pieces:
        return "0"
    return "-" + pieces[3:] if pieces[1] == "-" else pieces[3:]


def key_text(key) -> str:
    """The text str writes for the element whose sort_key is key."""
    return joined_text("".join([coefficient_texts(k, (p,), (q,))[1][0]
                                for k, (p, q) in enumerate(key)]))
