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
table, then one gcd; a Galois conjugate or an embedding reads its rows from
the same table; the inverse is the product of the other Galois conjugates
over the norm.  Fraction appears only where a rational enters or leaves:
``from_rational``, ``reduce``, ``rational_value`` and ``coeffs``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

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
        self._units = tuple(k for k in range(2, order) if gcd(k, order) == 1)
        self._zero_tail = (0,) * (d - 1)
        self._zetas = tuple(CycNum(self, row, 1) for row in rows[:order])
        self._zero = CycNum(self, (0,) * d, 1)
        self._one = self._zetas[0]

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

    def reduce(self, coeffs) -> "CycNum":
        """Reduce an arbitrary-length rational coefficient list mod Phi_n,
        using x^e = zeta^(e mod n) for the overflow exponents."""
        qs = [Fraction(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs)) if qs else 1
        return _canonical(self, self._fold(q.numerator * (den // q.denominator) for q in qs), den)

    # -- integer vector kernels ------------------------------------------------------

    def _fold(self, coeffs):
        """Integer vector of sum_e coeffs[e] x^e mod Phi_n, for any length."""
        out = [0] * self.degree
        rows, n = self._rows, self.order
        for e, c in enumerate(coeffs):
            if c:
                for i, r in rows[e % n]:
                    out[i] += c * r
        return out

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
    ``_canonical``."""

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.order, self.num, self.den))
        return self._hash

    def __add__(self, other):
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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        field = self.field
        return _canonical(field, field._mul_vec(self.num, other.num), self.den * other.den)

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
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("inverse of zero cyclotomic number")
            return self._scale(other.denominator, other.numerator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

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

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def embed(self, target: CycField) -> "CycNum":
        """Image under zeta_m -> zeta_n^(n/m); requires m | n."""
        m, n = self.field.order, target.order
        if self.field is target:
            return self
        if n % m:
            raise FieldMismatch(f"Q(zeta_{m}) does not embed in Q(zeta_{n})")
        step = n // m
        acc = [0] * n
        for k, c in enumerate(self.num):
            acc[k * step] = c
        return _canonical(target, target._fold(acc), self.den)

    def complex_value(self) -> complex:
        """The value in the standard embedding; a part beyond the float range
        is +-inf (or nan where infinities of both signs meet)."""
        if not self:
            return 0j
        z = cmath.exp(2j * cmath.pi / self.field.order)
        den = self.den
        try:
            # int / int is correctly rounded, so c / den is float(Fraction(c, den))
            return sum(c / den * z**k for k, c in enumerate(self.num) if c)
        except OverflowError:
            pass
        terms = [(_float_or_inf(c, den), z**k) for k, c in enumerate(self.num) if c]
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
        if not self:
            return "0"
        parts = []
        for k, (p, q) in enumerate(self.sort_key()):
            if not p:
                continue
            text = str(p) if q == 1 else f"{p}/{q}"  # as str(Fraction(p, q))
            if k == 0:
                parts.append(text)
            else:
                mag = "" if text in ("1", "-1") else f"{text.lstrip('-')}*"
                term = f"{mag}z^{k}" if k > 1 else f"{mag}z"
                parts.append(term if p > 0 else f"-{term}")
        s = parts[0]
        for p in parts[1:]:
            s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return s
