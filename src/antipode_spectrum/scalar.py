"""Scalar backends and the literal grammar.

Four backends name the kinds of scalar that flow through the package:

* cyclotomic  CycNum, an exact element of Q(zeta_n); a rational is an
              element of Q = CycField(1)
* symbolic    FactoredValue, a factored rational function of torus parameters
* numeric     complex, compared within a tolerance
* signed      SignedEigenvalue, sign * sqrt(squared) from a pivotalization

This module is the one place outside the scalar classes that asks which kind
a value is: lifting to one backend, keys, zero and closeness tests, inverse,
sign, and the JSON, text and literal renderings.  The rational inputs, int
and Fraction, are read as the elements of Q they name.

Literals follow the grammar

    rational ::= int[/int]
    atom     ::= rational | "z"["^"int] | ("L" | "L1" | "L2" | ...)["^"int]
    expr     ::= usual + - * / with parentheses

"z" is zeta_order for the declared field order.  Parsing produces a
LaurentPoly; helpers narrow it to a CycNum, a FactoredValue or a complex
number depending on the backend.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .cyclotomic import TEXT_LINE, CycField, CycNum
from .errors import NonRealSigns, NotFactorable, NotNumeric, ParseError
from .symbolic import FactoredContext, FactoredValue, LaurentPoly

DEFAULT_TOLERANCE = 1e-9

# the rational inputs, read as elements of Q
_RATIONAL = (int, Fraction)
# kinds compared by exact equality; everything else is numeric
_EXACT = (CycNum, FactoredValue, LaurentPoly, *_RATIONAL)


class SignedEigenvalue:
    """sign * sqrt(squared); equality compares both components."""

    __slots__ = ("sign", "squared")

    def __init__(self, sign: int, squared):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        self.squared = squared

    def __eq__(self, other):
        if not isinstance(other, SignedEigenvalue):
            return NotImplemented
        return self.sign == other.sign and canonical_key(self.squared) == canonical_key(
            other.squared
        )

    def __hash__(self):
        return hash(canonical_key(self))

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        return f"{s}sqrt({self.squared})"

    __repr__ = __str__


# -- one backend per computation -------------------------------------------------

def lift(values):
    """(backend, values) with every value brought into one kind.

    symbolic when any value is a FactoredValue (constants become constant
    FactoredValues, which read them in the context's field), else numeric
    when any value is neither exact nor rational (all become complex), else
    cyclotomic: CycNum in the one field present (Q when every value is
    rational), a rational taken into it.  Every rational zero becomes the
    field's one shared zero."""
    field = ctx = None
    numeric = mixed = False
    for v in values:
        if isinstance(v, CycNum):
            if field is None:
                field = v.field
            elif v.field is not field:  # keep one of degree > 1, embed the rest below
                field, mixed = v.field if field.degree == 1 else field, True
        elif isinstance(v, FactoredValue):
            ctx = v.ctx
        elif not isinstance(v, _RATIONAL):
            numeric = True
    if ctx is not None:
        return "symbolic", [v if isinstance(v, FactoredValue) else FactoredValue.from_constant(ctx, v)
                            for v in values]
    if numeric:
        return "numeric", [numeric_value(v) for v in values]
    if field is None:
        field = CycField(1)
    if mixed:
        values = [field.embed(v) if isinstance(v, CycNum) else v for v in values]
    zero = field.zero()
    return "cyclotomic", [v if isinstance(v, CycNum) else field.from_rational(v) if v else zero
                          for v in values]


# -- keys and comparisons ----------------------------------------------------------

def _round_digits(tol: float) -> int:
    if tol <= 0:
        return 12
    return max(1, min(12, int(round(-math.log10(tol)))))


def canonical_key(x, tol: float = DEFAULT_TOLERANCE):
    """Hashable, sortable key identifying a scalar up to canonical equality.

    Keys are only compared within a single backend per run.
    """
    if isinstance(x, CycNum):
        if x.is_rational():  # field-independent key for rationals
            return ("cyclotomic", 1, ((x.num[0], x.den),))
        return ("cyclotomic", x.field.order, x.sort_key())
    elif isinstance(x, FactoredValue):
        return ("symbolic", x.sort_key())
    elif isinstance(x, SignedEigenvalue):
        return ("signed", x.sign, canonical_key(x.squared, tol))
    elif isinstance(x, _RATIONAL):
        return canonical_key(_exact(x))
    v = complex(x)
    d = _round_digits(tol)
    re = round(v.real, d) + 0.0  # normalize -0.0
    im = round(v.imag, d) + 0.0
    return ("numeric", re, im)


def _exact(x):
    """x as the element of Q it names when it is a rational input, else x."""
    return CycField(1).from_rational(x) if isinstance(x, _RATIONAL) else x


def numeric_value(x) -> complex:
    """Standard-embedding complex value of any scalar kind; NotNumeric for a
    FactoredValue that depends on the torus parameters."""
    if isinstance(x, CycNum):
        return x.complex_value()
    if isinstance(x, FactoredValue):
        if not x.is_constant():
            raise NotNumeric(f"{x} depends on the torus parameters")
        return x.constant.complex_value()
    return complex(x)


def is_zero(x, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Exactly zero for exact kinds; within tol of zero for numeric ones."""
    if isinstance(x, _EXACT):
        return not x
    return abs(x) <= tol


def close(a, b, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Equal when both are exact; within tol of each other otherwise."""
    if isinstance(a, _EXACT) and isinstance(b, _EXACT):
        return a == b
    return abs(numeric_value(a) - numeric_value(b)) <= tol


def inverse(x):
    """1 / x in the kind of x, Q for a rational input."""
    if isinstance(x, FactoredValue):
        return FactoredValue.one(x.ctx) / x
    x = _exact(x)
    return x.inverse() if isinstance(x, CycNum) else 1 / x


def divided(values, d) -> list:
    """[x / d for x in values].  For an exact d the values are multiplied by
    1 / d, inverted once, which gives the same quotients; any other d
    divides each value, as x * (1 / d) rounds differently."""
    d = _exact(d)
    if isinstance(d, CycNum):
        inv = d.inverse()
        return [x * inv for x in values]
    return [x / d for x in values]


def sign(x, tol: float = DEFAULT_TOLERANCE) -> int:
    """Sign of a real scalar, exact for a rational; NonRealSigns when the
    value is not real."""
    x = _exact(x)
    if isinstance(x, CycNum):
        if x.is_rational():
            return (x.num[0] > 0) - (x.num[0] < 0)
        if not x.is_real():
            raise NonRealSigns(f"{x} is not real")
        v = x.complex_value().real
        return (v > tol) - (v < -tol)
    v = numeric_value(x)
    if abs(v.imag) > tol:
        raise NonRealSigns(f"{v} is not real")
    return (v.real > tol) - (v.real < -tol)


def roots_of_unity(values) -> bool:
    """True iff the n values are the n-th roots of unity: their complex
    values pass unit_roots, and v**n == 1 for every v, exactly for an exact
    value whichever field stores it."""
    n = len(values)
    if not unit_roots(np.array([numeric_value(v) for v in values], dtype=complex)):
        return False
    return all(v**n == 1 for v in map(_exact, values) if isinstance(v, CycNum))


def unit_roots(z) -> bool:
    """True iff the n complex numbers z (an array) are the n-th roots of
    unity within 1e-6: each |z| and z**n within 1e-6 of one, and the phases
    the n distinct multiples of 2 pi / n."""
    n = len(z)
    if not (np.abs(np.abs(z) - 1) <= 1e-6).all():  # also keeps z**n finite
        return False
    roots = np.sort(np.round(np.angle(z) / (2 * math.pi) * n) % n)
    return bool((roots == np.arange(n)).all() and (np.abs(z**n - 1) <= 1e-6).all())


# -- renderings ---------------------------------------------------------------------

def to_json(v):
    """JSON payload of an eigenvalue, tagged with its kind."""
    v = _exact(v)
    if isinstance(v, SignedEigenvalue):
        return {"kind": "signed", "sign": v.sign, "squared": to_json(v.squared)}
    if isinstance(v, CycNum):
        a = v.complex_value()
        return {
            "kind": "cyclotomic",
            "order": v.field.order,
            "coeffs": [str(c) for c in v.coeffs],
            "approx": [a.real, a.imag],
            "str": str(v),
        }
    if isinstance(v, FactoredValue):
        items = sorted(v.factors.items())
        return {
            "kind": "factored",
            "constant": {"order": v.ctx.ell, "coeffs": [str(c) for c in v.constant.coeffs]},
            "monomial": list(v.monomial),
            "factors": [
                {"root": list(coords), "class": cls, "power": p} for (coords, cls), p in items
            ],
            "str": v.text(items),
        }
    z = complex(v)
    return {"kind": "numeric", "re": z.real, "im": z.imag}


def to_text(v) -> str:
    """An eigenvalue as the text output prints it; cli.print_spectrum calls it
    per entry of a spectrum built from a list, and writes the array storages
    with the same lines."""
    v = _exact(v)
    if isinstance(v, (SignedEigenvalue, FactoredValue)):
        return str(v)
    z = numeric_value(v)
    if isinstance(v, CycNum):
        return TEXT_LINE.format(v, z.real, z.imag)
    return f"{z.real:.9g}{z.imag:+.9g}j"


def to_literal(x) -> str:
    """A scalar in the literal grammar; from_literal reads it back."""
    if isinstance(_exact(x), (CycNum, FactoredValue)):
        return str(x)
    raise ParseError(f"cannot serialize {type(x).__name__} exactly; use the cyclotomic backend")


def literal_order(values) -> int:
    """The field order that reads back the literals of values: the largest
    cyclotomic order among them, 1 when there is none."""
    return max((v.field.order for v in values if isinstance(v, CycNum)), default=1)


# -- literal tokenizer / parser ------------------------------------------------

class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(s: str):
    toks = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and s[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (s[j].isdigit() or (s[j] == "." and not seen_dot)):
                seen_dot = seen_dot or s[j] == "."
                j += 1
            # scientific exponent
            if j < n and s[j] in "eE" and (j + 1 < n and (s[j + 1].isdigit() or s[j + 1] in "+-")):
                k = j + 2 if s[j + 1] in "+-" else j + 1
                if k < n and s[k].isdigit():
                    while k < n and s[k].isdigit():
                        k += 1
                    j = k
            toks.append(_Tok("num", s[i:j], i))
            i = j
            continue
        if c in ("z", "L"):
            j = i + 1
            if c == "L":
                while j < n and s[j].isdigit():
                    j += 1
            toks.append(_Tok("name", s[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", location=f"offset {i}")
    toks.append(_Tok("end", "", n))
    return toks


# parentheses nest at most this deep in a literal, as in CPython's parser
MAX_NESTING = 200
# |e| in (expr)^e is at most this, so square-and-multiply takes at most 20
# products; exact coefficients grow linearly with e
MAX_EXPONENT = 1000
# a product of two expanded Laurent polynomials in a literal forms at most
# this many term pairs (len(a) * len(b)), so a power of a sum in several
# torus variables, whose term count grows as e^nvars, is refused before it
# runs long; a factored value multiplied out before + or - forms at most
# this many over all of its atom products together
MAX_TERM_PAIRS = 20000
# from_literal and count_torus_vars keep the results of at most this many
# distinct literals each
LITERAL_CACHE_SIZE = 256


class _Parser:
    """Recursive descent over the literal grammar, evaluating into either a
    LaurentPoly or a FactoredValue (after a non-monomial division).  Only
    parentheses recurse, MAX_NESTING deep at most."""

    def __init__(self, s: str, ctx: FactoredContext):
        self.src = s
        self.toks = _tokenize(s)
        self.i = 0
        self.depth = 0
        self.ctx = ctx

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", location=f"offset {t.pos}")
        return t

    def _signed_int(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        t = self.expect("num")
        if "." in t.text or "e" in t.text or "E" in t.text:
            raise ParseError("exponent must be an integer", location=f"offset {t.pos}")
        v = int(t.text)
        return -v if neg else v

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", location=f"offset {t.pos}")
        return v

    def expr(self):
        v = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            w = self.term()
            v = self._add(v, w) if op == "+" else self._add(v, self._neg(w))
        return v

    def term(self):
        v = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            w = self.unary()
            v = self._mul(v, w) if op == "*" else self._div(v, w)
        return v

    def unary(self):
        neg = False
        while self.peek().kind == "-":
            self.next()
            neg = not neg
        v = self.primary()
        return self._neg(v) if neg else v

    def primary(self):
        t = self.next()
        ctx = self.ctx
        if t.kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 location=f"offset {t.pos}")
            v = self.expr()
            self.expect(")")
            self.depth -= 1
            if self.peek().kind == "^":
                caret = self.next()
                e = self._signed_int()
                if abs(e) > MAX_EXPONENT:
                    raise ParseError(f"exponent {e} exceeds {MAX_EXPONENT} in absolute value",
                                     location=f"offset {caret.pos}")
                v = self._pow(v, e)
            return v
        if t.kind == "num":
            try:
                q = Fraction(t.text)
            except ValueError:
                raise ParseError(f"bad number {t.text!r}", location=f"offset {t.pos}")
            return LaurentPoly.constant(ctx, ctx.field.from_rational(q))
        if t.kind == "name":
            e = 1
            if self.peek().kind == "^":
                self.next()
                e = self._signed_int()
            if t.text == "z":
                return LaurentPoly.constant(ctx, ctx.field.zeta(e))
            index = 0 if t.text == "L" else int(t.text[1:]) - 1
            if index < 0 or index >= ctx.nvars:
                raise ParseError(
                    f"torus variable {t.text} out of range (nvars={ctx.nvars})",
                    location=f"offset {t.pos}",
                )
            return LaurentPoly.variable(ctx, index, e)
        raise ParseError(f"unexpected token {t.text!r}", location=f"offset {t.pos}")

    # arithmetic over the LaurentPoly | FactoredValue union
    def _neg(self, v):
        if isinstance(v, LaurentPoly):
            return -v
        return FactoredValue(v.ctx, -v.constant, v.monomial, dict(v.factors))

    def _to_poly(self, v) -> LaurentPoly:
        if isinstance(v, LaurentPoly):
            return v
        try:
            return v.expand(MAX_TERM_PAIRS)
        except NotFactorable:
            raise ParseError("cannot add or subtract factored quotients")

    def _to_factored(self, v) -> FactoredValue:
        if isinstance(v, FactoredValue):
            return v
        try:
            return FactoredValue.from_laurent(v)
        except NotFactorable as e:
            raise ParseError(str(e))

    def _add(self, a, b):
        return self._to_poly(a) + self._to_poly(b)

    def _mul(self, a, b):
        if isinstance(a, LaurentPoly) and isinstance(b, LaurentPoly):
            # a product of atoms stays factored: expanded, it factors no more
            if len(a.terms) > 1 and len(b.terms) > 1:
                try:
                    return FactoredValue.from_laurent(a) * FactoredValue.from_laurent(b)
                except NotFactorable:
                    pass
            if len(a.terms) * len(b.terms) > MAX_TERM_PAIRS:
                raise ParseError(f"product of {len(a.terms)}- and {len(b.terms)}-term "
                                 f"polynomials exceeds {MAX_TERM_PAIRS} term pairs")
            return a * b
        return self._to_factored(a) * self._to_factored(b)

    def _div(self, a, b):
        if not b:
            raise ParseError("division by zero")
        if isinstance(b, LaurentPoly):
            if len(b.terms) == 1:
                m, c = next(iter(b.terms.items()))
                if isinstance(a, LaurentPoly):
                    inv = LaurentPoly.constant(self.ctx, c.inverse()).scale_monomial(
                        tuple(-x for x in m)
                    )
                    return a * inv
        return self._to_factored(a) / self._to_factored(b)

    def _pow(self, a, e: int):
        if e < 0:
            if not a:
                raise ParseError("division by zero")
            return self._to_factored(a) ** e
        out = LaurentPoly.constant(self.ctx, self.ctx.field.one())
        while e:
            if e & 1:
                out = self._mul(out, a)
            e >>= 1
            if e:
                a = self._mul(a, a)
        return out


def parse_literal(s: str, order: int, nvars: int = 0):
    """Parse a scalar literal over Q(zeta_order) with nvars torus variables.

    Returns a LaurentPoly or a FactoredValue (only when a division by a
    non-monomial occurred).
    """
    ctx = FactoredContext(order, nvars)
    return _Parser(s, ctx).parse()


@functools.lru_cache(maxsize=LITERAL_CACHE_SIZE)
def count_torus_vars(s: str) -> int:
    """Highest torus-variable index mentioned in a literal (bare L counts as 1)."""
    best = 0
    for t in _tokenize(s):
        if t.kind == "name" and t.text.startswith("L"):
            best = max(best, 1 if t.text == "L" else int(t.text[1:]))
    return best


def literal_to_cycnum(s: str, order: int) -> CycNum:
    v = parse_literal(s, order, nvars=0)
    if isinstance(v, FactoredValue):
        if not v.is_constant():
            raise ParseError(f"literal {s!r} is not a plain field element")
        return v.constant
    const = v.terms.get(v.ctx.zero_exp(), v.ctx.field.zero())
    if len(v.terms) > (1 if const else 0):
        raise ParseError(f"literal {s!r} mentions torus variables")
    return const


def literal_to_factored(s: str, order: int, nvars: int) -> FactoredValue:
    v = parse_literal(s, order, nvars)
    if isinstance(v, FactoredValue):
        return v
    try:
        return FactoredValue.from_laurent(v)
    except NotFactorable as e:
        raise ParseError(str(e))


def literal_to_complex(s: str, order: int) -> complex:
    return literal_to_cycnum(s, order).complex_value()


@functools.lru_cache(maxsize=LITERAL_CACHE_SIZE)
def from_literal(s: str, mode: str, order: int, nvars: int = 0):
    """A literal read into its backend's kind: a FactoredValue when nvars > 0
    (cyclotomic mode only: torus variables have no complex value), a complex
    in numeric mode, a CycNum otherwise.

    Values are cached on (s, mode, order, nvars), the LITERAL_CACHE_SIZE
    most recent ones: a document repeats its literals, and a batch of
    documents repeats them across loads.  Every kind returned is immutable,
    so callers share a cached value.  A literal that fails is not cached and
    fails the same way each time.  Memory: a value's size grows with its
    evaluation time, and the largest known from one short literal is
    (2+z)^-1000 at order 97, 1.2 MB after about 12 s of parsing; so the
    cache holds at most about 320 MB, and that only after an hour of such
    literals.  The usual literal holds well under 1 KB."""
    if nvars > 0:
        if mode != "cyclotomic":
            raise ParseError(f"torus variables need mode 'cyclotomic', not {mode!r}")
        return literal_to_factored(s, order, nvars)
    if mode == "numeric":
        return literal_to_complex(s, order)
    return literal_to_cycnum(s, order)
