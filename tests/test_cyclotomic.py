"""Properties of the integer-vector CycNum: field axioms, the canonical form
num / den, the Fraction-valued views the output is built from, and an
independent cross-check of products and inverses against sympy."""

import cmath
from fractions import Fraction
from math import gcd

import pytest

from antipode_spectrum.cyclotomic import CycField, CycNum, cyclotomic_polynomial
from antipode_spectrum.scalar import to_json
from support import embed, rational_value, reduced

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ORDERS = st.integers(min_value=1, max_value=12)
# mixed denominators: each coefficient carries its own
FRACTIONS = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@st.composite
def elements(draw, field=None, count=1):
    field = field or CycField(draw(ORDERS))
    out = [reduced(field, [draw(FRACTIONS) for _ in range(field.degree)]) for _ in range(count)]
    return out if count > 1 else out[0]


@st.composite
def triples(draw):
    return draw(elements(CycField(draw(ORDERS)), count=3))


def assert_canonical(x: CycNum):
    assert len(x.num) == x.field.degree
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


settings = hypothesis.settings(max_examples=80, deadline=None)


@settings
@hypothesis.given(triples())
def test_field_axioms(xyz):
    x, y, z = xyz
    F = x.field
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + F.zero() == x and x * F.one() == x and x * F.zero() == F.zero()
    assert x - x == F.zero() and x + (-x) == F.zero()
    if x:
        assert x * x.inverse() == F.one()
        assert x.inverse().inverse() == x
        if y:
            assert (x * y).inverse() == x.inverse() * y.inverse()
    for r in (x, y, z, x * y - z, x.inverse() if x else z):
        assert_canonical(r)


@settings
@hypothesis.given(elements(), FRACTIONS, st.integers(min_value=-50, max_value=50))
def test_rational_operands_agree_with_lifts(x, q, k):
    F = x.field
    for r in (q, k):
        lifted = F.from_rational(r)
        assert x * r == r * x == x * lifted
        assert x + r == r + x == x + lifted
        assert x - r == x - lifted and r - x == lifted - x
        if r:
            assert x / r == x * lifted.inverse()
            assert_canonical(x / r)
        assert_canonical(x * r)


@settings
@hypothesis.given(elements(), elements(), st.integers(min_value=2, max_value=9))
def test_equality_and_hash_across_construction_routes(x, y, k):
    F = x.field
    y = y if y.field is F else F.from_rational(k)
    a, b = F.from_rational(Fraction(2, 4)), F.from_rational(Fraction(1, 2))
    assert a == b and hash(a) == hash(b) and (a.num, a.den) == (b.num, b.den)
    # an unreduced list: k * (coefficients of x), then k * Phi_n added on top,
    # then x^n - 1 times a constant, all divided by k
    coeffs = [c * k for c in x.coeffs] + [0] * (F.order + 1)
    for i, c in enumerate(F.modulus):
        coeffs[i] += k * c
    coeffs[0] -= 3
    coeffs[F.order] += 3
    w = reduced(F, coeffs) / k
    assert w == x and hash(w) == hash(x)
    if y:
        v = x * y / y
        assert v == x and hash(v) == hash(x)
    assert_canonical(w)
    zero = x - x
    assert zero.num == (0,) * F.degree and zero.den == 1 and hash(zero) == hash(F.zero())


@settings
@hypothesis.given(triples(), FRACTIONS, st.integers(min_value=-50, max_value=50))
def test_subtraction_adds_the_negative(xyz, q, k):
    """x - y is x + (-y), canonical, over mixed denominators and over equal
    ones (x and x + 1 share theirs); int and Fraction operands subtract on
    either side, through __sub__ and __rsub__."""
    x, y, z = xyz
    for a, b in ((x, y), (y, z), (x, x + 1), (x, x)):
        got, want = a - b, a + (-b)
        assert type(got) is CycNum and (got.num, got.den) == (want.num, want.den)
        assert_canonical(got)
    for r in (q, k):
        lifted = x.field.from_rational(r)
        for got, want in ((x - r, x + (-lifted)), (r - x, lifted + (-x))):
            assert type(got) is CycNum and (got.num, got.den) == (want.num, want.den)
            assert_canonical(got)


def reference_str(coeffs):
    """The text of an element as the Fraction-coefficient implementation wrote it."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}z^{k}" if k > 1 else f"{mag}z"
            parts.append(term if c > 0 else f"-{term}")
    if not parts:
        return "0"
    s = parts[0]
    for p in parts[1:]:
        s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return s


@settings
@hypothesis.given(elements())
def test_views_match_the_fraction_coefficients(x):
    """sort_key, complex_value, str and rational_value read exactly as they
    did when the coefficients were stored as Fractions."""
    coeffs = x.coeffs
    assert all(isinstance(c, Fraction) for c in coeffs)
    assert reduced(x.field, coeffs) == x
    assert x.sort_key() == tuple((c.numerator, c.denominator) for c in coeffs)
    z = cmath.exp(2j * cmath.pi / x.field.order)
    assert x.complex_value() == sum(float(c) * z**k for k, c in enumerate(coeffs) if c)
    assert str(x) == reference_str(coeffs)
    if x.is_rational():
        assert rational_value(x) == coeffs[0]


def test_zero_has_a_complex_value():
    """complex_value of zero is 0j like every other value's, so the JSON
    approx of a zero cyclotomic value holds floats."""
    for order in (1, 5, 12):
        zero = CycField(order).zero()
        assert type(zero.complex_value()) is complex and zero.complex_value() == 0
        approx = to_json(zero)["approx"]
        assert [type(x) for x in approx] == [float, float] and approx == [0.0, 0.0]


@settings
@hypothesis.given(elements(), st.data())
def test_conjugate_and_embed_are_ring_maps(x, data):
    F = x.field
    y = data.draw(elements(F))
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x
    target = CycField(F.order * data.draw(st.integers(min_value=1, max_value=3)))
    assert embed(x * y, target) == embed(x, target) * embed(y, target)
    assert embed(x + y, target) == embed(x, target) + embed(y, target)
    assert abs(embed(x, target).complex_value() - x.complex_value()) < 1e-6 * (
        1 + abs(x.complex_value())
    )
    assert_canonical(x.conjugate())
    assert_canonical(embed(x, target))


def test_sympy_cross_check():
    """Products and inverses against sympy's polynomial arithmetic mod Phi_n."""
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")

    def as_poly(v):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(v.coeffs)],
                          X, domain="QQ")

    def coeffs_of(p, degree):
        low_first = list(reversed(p.all_coeffs()))
        low_first += [sympy.S.Zero] * (degree - len(low_first))
        return [Fraction(int(c.p), int(c.q)) for c in low_first]

    @settings
    @hypothesis.given(ORDERS.flatmap(lambda n: elements(CycField(n), count=2)))
    def check(xy):
        x, y = xy
        F = x.field
        phi = sympy.Poly(sympy.cyclotomic_poly(F.order, X), X, domain="QQ")
        assert [int(c) for c in reversed(phi.all_coeffs())] == list(cyclotomic_polynomial(F.order))
        prod = (as_poly(x) * as_poly(y)).rem(phi)
        assert list((x * y).coeffs) == coeffs_of(prod, F.degree)
        if x:
            inv = sympy.invert(as_poly(x), phi)
            assert list(x.inverse().coeffs) == coeffs_of(inv, F.degree)

    check()
