import ast
import cmath
import importlib.util
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from antipode_spectrum import errors, specfile
from antipode_spectrum.cyclotomic import KERNEL_DEGREE, CycField, CycNum, cyclotomic_polynomial
from antipode_spectrum.errors import DivisionByZero, FieldMismatch, NotFactorable, ParseError
from antipode_spectrum.families import uqsl2_family
from antipode_spectrum.scalar import (
    LITERAL_CACHE_SIZE,
    canonical_key,
    close,
    count_torus_vars,
    from_literal,
    inverse,
    is_zero,
    lift,
    literal_to_cycnum,
    literal_to_factored,
    numeric_value,
    parse_literal,
    roots_of_unity,
    sign,
    to_json,
    to_literal,
    to_text,
)
from antipode_spectrum.spectrum import char_poly_s2
from antipode_spectrum.symbolic import FactoredContext, FactoredValue, LaurentPoly
from support import complex_at, embed, rational_value, reduced, signed_spectrum


ROOT = Path(__file__).resolve().parents[1]


def rand_cyc(field, rng, span=6):
    return reduced(
        field, [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(field.degree)]
    )


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert [int(c) for c in cyclotomic_polynomial(1)] == [-1, 1]
        assert [int(c) for c in cyclotomic_polynomial(2)] == [1, 1]
        assert [int(c) for c in cyclotomic_polynomial(3)] == [1, 1, 1]
        assert [int(c) for c in cyclotomic_polynomial(5)] == [1, 1, 1, 1, 1]
        assert [int(c) for c in cyclotomic_polynomial(12)] == [1, 0, -1, 0, 1]

    def test_divides_x_n_minus_one(self):
        # Phi_n(zeta_n) = 0, numerically
        for n in (3, 5, 7, 8, 12, 15):
            z = cmath.exp(2j * cmath.pi / n)
            val = sum(float(c) * z**k for k, c in enumerate(cyclotomic_polynomial(n)))
            assert abs(val) < 1e-9


class TestCycArithmetic:
    def test_i_squared(self):
        F = CycField(4)
        assert F.zeta() * F.zeta() == F.from_rational(-1)

    def test_third_root_sum(self):
        F = CycField(3)
        assert F.one() + F.zeta(1) + F.zeta(2) == F.zero()

    def test_inverse_contract(self):
        F = CycField(5)
        x = F.one() - F.zeta(1)
        assert x.inverse() * x == F.one()

    def test_division_by_zero(self):
        F = CycField(5)
        with pytest.raises(DivisionByZero):
            F.one() / F.zero()

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            CycField(3).one() + CycField(5).one()

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # one product per set bit of e and one squaring per further bit
        F = CycField(7)
        x = 2 + F.zeta(1)
        calls = []
        mul_vec = CycField._mul_vec
        monkeypatch.setattr(CycField, "_mul_vec",
                            lambda self, a, b: calls.append(1) or mul_vec(self, a, b))
        for e in (1, 2, 3, 8, 100, 255, 256):
            calls.clear()
            y = x**e
            assert len(calls) == bin(e).count("1") + e.bit_length() - 1, e
            assert y == math.prod([x] * e, start=F.one())

    def test_inverse_property_random(self):
        rng = random.Random(11)
        for n in (3, 4, 5, 7, 9, 12):
            F = CycField(n)
            for _ in range(10):
                x = rand_cyc(F, rng)
                if x:
                    assert x * x.inverse() == F.one()

    def test_numeric_agreement_random(self):
        rng = random.Random(5)
        for n in (3, 5, 8, 15):
            F = CycField(n)
            for _ in range(10):
                a, b = rand_cyc(F, rng), rand_cyc(F, rng)
                av, bv = a.complex_value(), b.complex_value()
                assert abs((a * b).complex_value() - av * bv) < 1e-9
                assert abs((a + b).complex_value() - (av + bv)) < 1e-9

    def test_values_beyond_the_float_range(self):
        F = CycField(5)
        big = F.from_rational(10**999)
        assert big.complex_value() == complex(math.inf, 0)
        assert (-big * F.zeta(1)).complex_value() == complex(-math.inf, -math.inf)
        assert (big / (big + 1)).complex_value() == 1
        assert not roots_of_unity([big, -1])
        assert not roots_of_unity([1e200, -1])
        assert roots_of_unity([F.zeta(k) for k in range(5)])

    def test_rationals_hash_as_the_equal_int_or_fraction(self):
        """A rational element hashes as Python hashes the int or Fraction it
        equals, so a set or dict that mixes them holds the value once; a
        denominator divisible by the hash modulus included."""
        modulus = 2**61 - 1
        for order in (1, 5):
            F = CycField(order)
            for q in (0, 2, -1, -7, 10**30, Fraction(1, 2), Fraction(-3, 4), Fraction(1, modulus),
                      Fraction(-5, 3 * modulus), Fraction(10**40 + 1, 10**20)):
                x = F.from_rational(q)
                assert x == q and hash(x) == hash(q), (order, q)
                assert len({x, q}) == 1 and {q: order}[x] == order

    def test_rationals_compare_across_fields(self):
        """Rationals of two fields compare by value, a rational and an
        irrational of two fields are unequal, and two irrationals of two
        fields still raise."""
        F3, F5 = CycField(3), CycField(5)
        for q in (0, 2, Fraction(-1, 2)):
            a, b = F3.from_rational(q), F5.from_rational(q)
            assert a == b and b == a and not a != b
            assert len({a, b}) == 1 and {a: 1}[b] == 1
            assert a != F5.from_rational(3) and F5.from_rational(3) != a
            for w in (F5.zeta(1), F5.from_rational(q) + F5.zeta(2)):
                assert a != w and w != a and not a == w
        assert len({F3.from_rational(2), F5.from_rational(2), F5.zeta(1)}) == 2
        with pytest.raises(FieldMismatch):
            F3.zeta(1) == F5.zeta(1)

    def test_embedding(self):
        F3, F15 = CycField(3), CycField(15)
        z = embed(F3.zeta(1), F15)
        assert z**3 == F15.one()
        assert abs(z.complex_value() - cmath.exp(2j * cmath.pi / 3)) < 1e-12
        with pytest.raises(FieldMismatch):
            embed(F3.zeta(1), CycField(5))


class TestGaloisConjugate:
    def test_zeta5(self):
        F = CycField(5)
        assert F.zeta(1).conjugate() == F.zeta(4)

    def test_two_plus_zeta3(self):
        F = CycField(3)
        assert (F.from_rational(2) + F.zeta(1)).conjugate() == F.from_rational(2) + F.zeta(2)

    def test_involution_random(self):
        rng = random.Random(3)
        for n in (3, 5, 7, 12):
            F = CycField(n)
            for _ in range(10):
                x = rand_cyc(F, rng)
                assert x.conjugate().conjugate() == x

    def test_ring_homomorphism(self):
        rng = random.Random(4)
        F = CycField(7)
        for _ in range(5):
            a, b = rand_cyc(F, rng), rand_cyc(F, rng)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert F.from_rational(Fraction(7, 3)).conjugate() == F.from_rational(Fraction(7, 3))


    def test_galois_automorphisms(self):
        rng = random.Random(6)
        F = CycField(12)
        units = [k for k in range(12) if math.gcd(k, 12) == 1]
        assert F.zeta(1).galois(5) == F.zeta(5)
        for _ in range(5):
            x, y = rand_cyc(F, rng), rand_cyc(F, rng)
            assert x.galois(-1) == x.conjugate() and x.galois(1) == x
            for a in units:
                assert (x * y).galois(a) == x.galois(a) * y.galois(a)
                assert (x + y).galois(a) == x.galois(a) + y.galois(a)
                for b in units:
                    assert x.galois(a).galois(b) == x.galois(a * b)
        for k in (0, 2, 3, 6, -4):
            with pytest.raises(ValueError, match="unit"):
                F.zeta(1).galois(k)


class TestFieldKernels:
    def test_kernels_against_polynomial_reference(self):
        """_mul_vec and _galois, straight-line up to KERNEL_DEGREE and loops
        above it, against a plain polynomial product, and a substitution
        x -> x^k (units and non-units, k in -n..2n), reduced mod Phi_n; on
        dense and sparse vectors with small and large entries.  An inverse
        made through them times x is one."""
        rng = random.Random(29)
        for n in range(1, 41):
            F = CycField(n)
            d, phi = F.degree, F.modulus
            assert (F._kernels is not None) == (d <= KERNEL_DEGREE), n

            def reduce(poly):
                poly = list(poly) + [0] * d
                for e in range(len(poly) - 1, d - 1, -1):
                    c = poly[e]
                    for i, m in enumerate(phi):
                        poly[e - d + i] -= c * m
                assert not any(poly[d:])
                return poly[:d]

            def vector(sparse, span):
                v = [rng.randint(-span, span) for _ in range(d)]
                if sparse:
                    keep = rng.sample(range(d), min(d, rng.randint(1, 2)))
                    v = [c if i in keep else 0 for i, c in enumerate(v)]
                return tuple(v)

            for sparse, span in itertools.product((False, True), (9, 2**70)):
                a, b = vector(sparse, span), vector(sparse, span)
                prod = [0] * (2 * d - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        prod[i + j] += x * y
                assert list(F._mul_vec(a, b)) == reduce(prod), (n, a, b)
                for k in range(-n, 2 * n + 1):
                    image = [0] * n
                    for j, c in enumerate(a):
                        image[j * k % n] += c
                    assert list(F._galois(a, k)) == reduce(image), (n, a, k)
                if any(a):
                    x = CycNum(F, a, 1)
                    assert x * x.inverse() == F.one(), (n, a)


class TestFactoredValues:
    def setup_method(self):
        self.ctx = FactoredContext(5, 1)

    def test_self_division_is_one(self):
        f = FactoredValue.atom(self.ctx, (1,), 2)
        assert f / f == FactoredValue.one(self.ctx)

    def test_distinct_classes_never_cancel(self):
        a = FactoredValue.atom(self.ctx, (1,), 1)
        b = FactoredValue.atom(self.ctx, (1,), 2)
        ratio = a / b
        assert len(ratio.factors) == 2
        # oracle: evaluate at random numeric Lambda, confirm non-constancy
        rng = random.Random(9)
        vals = []
        for _ in range(3):
            lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
            vals.append(complex_at(ratio, (lam,)))
        assert max(abs(v - vals[0]) for v in vals) > 1e-6

    def test_class_collapse_mod_ell(self):
        a = FactoredValue.atom(self.ctx, (1,), 2)
        b = FactoredValue.atom(self.ctx, (1,), 2 + 5)
        assert a == b
        assert len((a * b).factors) == 1

    def test_constant_is_read_in_the_context_field(self):
        """A constant given in Q, or as an int or Fraction, is the element of
        ctx.field it names, so equal values compare and hash equal."""
        own = FactoredValue(self.ctx, self.ctx.field.from_rational(2))
        for c in (CycField(1).from_rational(2), 2, Fraction(4, 2)):
            v = FactoredValue(self.ctx, c)
            assert v == own and hash(v) == hash(own)
            assert v.constant.field is self.ctx.field
        assert FactoredValue(self.ctx, CycField(1).zero()) == FactoredValue(self.ctx, 0)

    def test_context_mismatch(self):
        other = FactoredContext(7, 1)
        with pytest.raises(FieldMismatch):
            FactoredValue.atom(self.ctx, (1,), 1) * FactoredValue.atom(other, (1,), 1)

    def test_canonical_soundness_probabilistic(self):
        # equal canonical forms agree numerically; distinct ones separate at
        # one of 5 random points
        rng = random.Random(21)
        a = FactoredValue.atom(self.ctx, (1,), 1)
        b = FactoredValue.atom(self.ctx, (1,), 3)
        same1 = (a * b) / b
        assert same1 == a
        diff = (a * a) / b
        assert diff != a
        seen_gap = False
        for _ in range(5):
            lam = (complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),)
            assert abs(complex_at(same1, lam) - complex_at(a, lam)) < 1e-9
            if abs(complex_at(diff, lam) - complex_at(a, lam)) > 1e-9:
                seen_gap = True
        assert seen_gap

    def test_expand_matches_numeric(self):
        rng = random.Random(2)
        v = FactoredValue.atom(self.ctx, (1,), 1) * FactoredValue.atom(self.ctx, (1,), 2)
        poly = v.expand()
        for _ in range(4):
            lam = (complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),)
            assert abs(complex_at(poly, lam) - complex_at(v, lam)) < 1e-9

    def test_even_order_folding(self):
        ctx = FactoredContext(4, 1)
        a = FactoredValue.atom(ctx, (1,), 1)
        b = FactoredValue.atom(ctx, (1,), 3)  # 3 = 1 + 4/2 -> folded with sign
        assert a.factors == b.factors
        assert b.constant == -ctx.field.one()

    def test_non_primitive_atom_refused(self):
        # at ell = 3, L^3 - 1 is the product of the (1,) atoms of classes 0, 1
        # and 2; an atom (3,) would give the same value a second key
        ctx = FactoredContext(3, 1)
        product = FactoredValue.one(ctx)
        for a in range(3):
            product = product * FactoredValue.atom(ctx, (1,), a)
        one = ctx.field.one()
        assert product.expand() == LaurentPoly(ctx, {(3,): one, (0,): -one})
        with pytest.raises(NotFactorable):
            FactoredValue.atom(ctx, (3,), 0)
        with pytest.raises(NotFactorable):
            FactoredValue.atom(FactoredContext(5, 2), (2, 2), 1)
        with pytest.raises(ParseError):
            literal_to_factored("L^3 - 1", 3, 1)

    def test_atom_coordinates_lex_positive(self):
        # L^-1 z - z^-1 = -L^-1 (L z^-1 - z): one value, so one key
        with pytest.raises(NotFactorable):
            FactoredValue.atom(self.ctx, (-1,), 1)
        with pytest.raises(NotFactorable):
            FactoredValue.atom(FactoredContext(5, 2), (0, -1), 1)
        v = literal_to_factored("L^-1*z - z^-1", 5, 1)
        assert v.factors == {((1,), 4): 1}
        assert v.monomial == (-1,) and v.constant == -self.ctx.field.one()
        lam = (0.8 + 0.3j,)
        z = cmath.exp(2j * cmath.pi / 5)
        assert abs(complex_at(v, lam) - (z / lam[0] - 1 / z)) < 1e-12

    def test_zero(self):
        """The zero is the constant 0 with no monomial and no factors: a
        product with it, a zero constant given with factors, the zero
        polynomial and a lifted 0 are all that one value; it divides by
        nothing, and its literal reads back."""
        ctx = FactoredContext(5, 2)
        F = ctx.field
        zero = FactoredValue(ctx, F.zero())
        x = FactoredValue(ctx, F.zeta(2), (1, -1)) * FactoredValue.atom(ctx, (1, 1), 3, -2)
        assert not zero and x and is_zero(zero) and not is_zero(x)
        assert (zero.monomial, zero.factors) == ((0, 0), {})
        for same in (x * zero, zero * x, zero / x, zero ** 3,
                     FactoredValue(ctx, F.zero(), (2, 1), {((1, 0), 1): 4}),
                     FactoredValue.from_laurent(LaurentPoly(ctx, {})),
                     lift([x, 0])[1][1]):
            assert same == zero and hash(same) == hash(zero)
            assert canonical_key(same) == canonical_key(zero)
        for bad in (lambda: x / zero, lambda: zero ** -1, lambda: inverse(zero)):
            with pytest.raises(DivisionByZero):
                bad()
        assert str(zero) == to_literal(zero) == "(0)"
        assert literal_to_factored(to_literal(zero), 5, 2) == zero
        assert literal_to_factored("L1*(L2 - L2)", 5, 2) == zero
        assert zero.expand() == LaurentPoly(ctx, {}) and numeric_value(zero) == 0

    def test_zero_denominator_is_a_parse_error(self):
        for text in ("(L*z^1 - z^-1)*(L - L)^-1", "(L*z - z^-1)/((L*z^2 - z^-2)*(L - L))",
                     "1/(L - L)", "(L*z - z^-1)^-1/((L*z - z^-1)*0)"):
            with pytest.raises(ParseError, match="division by zero"):
                literal_to_factored(text, 3, 1)


class TestNumericValue:
    def test_constant_factored_value(self):
        ctx = FactoredContext(5, 1)
        c = ctx.field.zeta(2) + 3
        assert numeric_value(FactoredValue.from_constant(ctx, c)) == c.complex_value()
        atom = FactoredValue.atom(ctx, (1,), 2)
        assert numeric_value(atom / atom) == 1

    def test_torus_dependent_value_has_no_number(self):
        # at L = 1 this ratio is 1 / (z + z^-1) = -1, which sign used to report
        v = literal_to_factored("(L*z - z^-1)/(L*z^2 - z^-2)", 3, 1)
        with pytest.raises(errors.NotNumeric):
            numeric_value(v)
        with pytest.raises(errors.NotNumeric):
            sign(v)
        assert issubclass(errors.NotNumeric, errors.InputError)

    def test_signed_spectrum_of_a_symbolic_spectrum(self):
        # evaluating at L = 1 divided by the vanishing atom L - 1
        spec = char_poly_s2(*uqsl2_family(3))
        with pytest.raises(errors.NotNumeric):
            signed_spectrum(spec)


class TestLiteralParser:
    def test_rationals(self):
        assert rational_value(literal_to_cycnum("3/4", 1)) == Fraction(3, 4)
        assert rational_value(literal_to_cycnum("-2", 3)) == -2
        assert rational_value(literal_to_cycnum("1e-6", 1)) == Fraction(1, 10**6)

    def test_zeta_powers(self):
        F = CycField(5)
        assert literal_to_cycnum("z^2", 5) == F.zeta(2)
        assert literal_to_cycnum("z^-2", 5) == F.zeta(3)
        assert literal_to_cycnum("z", 5) == F.zeta(1)
        assert literal_to_cycnum("1 + z + z^2 + z^3 + z^4", 5) == F.zero()

    def test_expressions(self):
        F = CycField(3)
        v = literal_to_cycnum("(1 - z) * (1 - z^2)", 3)
        assert v == (F.one() - F.zeta(1)) * (F.one() - F.zeta(2))
        assert literal_to_cycnum("1/(1 - z) * (1 - z)", 3) == F.one()

    def test_factored_atoms(self):
        ctx = FactoredContext(5, 1)
        v = literal_to_factored("L*z^2 - z^-2", 5, 1)
        assert v == FactoredValue.atom(ctx, (1,), 2)
        v2 = literal_to_factored("(L*z^1 - z^-1)/(L*z^2 - z^-2)", 5, 1)
        assert v2.factors == {((1,), 1): 1, ((1,), 2): -1}

    def test_multivariate_atoms(self):
        ctx = FactoredContext(5, 2)
        v = literal_to_factored("L1*L2*z^3 - z^-3", 5, 2)
        assert v == FactoredValue.atom(ctx, (1, 1), 3)

    def test_round_trip_rendering(self):
        ctx = FactoredContext(5, 1)
        v = FactoredValue.atom(ctx, (1,), 2) / FactoredValue.atom(ctx, (1,), 1)
        again = literal_to_factored(str(v), 5, 1)
        assert again == v
        F = CycField(5)
        x = F.from_rational(Fraction(1, 2)) + F.zeta(3) - 2 * F.zeta(1)
        assert literal_to_cycnum(str(x), 5) == x

    def test_errors(self):
        with pytest.raises(ParseError):
            literal_to_cycnum("1 +", 3)
        with pytest.raises(ParseError):
            literal_to_cycnum("w^2", 3)
        with pytest.raises(ParseError):
            literal_to_cycnum("L^1", 3)  # torus variable outside symbolic mode
        with pytest.raises(ParseError):
            literal_to_factored("L^2 + L + 1", 5, 1)  # not an atom
        with pytest.raises(ParseError):
            parse_literal("1/0", 3, 0)

    def test_nesting_limit(self):
        z = CycField(3).zeta(1)
        assert literal_to_cycnum("(" * 200 + "z" + ")" * 200, 3) == z
        assert literal_to_cycnum("-" * 5001 + "z", 3) == -z
        with pytest.raises(ParseError, match="nested"):
            literal_to_cycnum("(" * 201 + "z" + ")" * 201, 3)

    def test_power_is_repeated_product(self):
        for base, order, nvars in (("2 + z", 7, 0), ("1 + L", 3, 1), ("L*z - z^-1", 5, 1),
                                   ("L1 + L2 + z", 5, 2), ("L/(L*z - z^-1)", 5, 1)):
            for e in range(12):
                product = "*".join([f"({base})"] * e) or "1"
                assert parse_literal(f"({base})^{e}", order, nvars) == \
                    parse_literal(product, order, nvars), (base, e)

    def test_exponent_limit(self):
        # |e| <= 1000 in (expr)^e, and a power at the limit is immediate
        ctx = FactoredContext(5, 1)
        atom = FactoredValue.atom(ctx, (1,), 1)
        for e in (1000, -1000):
            assert literal_to_factored(f"(L*z - z^-1)^{e}", 5, 1) == atom**e
        F = CycField(3)
        assert literal_to_cycnum("(1 + z)^1000", 3) == (1 + F.zeta(1)) ** 1000
        for e in (1001, -1001, 10**9):
            with pytest.raises(ParseError, match="exponent"):
                literal_to_factored(f"(L*z - z^-1)^{e}", 5, 1)

    def test_term_pair_limit(self):
        # (L1 + L2 + 1)^32 squares a 153-term expansion: 23,409 term pairs
        start = time.perf_counter()
        with pytest.raises(ParseError, match="term pairs"):
            parse_literal("(L1 + L2 + 1)^50", 5, 2)
        assert time.perf_counter() - start < 1
        assert len(parse_literal("(L1 + L2 + 1)^16", 5, 2).terms) == 153

    def test_factored_expansion_counts_toward_the_term_pair_limit(self):
        # multiplied out before "+", one atom at a time: 3,660 term pairs for
        # the first power, then 223,260 for the second
        start = time.perf_counter()
        with pytest.raises(ParseError, match="term pairs"):
            parse_literal("(L1*z - z^-1)^60 * (L2*z - z^-1)^60 + 1", 5, 2)
        assert time.perf_counter() - start < 1
        assert len(parse_literal("(L1*z - z^-1)^60 + 1", 5, 2).terms) == 61
        assert len(parse_literal("(L1*z - z^-1)^10 * (L2*z - z^-1)^10 + 1", 5, 2).terms) == 121

    def test_documented_and_benchmark_literals_parse(self, tmp_path):
        """The literals of the README and of every benchmark document and
        --kappa value (seeds 1-10) stay within the parser's limits."""
        readme = (ROOT / "README.md").read_text()
        doc = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        for text in [*doc["category"]["dims"].values(), *doc["m_vector"]]:
            literal_to_cycnum(text, doc["scalar_backend"]["order"])
        literal_to_factored("(2)*L^-1*(L*z^1 - z^-1)^2*(L*z^2 - z^-2)^-1", 5, 1)
        spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        for workload in gen.WORKLOADS:
            for seed in range(1, 11):
                workdir = tmp_path / f"{workload}-{seed}"
                workdir.mkdir()
                for job in gen.generate(workload, seed, workdir, tmp_path):
                    argv = job["argv"]
                    if "--kappa" in argv:
                        order = int(argv[argv.index("--order") + 1])
                        for text in argv[argv.index("--kappa") + 1].split(","):
                            literal_to_cycnum(text, order)
                for path in workdir.iterdir():
                    specfile.load(str(path))

    def test_torus_variables_need_cyclotomic_mode(self):
        assert isinstance(from_literal("L - 1", "cyclotomic", 3, 1), FactoredValue)
        with pytest.raises(ParseError, match="cyclotomic"):
            from_literal("L - 1", "numeric", 3, 1)

    def test_products_of_atoms(self):
        ctx = FactoredContext(5, 1)
        a1, a2 = FactoredValue.atom(ctx, (1,), 1), FactoredValue.atom(ctx, (1,), 2)
        assert literal_to_factored("(L*z^1 - z^-1)*(L*z^2 - z^-2)", 5, 1) == a1 * a2
        assert literal_to_factored("(L*z^1 - z^-1)^2", 5, 1) == a1 * a1
        ctx2 = FactoredContext(5, 2)
        v = literal_to_factored("(L1*z^1 - z^-1)*(L1*L2*z^3 - z^-3)", 5, 2)
        assert v == FactoredValue.atom(ctx2, (1, 0), 1) * FactoredValue.atom(ctx2, (1, 1), 3)
        # sums of products still expand
        w = parse_literal("(L*z^1 - z^-1)*(L*z^2 - z^-2) + 1", 5, 1)
        assert w == (a1 * a2).expand() + LaurentPoly.constant(ctx, ctx.field.one())
        F = CycField(5)
        assert literal_to_cycnum("(1 + z)*(2 + z^2)", 5) == (1 + F.zeta(1)) * (2 + F.zeta(2))

    def test_factored_literal_round_trip(self):
        """to_literal of a random constant * monomial * product of atom powers
        reads back as the same value."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def factored_values(draw):
            ell = draw(st.sampled_from([3, 5, 7]))
            nvars = draw(st.sampled_from([1, 2]))
            ctx = FactoredContext(ell, nvars)
            small = st.integers(min_value=-2, max_value=2)
            constant = reduced(ctx.field, [draw(st.fractions(min_value=-4, max_value=4,
                                                           max_denominator=3))
                                         for _ in range(ctx.field.degree)])
            hypothesis.assume(constant)
            v = FactoredValue(ctx, constant, tuple(draw(small) for _ in range(nvars)))
            # atom coordinates are primitive and lex-positive
            coords = st.sampled_from([c for c in itertools.product(range(-2, 3), repeat=nvars)
                                      if math.gcd(*c) == 1 and next(x for x in c if x) > 0])
            for _ in range(draw(st.integers(min_value=0, max_value=4))):
                v = v * FactoredValue.atom(ctx, draw(coords), draw(st.integers(0, ell - 1)),
                                           draw(small.filter(bool)))
            return v

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(factored_values())
        def check(v):
            assert literal_to_factored(to_literal(v), v.ctx.ell, v.ctx.nvars) == v

        check()

    def test_laurent_addition_of_atoms(self):
        # additive identities stay exact at the Laurent level
        v = parse_literal("(L*z^1 - z^-1) + (L*z^2 - z^-2)", 5, 1)
        assert isinstance(v, LaurentPoly)
        w = parse_literal("L*(z^1 + z^2) - z^-1 - z^-2", 5, 1)
        assert v == w


PACKAGE = ROOT / "src" / "antipode_spectrum"
SCALAR_TYPES = {"CycNum", "FactoredValue", "Fraction", "complex", "SignedEigenvalue"}


class TestLiteralCache:
    def test_size_stays_bounded(self):
        for i in range(2 * LITERAL_CACHE_SIZE):
            from_literal(f"{i}/7 + z", "cyclotomic", 5)
            count_torus_vars(f"L^{i}")
        assert from_literal.cache_info().currsize <= LITERAL_CACHE_SIZE
        assert count_torus_vars.cache_info().currsize <= LITERAL_CACHE_SIZE

    @pytest.mark.parametrize("args", [
        ("1/0", "cyclotomic", 5, 0),
        ("L + 1", "cyclotomic", 5, 0),
        ("L", "numeric", 5, 1),
        ("(L*z - z^-1) + (L*z - z^-1)^-1", "cyclotomic", 3, 1),
    ])
    def test_failing_literal_fails_the_same_way_twice(self, args):
        raised = []
        for _ in range(2):
            with pytest.raises(ParseError) as e:
                from_literal(*args)
            raised.append((type(e.value), str(e.value)))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("args", [
        ("(1 - z)^-3 + 2/3", "cyclotomic", 7, 0),
        ("(1 - z)^-3 + 2/3", "numeric", 7, 0),
        ("-2*(L1*z - z^-1)^2/(L2*L1*z^2 - z^-2)", "cyclotomic", 5, 2),
    ], ids=["CycNum", "complex", "FactoredValue"])
    def test_cached_value_equals_a_fresh_parse(self, args):
        first = from_literal(*args)
        cached = from_literal(*args)
        fresh = from_literal.__wrapped__(*args)
        assert cached is first
        assert type(cached) is type(fresh) and cached == fresh
        assert canonical_key(cached) == canonical_key(fresh)
        # what the callers do with a value leaves the cached one unchanged
        _ = [inverse(cached) * cached**2, lift([cached, 1]), str(cached)]
        assert from_literal(*args) == fresh


def test_scalar_kind_is_decided_in_scalar_only():
    """The modules outside scalar.py and the scalar classes ask scalar.py
    which kind a value is: they name no scalar type in an isinstance call or
    as an operand of a comparison (type(x) is CycNum), and read no tag out
    of a canonical key."""
    for name in ("cli", "specfile", "pivotalization", "oracle", "spectrum", "families"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                assert not named & SCALAR_TYPES, f"{name}.py:{node.lineno}"
            if isinstance(node, ast.Compare):
                named = {n.id for n in (node.left, *node.comparators) if isinstance(n, ast.Name)}
                assert not named & SCALAR_TYPES, f"{name}.py:{node.lineno} compares a type"
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call):
                func = node.value.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert called != "canonical_key", f"{name}.py:{node.lineno} reads a key tag"


def test_scalar_helpers_properties():
    """is_zero, close, inverse, sign and the literal rendering agree with each
    other and with canonical keys on random CycNum (orders 1-12), Fraction and
    complex values."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fractions = st.fractions(max_denominator=12).filter(lambda q: abs(q) <= 50)

    @st.composite
    def cyclotomics(draw):
        field = CycField(draw(st.integers(min_value=1, max_value=12)))
        return reduced(field, [draw(fractions) for _ in range(field.degree)])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.one_of(cyclotomics(), fractions,
                  st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)),
        st.data(),
    )
    def check(x, data):
        assert is_zero(x - x)
        if not is_zero(x):
            if isinstance(x, complex):
                assert close(inverse(x) * x, 1)
            else:
                assert inverse(x) * x == 1
        if not isinstance(x, complex):
            # a second value of the same field, equal to x about half the time
            y = data.draw(st.one_of(st.just(x), fractions, st.just(x + 1), st.just(x * 2)))
            assert close(x, y) == (canonical_key(x) == canonical_key(y))
            order = x.field.order if hasattr(x, "field") else 1
            assert literal_to_cycnum(to_literal(x), order) == x
        real = x + x.conjugate()
        r = numeric_value(real).real
        if abs(r) > 1e-9:
            assert sign(real) == (1 if r > 0 else -1)

    check()


def test_rational_inputs_are_elements_of_q():
    """An int or Fraction x and CycField(1).from_rational(x) agree on every
    helper, signs of tiny values included.  A rational of degree 1 (order 1
    or 2) meets an element of any field of order 1-12 in arithmetic, in both
    operand orders, as its embedding there does; lift of a list that mixes
    it with that field, or with a factored value, is the lift of the
    embedded list."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    Q = CycField(1)
    rationals = st.one_of(st.integers(-10**20, 10**20),
                          st.fractions(max_denominator=10**15).filter(lambda q: abs(q) <= 10**6))
    small = st.fractions(max_denominator=6).filter(lambda q: abs(q) <= 6)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(rationals, rationals, st.integers(1, 12), st.data())
    def check(x, y, order, data):
        q = Q.from_rational(x)
        for helper in (canonical_key, sign, to_json, to_text, to_literal, is_zero):
            assert helper(x) == helper(q), helper
        assert sign(x) == sign(q) == (x > 0) - (x < 0)
        assert close(x, y) == close(q, Q.from_rational(y)) == close(x, Q.from_rational(y)) == (x == y)
        if x:
            assert type(inverse(x)) is CycNum and inverse(x).field is Q
            assert inverse(x) == inverse(q) == 1 / Fraction(x)
        F = CycField(order)
        w = reduced(F, [data.draw(small) for _ in range(F.degree)])
        for r in (q, CycField(2).from_rational(x)):
            e = embed(q, F)
            assert r == e and e == r and hash(r) == hash(e)
            pairs = [(r + w, e + w), (w + r, w + e), (r - w, e - w), (w - r, w - e),
                     (r * w, e * w), (w * r, w * e), (r == w, e == w), (w == r, w == e)]
            if w:
                pairs.append((r / w, e / w))
            if x:
                pairs.append((w / r, w / e))
            for got, want in pairs:
                assert got == want
                assert getattr(got, "field", F) is F or F.degree == 1  # Q meets Q
            backend, values = lift([r, w, y])
            assert (backend, values) == lift([e, w, F.from_rational(y)])
            assert all(v.field is F for v in values)
            if order > 2:
                ctx = FactoredContext(order, 1)
                v = FactoredValue(ctx, w or F.one(), (1,))
                assert lift([r, v]) == lift([FactoredValue.from_constant(ctx, e), v])

    check()
