import ast
import cmath
import functools
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from antipode_spectrum import families
from antipode_spectrum.cyclotomic import CycField
from antipode_spectrum.errors import BadParameters, NotACharacter, NotASubgroup, ZeroEntry
from antipode_spectrum.families import (
    Group,
    MatchFailure,
    RootSystemData,
    fibonacci_fusion,
    regular_module,
    taft_family,
    uqg_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.grothendieck import verify_fusion
from antipode_spectrum.modcat import verify_module
from antipode_spectrum.scalar import canonical_key
from antipode_spectrum.spectrum import (
    SpectrumFactorization,
    _sweep_numeric,
    block_multiplicities,
    char_poly_s2,
)


class TestChebyshev:
    def test_defining_identity_numeric(self):
        # P_j(2 cos theta) sin(theta) = sin(j theta)
        rng = random.Random(17)
        for _ in range(10):
            theta = rng.uniform(0.1, 3.0)
            values = families._chebyshev(2 * math.cos(theta), 1.0, operator.mul, 6)
            for j, val in enumerate(values, start=1):
                assert abs(val * math.sin(theta) - math.sin(j * theta)) < 1e-9


class TestTaftFamily:
    def test_all_blocks_have_multiplicity_one(self):
        f, mod, _ = taft_family(3)
        n = block_multiplicities(f, mod)
        assert set(n.ravel().tolist()) == {1}

    def test_spectrum_packets(self):
        for n, s in ((2, 1), (3, 1), (5, 2)):
            f, mod, m = taft_family(n, s)
            spec = char_poly_s2(f, mod, m)
            F = CycField(n)
            assert spec.total_degree == n**4
            assert spec.multiset() == {canonical_key(F.zeta(t)): n**3 for t in range(n)}

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            taft_family(1)
        with pytest.raises(BadParameters):
            taft_family(4, 2)

    def test_verifies(self):
        f, mod, _ = taft_family(4)
        assert verify_fusion(f, strict_duality=True).ok
        assert verify_module(f, mod).ok


class TestUqsl2Family:
    def test_ring_relation_is_the_minimal_one(self):
        # the characteristic polynomial of L_{X_2} is 2 T_ell(x/2) - 2, the
        # polynomial identity behind z^ell + z^-ell - 2 = 0; it is also the
        # minimal one, as the powers of X_2 applied to X_1 span the ring
        for ell in (3, 5, 7):
            x2 = uqsl2_family(ell).fusion.left_mult_matrix("X2")
            t_ell = np.polynomial.chebyshev.cheb2poly([0] * ell + [1])
            minimal = [2 * c / 2**k for k, c in enumerate(t_ell)]
            minimal[0] -= 2
            assert np.allclose(np.poly(x2)[::-1], minimal, atol=1e-6)
            krylov = [np.linalg.matrix_power(x2, k)[:, 0] for k in range(ell)]
            assert np.linalg.matrix_rank(np.array(krylov)) == ell

    def test_ring_relation_roots_numeric(self):
        # the eigenvalues of L_{X_2}: 2 once and each 2 cos(2 pi j / ell) twice
        for ell in (3, 5, 7):
            x2 = uqsl2_family(ell).fusion.left_mult_matrix("X2")
            roots = [2.0] + [2 * math.cos(2 * math.pi * j / ell)
                             for j in range(1, (ell - 1) // 2 + 1) for _ in range(2)]
            eig = np.sort_complex(np.linalg.eigvals(x2.astype(float)))
            assert np.allclose(eig, np.sort_complex(np.array(roots, dtype=complex)), atol=1e-6)

    def test_fusion_boundary_rule(self):
        fam = uqsl2_family(5)
        f = fam.fusion
        t = f.tensor()
        i2, i5 = f.index["X2"], f.index["X5"]
        # X2 X5 = 2 X1 + 2 X4
        col = t[i2, i5, :]
        assert col[f.index["X1"]] == 2 and col[f.index["X4"]] == 2
        assert col.sum() == 4

    def test_m_recursion_identity(self):
        # m_{j+1} + m_{j-1} = (q + q^-1) m_j at the Laurent level
        ell, s = 5, 1
        fam = uqsl2_family(ell, s)
        ctx = fam.m[0].ctx
        F = ctx.field
        x0 = F.zeta(s) + F.zeta(-s)
        polys = [x.expand() for x in fam.m]
        for j in range(ell):
            lhs = polys[(j + 1) % ell] + polys[(j - 1) % ell]
            rhs = polys[j] * x0
            assert (lhs - rhs).is_zero()

    def test_dims_match_weight_character(self):
        # dim X_j = [j]_q, so dim X_j sin(2 pi s / ell) = sin(2 pi s j / ell)
        for ell, s in ((5, 1), (5, 2), (7, 3)):
            fam = uqsl2_family(ell, s)
            for j in range(1, ell + 1):
                dj = fam.fusion.dims[f"X{j}"].complex_value()
                want = math.sin(2 * math.pi * s * j / ell) / math.sin(2 * math.pi * s / ell)
                assert abs(dj - want) < 1e-9

    def test_module_action_is_a_weight_sum(self):
        # X_j acts on Z/ell as the sum of the shifts by its weights j-1, j-3, ..., 1-j
        ell = 7
        mod = uqsl2_family(ell).module
        for j in range(1, ell + 1):
            want = sum(np.roll(np.eye(ell, dtype=np.int64), w, axis=0)
                       for w in range(j - 1, -j, -2))
            assert (mod.matrix(f"X{j}") == want).all()

    def test_verifies(self):
        for ell in (3, 5, 7, 9, 11):
            fam = uqsl2_family(ell)
            assert verify_fusion(fam.fusion).ok
            assert verify_module(fam.fusion, fam.module).ok

    def test_cartan_weighted_sums(self):
        for ell in (3, 5, 7):
            fam = uqsl2_family(ell)
            C = fam.fusion.cartan
            dims = np.arange(1, ell + 1)
            proj = C.T @ dims
            assert (proj[:-1] == 2 * ell).all()
            assert proj[-1] == ell
            assert int(proj @ dims) == ell**3

    def test_every_block_multiplicity_is_ell(self):
        for ell in (3, 5):
            fam = uqsl2_family(ell)
            n = block_multiplicities(fam.fusion, fam.module)
            assert set(n.ravel().tolist()) == {ell}

    def test_symbolic_spectrum_equals_product_formula(self):
        for ell in (3, 5):
            fam = uqsl2_family(ell)
            assert char_poly_s2(fam.fusion, fam.module, fam.m) == uqg_family("A1", ell)

    def test_exact_lambda_spectrum_equals_product_formula(self):
        for lam in (Fraction(2), Fraction(-3, 7)):
            fam = uqsl2_family(5, lam=lam)
            assert char_poly_s2(fam.fusion, fam.module, fam.m) == uqg_family("A1", 5, lam=[lam])

    def test_numeric_lambda_spectrum_equals_product_formula(self):
        fam = uqsl2_family(5, lam=0.37 - 1.2j)
        spec = char_poly_s2(fam.fusion, fam.module, fam.m)
        assert spec.close_to(uqg_family("A1", 5, lam=[0.37 - 1.2j]), 1e-9)

    def test_lambda_zero_exact_limit(self):
        fam = uqsl2_family(3, lam=0)
        spec = char_poly_s2(fam.fusion, fam.module, fam.m)
        assert spec.uniform_root_power() == (3, 3**4)

    def test_numeric_lambda_near_zero(self):
        fam = uqsl2_family(3, lam=1e-6)
        spec = char_poly_s2(fam.fusion, fam.module, fam.m)
        assert spec.total_degree == 3**5
        roots = [cmath.exp(2j * cmath.pi * t / 3) for t in range(3)]
        for v, _ in spec.entries:
            assert min(abs(complex(v) - r) for r in roots) < 1e-4

    def test_root_of_unity_lambda_rejected(self):
        with pytest.raises(ZeroEntry):
            uqsl2_family(5, lam=1.0)

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            uqsl2_family(4)
        with pytest.raises(BadParameters):
            uqsl2_family(9, s=3)


class TestUqgFamily:
    def test_a1_specializes_to_uqsl2(self):
        for ell in (3, 5):
            fam = uqsl2_family(ell)
            assert uqg_family("A1", ell) == char_poly_s2(fam.fusion, fam.module, fam.m)
        # and with exact numeric lambda
        fam = uqsl2_family(5, lam=Fraction(2))
        assert uqg_family("A1", 5, lam=[Fraction(2)]) == char_poly_s2(fam.fusion, fam.module, fam.m)

    def test_a2_degree_and_multiplicities(self):
        spec = uqg_family("A2", 5, lam=(0.7 + 0.2j, 1.3 - 0.4j))
        assert spec.total_degree == 5**12
        assert all(mult % 5**4 == 0 for _, mult in spec.entries)

    def test_a2_merge_respects_tolerance(self):
        # one eigenvalue here straddles a ninth-digit rounding boundary
        spec = uqg_family("A2", 5, 1, [1.121274 - 1.180532j, -0.325045 - 1.419797j])
        assert len(spec) == 72541
        assert spec.total_degree == 5**12

    def test_a2_ell3_rejected(self):
        with pytest.raises(BadParameters):
            uqg_family("A2", 3)

    def test_highest_root_monomial(self):
        # Lambda_alpha for alpha = alpha1 + alpha2 is the monomial L1 L2
        from antipode_spectrum.symbolic import FactoredContext, FactoredValue

        ctx = FactoredContext(5, 2)
        atom = FactoredValue.atom(ctx, (1, 1), 2)
        z = cmath.exp(2j * cmath.pi / 5)
        l1, l2 = 0.8 + 0.1j, 1.4 - 0.3j
        assert abs(atom.complex_value((l1, l2)) - (l1 * l2 * z**2 - z**-2)) < 1e-12

    def test_symbolic_rank_two_pairing(self):
        # small rank-2 system exercises the symbolic multi-variable path
        rs = RootSystemData("A1xA1", [[2, 0], [0, 2]], [(1, 0), (0, 1)], 6)
        spec = uqg_family(rs, 3, lam="symbolic")
        assert spec.total_degree == 3 ** (6 + 4)
        coords = {c for v, _ in spec.entries for (c, _a), _p in v.factors.items()}
        assert coords == {(1, 0), (0, 1)}

    def test_root_system_presets(self):
        for name, npos, dim in (("A1", 1, 3), ("A2", 3, 8), ("A3", 6, 15)):
            rs = RootSystemData.preset(name)
            assert len(rs.positive_roots) == npos
            assert rs.dim_g == dim
            assert (rs.cartan == rs.cartan.T).all()
        with pytest.raises(BadParameters):
            RootSystemData.preset("B2")

    def test_torus_point_coercion(self):
        # a scalar is a rank-1 point; the family checks the coordinate count
        assert uqsl2_family(5, lam=Fraction(2)).m == uqsl2_family(5, lam=[Fraction(2)]).m
        assert uqg_family("A1", 5, lam=Fraction(2)) == uqg_family("A1", 5, lam=(Fraction(2),))
        with pytest.raises(BadParameters):
            uqg_family("A2", 5, lam=(1.0,))
        with pytest.raises(BadParameters):
            uqg_family("A2", 5, lam=1.0)
        with pytest.raises(BadParameters):
            uqsl2_family(5, lam=[Fraction(2), Fraction(3)])

    def test_numeric_enumeration_is_deterministic(self):
        lam = (0.7 + 0.2j, 1.3 - 0.4j)
        first = uqg_family("A2", 5, lam=lam)
        second = uqg_family("A2", 5, lam=lam)
        assert first == second
        assert first.entries == second.entries


def specialize(spec, point):
    """The factored eigenvalues of spec evaluated at the torus point and
    merged again: exact CycNum values for rational coordinates, merged by
    canonical key, or complex values merged by the numeric sweep.  Atom
    values and the products of an entry's positive and of its negative
    powers are memoized, since entries share them."""
    ctx = spec.entries[0][0].ctx
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    if exact:
        zeta, one = ctx.field.zeta, ctx.field.one()
    else:
        zeta, one = (lambda a: cmath.exp(2j * cmath.pi * a / ctx.ell)), 1

    @functools.cache
    def atom(coords, a):
        return math.prod(x**e for x, e in zip(point, coords)) * zeta(a) - zeta(-a)

    @functools.cache
    def product(powers):
        return math.prod((atom(*key) ** p for key, p in powers), start=one)

    @functools.cache
    def reciprocal(powers):
        return 1 / product(powers)

    pairs = []
    for v, mult in spec.entries:
        num = frozenset((key, p) for key, p in v.factors.items() if p > 0)
        den = frozenset((key, -p) for key, p in v.factors.items() if p < 0)
        value = product(num) * reciprocal(den) if den else product(num)
        if any(v.monomial):
            value = value * math.prod(x**e for x, e in zip(point, v.monomial))
        if v.constant != ctx.field.one():
            value = value * (v.constant if exact else v.constant.complex_value())
        pairs.append((value, mult))
    if exact:
        return SpectrumFactorization.merge_pairs(pairs, "cyclotomic")
    values, mults = zip(*pairs)
    return _sweep_numeric(np.array(values), np.array(mults, dtype=np.int64), 1e-9)


class TestSpecialization:
    """The spectrum at a torus point is the symbolic spectrum evaluated at
    that point, with multiplicities added where values meet: exactly at a
    rational point, within tol at a complex one.  A2 runs at ell = 5 (ell = 3
    shares the factor 3 with det(Cartan) and is refused) and only at a
    complex point: evaluating its 72,541 symbolic entries exactly takes
    longer than the whole suite may grow."""

    def test_uqsl2_exact_point(self):
        for ell, lam in ((5, Fraction(2, 3)), (7, Fraction(-5, 4))):
            symbolic = char_poly_s2(*uqsl2_family(ell))
            exact = char_poly_s2(*uqsl2_family(ell, lam=lam))
            assert specialize(symbolic, (lam,)).entries == exact.entries, ell

    def test_uqsl2_complex_point(self):
        for ell, lam in ((5, 0.8 - 0.3j), (7, -1.1 + 0.6j)):
            symbolic = char_poly_s2(*uqsl2_family(ell))
            numeric = char_poly_s2(*uqsl2_family(ell, lam=lam))
            assert specialize(symbolic, (lam,)).close_to(numeric, 1e-7), ell

    def test_a2_complex_point(self):
        point = (0.7 + 0.2j, 1.3 - 0.4j)
        numeric = uqg_family("A2", 5, lam=point)
        assert len(numeric) == 72541
        assert specialize(uqg_family("A2", 5), point).close_to(numeric, 1e-7)

    def test_a1_exact_point(self):
        for ell, lam in ((7, Fraction(5, 2)), (9, Fraction(-2, 9))):
            exact = uqg_family("A1", ell, 2, [lam])
            assert specialize(uqg_family("A1", ell, 2), (lam,)).entries == exact.entries, ell

    def test_a1_special_point_merges(self):
        # at Lambda = 0 the atoms L z^a - z^-a become -z^-a and many
        # symbolic eigenvalues meet: their multiplicities add up
        symbolic = uqg_family("A1", 5)
        exact = uqg_family("A1", 5, lam=[Fraction(0)])
        assert len(exact) < len(symbolic)
        assert specialize(symbolic, (Fraction(0),)).entries == exact.entries


class TestVecGFamily:
    def test_z2_signed_matched(self):
        f, mod, m = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        assert m == [1, -1]
        assert verify_fusion(f, strict_duality=True).ok
        assert verify_module(f, mod).ok

    def test_z2_full_subgroup_unmatched(self):
        _, _, mf = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0", "1"])
        assert isinstance(mf, MatchFailure)
        assert mf.multiplicity == 0

    def test_s3_coset_trivial_character(self):
        s3 = Group.symmetric3()
        f, mod, m = vecg_family(s3, {g: 1 for g in s3.elements}, ["e", "r", "r2"])
        assert m == [1, 1]
        assert mod.size == 2
        assert verify_module(f, mod).ok

    def test_not_a_character(self):
        with pytest.raises(NotACharacter):
            vecg_family(Group.cyclic(3), {"0": 1, "1": -1, "2": 1}, ["0"])

    def test_not_a_subgroup(self):
        s3 = Group.symmetric3()
        with pytest.raises(NotASubgroup):
            vecg_family(s3, {g: 1 for g in s3.elements}, ["e", "s", "r"])
        with pytest.raises(NotASubgroup):
            vecg_family(s3, {g: 1 for g in s3.elements}, ["r", "r2"])


class TestRegularModule:
    def test_fibonacci_degree_13(self):
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        assert char_poly_s2(f, mod, m).total_degree == 13

    def test_vec_zn_trivial_all_ones_spectrum(self):
        z4, _, _ = vecg_family(Group.cyclic(4), {str(a): 1 for a in range(4)}, ["0"])
        mod, m = regular_module(z4)
        spec = char_poly_s2(z4, mod, m)
        assert len(spec.entries) == 1 and spec.entries[0][1] == spec.total_degree

    def test_index_bijection_against_dd_form(self):
        # merged multiset equals {d_j d_k / (d_i d_l)} with multiplicity
        # dim Hom(X_j X_k, X_i X_l), the regular-module index convention
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        spec = char_poly_s2(f, mod, m)
        t = f.tensor()
        d = f.dims_vector()
        acc = {}
        k = f.size
        import itertools

        for i, j, kk, l in itertools.product(range(k), repeat=4):
            # dim Hom(X_j X_k, X_i X_l) = sum_w c_{j k}^w c_{i l}^w
            mult = int(sum(t[j, kk, w] * t[i, l, w] for w in range(k)))
            if mult:
                lam = d[j] * d[kk] / (d[i] * d[l])
                key = canonical_key(lam)
                acc[key] = acc.get(key, 0) + mult
        assert acc == spec.multiset()


def test_one_torus_character_builder():
    """Torus characters are evaluated in one function of families.py: it is
    the only caller of FactoredValue.atom and of cmath.exp there."""
    tree = ast.parse(Path(families.__file__).read_text())
    callers = {("FactoredValue", "atom"): set(), ("cmath", "exp"): set()}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)):
                name = (node.func.value.id, node.func.attr)
                if name in callers:
                    callers[name].add(fn.name)
    assert callers == {("FactoredValue", "atom"): {"_torus_characters"},
                       ("cmath", "exp"): {"_torus_characters"}}
