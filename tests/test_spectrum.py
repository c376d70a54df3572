import math
from fractions import Fraction

import numpy as np
import pytest

from antipode_spectrum import spectrum
from antipode_spectrum.cyclotomic import CycField, CycNum
from antipode_spectrum.errors import (
    AmbiguousM,
    EmptyEigenspace,
    InvalidTwist,
    JDependence,
    NotInEigenspace,
    ZeroEntry,
)
from antipode_spectrum.families import (
    Group,
    fibonacci_fusion,
    matched_builtins,
    regular_module,
    taft_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.grothendieck import FusionData, global_dimension
from antipode_spectrum.oracle import brute_force_spectrum
from antipode_spectrum.scalar import canonical_key, lift
from antipode_spectrum.spectrum import (
    block_multiplicities,
    char_poly_s2,
    dimension_eigenspace,
    m_bar,
    matched_checks,
    pair_class_spectrum,
    pivotal_twist_invariance,
    SpectrumFactorization,
    select_m,
)

PHI5 = lambda: -(CycField(5).zeta(2)) - CycField(5).zeta(3)


class TestDimensionEigenspace:
    def test_taft_multiplicity_one(self):
        f, mod, _ = taft_family(3)
        basis, mult = dimension_eigenspace(f, mod)
        assert mult == 1
        m = select_m(f, mod, (basis, mult))
        F = CycField(3)
        assert m == [F.one(), F.zeta(1), F.zeta(2)]  # m_i = q^i

    def test_uqsl2_multiplicity_two(self):
        for ell in (3, 5):
            fam = uqsl2_family(ell)
            _, mult = dimension_eigenspace(fam.fusion, fam.module)
            assert mult == 2

    def test_fibonacci_multiplicity_one(self):
        f = fibonacci_fusion()
        mod, _ = regular_module(f)
        _, mult = dimension_eigenspace(f, mod)
        assert mult == 1

    def test_empty_for_unmatched_kappa(self):
        f, mod, _ = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0", "1"])
        with pytest.raises(EmptyEigenspace):
            dimension_eigenspace(f, mod)

    def test_numeric_backend_eigenspace(self):
        # complex dims route through the SVD kernel
        import cmath

        from antipode_spectrum.grothendieck import FusionData

        f, mod, _ = taft_family(3)
        q = cmath.exp(2j * cmath.pi / 3)
        fnum = FusionData(
            f.labels, f.unit, f.dual, f.structure, cartan=f.cartan,
            dims={str(a): q**a for a in range(3)},
        )
        basis, mult = dimension_eigenspace(fnum, mod)
        assert mult == 1
        m = select_m(fnum, mod, (basis, mult))
        assert all(abs(m[i] - q**i) < 1e-9 for i in range(3))


class TestSelectM:
    def test_ambiguous_without_candidate(self):
        fam = uqsl2_family(3)
        with pytest.raises(AmbiguousM):
            select_m(fam.fusion, fam.module)

    def test_symbolic_candidate_accepted(self):
        fam = uqsl2_family(5)
        m = select_m(fam.fusion, fam.module, candidate=fam.m)
        assert m == fam.m

    def test_numeric_root_of_unity_rejected(self):
        # Lambda^ell = 1 forces a vanishing entry
        with pytest.raises(ZeroEntry):
            uqsl2_family(3, lam=1.0)
        F = CycField(3)
        with pytest.raises(ZeroEntry):
            uqsl2_family(3, lam=F.zeta(1))

    def test_not_in_eigenspace(self):
        fam = uqsl2_family(3)
        F = CycField(3)
        bad = [F.one(), F.one(), F.from_rational(2)]
        with pytest.raises(NotInEigenspace):
            select_m(fam.fusion, fam.module, candidate=bad)

    def test_exact_lambda_candidate(self):
        fam = uqsl2_family(3, lam=Fraction(2))
        m = select_m(fam.fusion, fam.module, candidate=fam.m)
        assert all(x for x in m)

    def test_verified_candidate_skips_eigenspace(self, monkeypatch):
        def eigenspace(*args, **kwargs):
            raise AssertionError("dimension eigenspace computed for a verified candidate")

        monkeypatch.setattr(spectrum, "dimension_eigenspace", eigenspace)
        for fam in (uqsl2_family(3, lam=Fraction(2)), uqsl2_family(5)):
            assert select_m(fam.fusion, fam.module, candidate=fam.m) == fam.m

    def test_candidate_for_unmatched_data_reports_empty_eigenspace(self):
        f, mod, _ = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0", "1"])
        with pytest.raises(EmptyEigenspace):
            select_m(f, mod, candidate=[1])


class TestMBar:
    def test_fibonacci_self_conjugate(self):
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        mb = m_bar(f, mod, m)
        assert mb == m
        total = sum((a * b for a, b in zip(m, mb)), start=f.dims["1"] * 0)
        assert total == global_dimension(f)

    def test_vec_z2_signed(self):
        f, mod, m = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        mb = m_bar(f, mod, m)
        assert m == [1, -1] and mb == [1, -1]
        assert sum(a * b for a, b in zip(m, mb)) == 2 == global_dimension(f)

    def test_spherical_regular_mbar_equals_m(self):
        # M = C with real (spherical) dims
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        assert m_bar(f, mod, m) == m

    def test_taft_mbar_is_inverse_character(self):
        f, mod, m = taft_family(5, 2)
        F = CycField(5)
        mb = m_bar(f, mod, m)
        assert mb == [F.zeta(-2 * i) for i in range(5)]

    def test_jdependence_for_uqsl2(self):
        fam = uqsl2_family(3)
        with pytest.raises(JDependence):
            m_bar(fam.fusion, fam.module, fam.m)


class TestMatchedChecks:
    def test_all_fusion_like_builtins_pass(self):
        for ex in matched_builtins():
            if not ex.q_suite:
                continue
            mb = m_bar(ex.fusion, ex.module, ex.m)
            rep = matched_checks(ex.fusion, ex.module, ex.m, mb)
            assert rep.ok, f"{ex.name}: {rep}"

    def test_s3_coset_module(self):
        s3 = Group.symmetric3()
        f, mod, m = vecg_family(s3, {g: 1 for g in s3.elements}, ["e", "r", "r2"])
        mb = m_bar(f, mod, m)
        rep = matched_checks(f, mod, m, mb)
        assert rep.ok, str(rep)

    def test_corrupted_m_fails_rank_or_table(self):
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        mb = m_bar(f, mod, m)
        bad_m = [m[0], m[1] + 1]
        rep = matched_checks(f, mod, bad_m, mb)
        assert not rep.ok


class TestCharPolyS2:
    def test_taft_n3(self):
        from antipode_spectrum.scalar import canonical_key

        f, mod, m = taft_family(3)
        spec = char_poly_s2(f, mod, m)
        F = CycField(3)
        assert spec.total_degree == 81
        assert spec.multiset() == {
            canonical_key(F.one()): 27,
            canonical_key(F.zeta(1)): 27,
            canonical_key(F.zeta(2)): 27,
        }

    def test_trivial_category(self):
        f = FusionData(["1"], "1", {"1": "1"}, {("1", "1", "1"): 1}, dims={"1": Fraction(1)})
        mod, m = regular_module(f)
        spec = char_poly_s2(f, mod, m)
        assert spec.entries == [(Fraction(1), 1)]

    def test_fibonacci_regular_vs_brute_oracle(self):
        from antipode_spectrum.scalar import canonical_key

        f = fibonacci_fusion()
        mod, m = regular_module(f)
        spec = char_poly_s2(f, mod, m)
        assert spec == brute_force_spectrum(f, mod, m)
        phi = PHI5()
        expect = {
            canonical_key(CycField(5).one()): 7,
            canonical_key(phi): 2,
            canonical_key(phi.inverse()): 2,
            canonical_key(phi * phi): 1,
            canonical_key((phi * phi).inverse()): 1,
        }
        assert spec.multiset() == expect
        assert spec.total_degree == 13


class TestPairClassSpectrum:
    def test_numeric_merge_across_a_rounding_boundary(self):
        # 2e-14 apart, on the two sides of a ninth-digit rounding boundary
        values = np.array([0.12345678849999, 0.12345678850001], dtype=complex)
        spec = spectrum._sweep_numeric(values, np.ones(2, dtype=np.int64), 1e-9)
        assert spec.entries == [(0.123456788 + 0j, 2)]

    def test_numeric_values_beyond_tolerance_stay_apart(self):
        values = np.array([0.5, 0.5 + 3e-9, 0.5 + 3e-9j, 0.5 + 1e-10j])
        spec = spectrum._sweep_numeric(values, np.ones(4, dtype=np.int64), 1e-9)
        assert spec.entries == [(0.5 + 0j, 2), (0.5 + 3e-9j, 1), (0.500000003 + 0j, 1)]

    def test_weight_matrix_and_uniform_weight_agree(self):
        F = CycField(5)
        values = [F.zeta(t) for t in range(5)] + [F.zeta(2)]
        uniform = pair_class_spectrum(values, 3, "cyclotomic")
        full = pair_class_spectrum(values, np.full((6, 6, 6, 6), 3), "cyclotomic")
        assert uniform.entries == full.entries
        assert uniform.total_degree == 3 * 6**4
        # the 36 exponent sums t_a + t_b mod 5 fall 7, 7, 7, 7, 8 times on
        # 0..4, so 7^2 * 4 + 8^2 = 260 quadruples give the eigenvalue 1
        assert uniform.multiset()[canonical_key(F.one())] == 3 * 260

    def test_zero_weights_are_skipped(self):
        F = CycField(3)
        weights = np.zeros((2, 2, 2, 2), dtype=np.int64)
        weights[0, 0, 1, 1] = 2
        spec = pair_class_spectrum([F.one(), F.zeta(1)], weights, "cyclotomic")
        assert spec.entries == [(F.zeta(1), 2)]  # 1 / z^2 = z

    def test_kernel_equals_quadruple_loop(self):
        """Against merge_pairs over every quadruple, on values whose pair
        products collide (roots of unity times small rationals)."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        F = CycField(6)
        value = st.builds(lambda q, t: q * F.zeta(t),
                          st.sampled_from([1, -1, 2, Fraction(1, 2), 3]),
                          st.integers(min_value=0, max_value=5))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            k = data.draw(st.integers(min_value=1, max_value=4))
            values = data.draw(st.lists(value, min_size=k, max_size=k))
            if data.draw(st.booleans()):
                weights = data.draw(st.integers(min_value=1, max_value=3))
                w = np.full((k,) * 4, weights)
            else:
                flat = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                          min_size=k**4, max_size=k**4))
                weights = w = np.array(flat, dtype=np.int64).reshape((k,) * 4)
            quads = [(a, b, c, d) for a, b, c, d in np.ndindex(*w.shape) if w[a, b, c, d]]
            for backend, vals in (("cyclotomic", values),
                                  ("numeric", [v.complex_value() for v in values])):
                expect = SpectrumFactorization.merge_pairs(
                    [(vals[a] * vals[b] / (vals[c] * vals[d]), int(w[a, b, c, d]))
                     for a, b, c, d in quads], backend)
                got = pair_class_spectrum(vals, weights, backend)
                assert got.total_degree == int(w.sum())
                if backend == "numeric":
                    assert got.close_to(expect, 1e-9)
                else:
                    assert got.entries == expect.entries

        check()

    def test_matched_builtins_equal_brute_force(self):
        for ex in matched_builtins():
            spec = char_poly_s2(ex.fusion, ex.module, ex.m)
            assert spec == brute_force_spectrum(ex.fusion, ex.module, ex.m), ex.name


class TestGaloisEquivariance:
    """The eigenvalues lie in the field of the data, and sigma_k permutes
    them: sigma_k(spec(D)) = spec(sigma_k(D)) for every unit k."""

    def test_matched_builtins(self):
        checked = 0
        for ex in matched_builtins():
            if not any(isinstance(x, CycNum) for x in ex.m):
                continue  # symbolic, or rational (every sigma_k is the identity)
            dims = ex.fusion.dims_vector()
            _, lifted = lift(list(dims) + list(ex.m))
            n = lifted[0].field.order
            spec = char_poly_s2(ex.fusion, ex.module, ex.m)
            for k in (k for k in range(1, n) if math.gcd(k, n) == 1):
                image = [x.galois(k) for x in lifted]
                sdims, sm = image[:len(dims)], image[len(dims):]
                spectrum._verify_eigenvector(ex.fusion, ex.module, sm, 1e-9, sdims)
                expect = SpectrumFactorization.merge_pairs(
                    [(v.galois(k), mult) for v, mult in spec.entries], "cyclotomic")
                assert char_poly_s2(ex.fusion, ex.module, sm).entries == expect.entries, \
                    (ex.name, k)
            checked += 1
        assert checked == 5  # taft-2, taft-3, taft-5, vecg-z3-omega, fibonacci

    def test_spectrum_is_the_same_at_every_generator(self):
        for n in (7, 9):
            base = char_poly_s2(*taft_family(n))
            for s in (s for s in range(2, n) if math.gcd(s, n) == 1):
                assert char_poly_s2(*taft_family(n, s)).entries == base.entries, (n, s)
        spectra = []
        for s in range(1, 7):
            fam = uqsl2_family(7, s, Fraction(5, 7))
            spectra.append(char_poly_s2(fam.fusion, fam.module, fam.m))
        assert spectra[0].total_degree == 7**5
        assert all(spec.entries == spectra[0].entries for spec in spectra[1:])


class TestUniformRootPower:
    """(z^n - 1)^e is decided on the values, not on how they are stored."""

    def test_rational_roots_in_any_storage(self):
        F6, F12 = CycField(6), CycField(12)
        storages = {
            "int": [1, -1],
            "Fraction": [Fraction(1), Fraction(-1)],
            "CycNum(6)": [F6.from_rational(1), F6.from_rational(-1)],
            "CycNum(12)": [F12.one(), -F12.one()],
            "complex": [1 + 0j, -1 + 0j],
        }
        for name, values in storages.items():
            backend = "numeric" if name == "complex" else "cyclotomic"
            spec = SpectrumFactorization([(v, 4) for v in values], backend)
            assert spec.uniform_root_power() == (2, 4), name
            assert str(spec) == "(z^2 - 1)^4", name

    def test_roots_in_a_larger_field(self):
        F = CycField(12)
        cube_roots = [F.one(), F.zeta(4), F.zeta(8)]
        spec = SpectrumFactorization([(v, 2) for v in cube_roots], "cyclotomic")
        assert spec.uniform_root_power() == (3, 2)
        assert SpectrumFactorization([(F.zeta(t), 1) for t in range(12)],
                                     "cyclotomic").uniform_root_power() == (12, 1)
        # a single eigenvalue 1 is (z - 1)^e, as it already was for Fraction 1
        for one in (F.one(), Fraction(1)):
            assert SpectrumFactorization([(one, 5)], "cyclotomic").uniform_root_power() == (1, 5)

    def test_non_roots(self):
        F = CycField(6)
        cases = [
            [(F.one(), 1), (F.zeta(1), 1)],            # zeta_6 is not a square root of 1
            [(F.one(), 1), (-F.one(), 2)],             # unequal multiplicities
            [(F.one(), 1), (F.from_rational(2), 1)],
            [(Fraction(1), 3), (Fraction(-1), 3), (Fraction(1, 2), 3)],
        ]
        for entries in cases:
            assert SpectrumFactorization(entries, "cyclotomic").uniform_root_power() is None


class TestArrayBackedSpectrum:
    """A numeric spectrum held as arrays and the same spectrum built from its
    entries list agree on every view."""

    def pair(self, values, mults):
        arrays = SpectrumFactorization.from_arrays(
            np.array(values, dtype=complex), np.array(mults, dtype=np.int64))
        return arrays, SpectrumFactorization(zip(values, mults), "numeric")

    def test_views_agree(self):
        values = [complex(-1.5, 0), complex(0.25, -1e-7), complex(1, 1), complex(2, -0.0)]
        arrays, listed = self.pair(values, [3, 1, 7, 2])
        assert arrays.values is not None and listed.values is None
        assert len(arrays) == len(listed) == 4
        assert arrays.total_degree == listed.total_degree == 13
        assert type(arrays.total_degree) is int
        assert arrays.entries == listed.entries == list(zip(values, [3, 1, 7, 2]))
        assert all(type(v) is complex and type(m) is int for v, m in arrays.entries)
        assert arrays == listed and listed == arrays
        assert arrays.close_to(listed, 1e-9) and listed.close_to(arrays, 1e-9)
        assert str(arrays) == str(listed)
        other, _ = self.pair(values, [3, 1, 7, 3])
        assert other != listed and not other.close_to(listed, 1e-9)

    def test_empty_and_roots_of_unity(self):
        arrays, listed = self.pair([], [])
        assert (len(arrays), arrays.total_degree, arrays.entries) == (0, 0, [])
        assert arrays == listed and str(arrays) == str(listed) == ""
        roots = [complex(math.cos(2 * math.pi * t / 3), math.sin(2 * math.pi * t / 3))
                 for t in range(3)]
        arrays, listed = self.pair(roots, [4, 4, 4])
        assert arrays.uniform_root_power() == listed.uniform_root_power() == (3, 4)
        assert str(arrays) == str(listed) == "(z^3 - 1)^4"

    def test_sweep_returns_the_arrays(self):
        values = np.array([0.5, 0.5 + 3e-9, 0.5 + 3e-9j, 0.5 + 1e-10j])
        spec = spectrum._sweep_numeric(values, np.ones(4, dtype=np.int64), 1e-9)
        assert spec.values.dtype == complex and spec.mults.dtype == np.int64
        assert spec.values.tolist() == [v for v, _ in spec.entries]
        assert spec.mults.tolist() == [2, 1, 1] and len(spec) == 3


class TestCloseTo:
    def spec(self, entries):
        return SpectrumFactorization(entries, "numeric")

    def test_matches_nearest_within_tol(self):
        # conjugate pairs whose real parts differ in the last bits: a pairing
        # by sorted real part alone would cross them over
        a = self.spec([(1 + 2e-12 + 1j, 2), (1 - 1j, 3), (0.5, 1)])
        b = self.spec([(0.5 + 1e-11, 1), (1 + 2e-12 - 1j, 3), (1 + 1j, 2)])
        assert a.close_to(b, 1e-9) and b.close_to(a, 1e-9)

    def test_rejects(self):
        a = self.spec([(1 + 1j, 2), (1 - 1j, 3)])
        assert not a.close_to(self.spec([(1 + 1j, 3), (1 - 1j, 2)]), 1e-9)
        assert not a.close_to(self.spec([(1 + 1j, 2), (1 - 1j + 1e-8, 3)]), 1e-9)
        assert not a.close_to(self.spec([(1 + 1j, 2), (1 - 1j, 2), (2, 1)]), 1e-9)
        assert not a.close_to(self.spec([(1 + 1j, 5)]), 1e-9)
        assert a.close_to(self.spec([(1 + 1j, 2), (1 - 1j + 1e-8, 3)]), 1e-7)


class TestSpectrumInvariants:
    def examples(self):
        out = [taft_family(2), taft_family(3), taft_family(5, 2)]
        f = fibonacci_fusion()
        out.append((f, *regular_module(f)))
        out.append(vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"]))
        s3 = Group.symmetric3()
        out.append(vecg_family(s3, {g: 1 for g in s3.elements}, ["e", "r", "r2"]))
        fam = uqsl2_family(3)
        out.append((fam.fusion, fam.module, fam.m))
        return out

    def test_rescaling_invariance(self):
        from antipode_spectrum.symbolic import FactoredValue

        for f, mod, m in self.examples():
            spec = char_poly_s2(f, mod, m)
            if isinstance(m[0], FactoredValue):
                two = FactoredValue.from_constant(m[0].ctx, m[0].ctx.field.from_rational(2))
                scaled = [two * x for x in m]
            else:
                scaled = [2 * x for x in m]
            assert char_poly_s2(f, mod, scaled) == spec

    def test_inversion_closure(self):
        # Cartans of the built-ins satisfy C_{qr} = C_{r*q*}; multiplicities
        # of lambda and lambda^-1 then agree
        from antipode_spectrum.scalar import canonical_key
        from antipode_spectrum.symbolic import FactoredValue

        for f, mod, m in self.examples():
            C = f.cartan_matrix()
            perm = [f.dual_index(i) for i in range(f.size)]
            assert (C == C[np.ix_(perm, perm)].T).all()
            spec = char_poly_s2(f, mod, m)
            mult = spec.multiset()
            for v, count in spec.entries:
                if isinstance(v, FactoredValue):
                    vinv = FactoredValue.one(v.ctx) / v
                else:
                    vinv = 1 / v if not hasattr(v, "inverse") else v.inverse()
                assert mult[canonical_key(vinv)] == count

    def test_eigenvalue_one_lower_bound(self):
        from antipode_spectrum.scalar import canonical_key
        from antipode_spectrum.symbolic import FactoredValue

        for f, mod, m in self.examples():
            n = block_multiplicities(f, mod)
            size = mod.size
            lower = int(sum(n[i, i, k, k] for i in range(size) for k in range(size)))
            assert lower > 0
            spec = char_poly_s2(f, mod, m)
            if isinstance(m[0], FactoredValue):
                key = canonical_key(FactoredValue.one(m[0].ctx))
            else:
                key = canonical_key(m[0] / m[0])
            assert spec.multiset()[key] >= lower

    def test_degree_equals_dimension_identity(self):
        from antipode_spectrum.modcat import dimension_identity

        for f, mod, m in self.examples():
            assert char_poly_s2(f, mod, m).total_degree == dimension_identity(f, mod)

    def test_numeric_backend_reproduces_exact(self):
        from antipode_spectrum.scalar import numeric_value

        for f, mod, m in self.examples():
            if any(not hasattr(x, "complex_value") and not isinstance(x, (int, Fraction)) for x in m):
                continue
            from antipode_spectrum.symbolic import FactoredValue

            if isinstance(m[0], FactoredValue):
                continue
            exact = char_poly_s2(f, mod, m)
            numeric = char_poly_s2(f, mod, [numeric_value(x) for x in m])
            assert numeric.close_to(exact, 1e-9)


class TestTwistInvariance:
    def test_global_rescaling(self):
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        ring_char = {x: Fraction(1) for x in f.labels}
        assert pivotal_twist_invariance(f, mod, m, ring_char, [Fraction(3), Fraction(3)])

    def test_taft_character_shift(self):
        # b_i = q^{t i} with gcd(1 + t, n) = 1 relabels eigenvalue exponents
        f, mod, m = taft_family(3)
        F = CycField(3)
        t = 1
        ring_char = {str(a): F.zeta(t * a) for a in range(3)}
        module_twist = [F.zeta(t * i) for i in range(3)]
        assert pivotal_twist_invariance(f, mod, m, ring_char, module_twist)

    def test_vec_z3_cube_root_character(self):
        z3 = Group.cyclic(3)
        f, mod, m = vecg_family(z3, {str(a): 1 for a in range(3)}, ["0"])
        F = CycField(3)
        # left translation pairs the module twist b with the inverse ring character
        ring_char = {str(g): F.zeta(-g) for g in range(3)}
        module_twist = [F.zeta(i) for i in range(3)]
        assert pivotal_twist_invariance(f, mod, m, ring_char, module_twist)

    def test_invalid_twist_rejected(self):
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        ring_char = {"1": Fraction(1), "t": Fraction(2)}
        with pytest.raises(InvalidTwist):
            pivotal_twist_invariance(f, mod, m, ring_char, [Fraction(1), Fraction(2)])

    def test_symbolic_global_rescaling(self):
        # the dynamical u_q(sl2) case: a constant factored rescaling of m
        from antipode_spectrum.symbolic import FactoredValue

        fam = uqsl2_family(3)
        ctx = fam.m[0].ctx
        ring_char = {x: 1 for x in fam.fusion.labels}
        twist = [FactoredValue.from_constant(ctx, 3)] * len(fam.m)
        assert pivotal_twist_invariance(fam.fusion, fam.module, fam.m, ring_char, twist)
