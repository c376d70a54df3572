import functools
import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from antipode_spectrum import spectrum
from antipode_spectrum.cyclotomic import CycField, CycNum, coefficient_pairs
from antipode_spectrum.errors import (
    AmbiguousM,
    DivisionByZero,
    EmptyEigenspace,
    InvalidTwist,
    JDependence,
    NotInEigenspace,
    NumericOverflow,
    ZeroEntry,
)
from antipode_spectrum.families import (
    Group,
    _uqsl2_fusion,
    _uqsl2_module,
    regular_module,
    taft_family,
    uqg_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.grothendieck import FusionData
from antipode_spectrum.modcat import ModuleActionData
from antipode_spectrum.oracle import brute_force_spectrum
from antipode_spectrum.scalar import canonical_key, lift
from antipode_spectrum.spectrum import (
    block_multiplicities,
    char_poly_s2,
    dimension_eigenspace,
    m_bar,
    pair_class_spectrum,
    SpectrumFactorization,
    select_m,
)
from antipode_spectrum.symbolic import (
    KEY_RADIX_LIMIT,
    FactoredContext,
    FactoredValue,
    exponent_keys,
)
from support import (
    close_to,
    complex_at,
    fibonacci_fusion,
    global_dimension,
    matched_builtins,
    matched_checks,
    pivotal_twist_invariance,
    reduced,
    stacked_eigenspace,
    with_dims,
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

    def test_int_operands_are_not_lifted(self, monkeypatch):
        """block[j][j] -= d and the int sums of the elimination add an int
        to a CycNum without lifting it: Taft n=9 lifts only its nine dims
        into the field, and its basis is unchanged."""
        f, mod, _ = taft_family(9)
        want = dimension_eigenspace(f, mod)
        calls = []
        lift_rational = CycField.from_rational
        monkeypatch.setattr(CycField, "from_rational",
                            lambda field, q: calls.append(q) or lift_rational(field, q))
        assert dimension_eigenspace(f, mod) == want
        assert len(calls) == 9

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


def eigenspace_outcome(eigenspace, f, mod):
    """The multiplicity and the basis as (type, value) pairs, so equal values
    of unequal kinds differ; or the class and message of the exception."""
    try:
        basis, mult = eigenspace(f, mod)
    except Exception as e:
        return type(e), str(e)
    return mult, [[(type(x), x) for x in v] for v in basis]


def units(n):
    return [s for s in range(1, n) if math.gcd(s, n) == 1]


class TestJointKernel:
    """The kernels intersected one label at a time give the basis of the
    elimination of all stacked rows (support.stacked_eigenspace), entry for
    entry and type for type, or the same exception."""

    def check(self, f, mod):
        want = eigenspace_outcome(stacked_eigenspace, f, mod)
        assert eigenspace_outcome(dimension_eigenspace, f, mod) == want
        return want

    def test_taft_at_every_s(self):
        for n in range(2, 10):
            for s in units(n):
                f, mod, _ = taft_family(n, s)
                assert self.check(f, mod)[0] == 1

    def test_uqsl2(self):
        for ell in (3, 5, 7):
            for s in units(ell):
                assert self.check(_uqsl2_fusion(ell, s), _uqsl2_module(ell))[0] == 2

    def test_fibonacci_and_yang_lee(self):
        fib = fibonacci_fusion()
        mod, _ = regular_module(fib)
        phi = fib.dims["t"]
        for f in (fib, with_dims(fib, [phi * 0 + 1, 1 - phi])):
            assert self.check(f, mod)[0] == 1

    def test_s3(self):
        s3 = Group.symmetric3()
        sign = {"e": 1, "r": 1, "r2": 1, "s": -1, "sr": -1, "sr2": -1}
        outcomes = set()
        for kappa in ({g: 1 for g in s3.elements}, sign):
            for sub in (["e"], ["e", "s"], ["e", "sr2"], ["e", "r", "r2"], s3.elements):
                f, mod, _ = vecg_family(s3, kappa, sub)
                outcomes.add(self.check(f, mod)[0])
        assert outcomes == {1, EmptyEigenspace}

    def test_size_zero_and_zero_blocks(self):
        f, _, _ = taft_family(3)
        empty = ModuleActionData([], {lab: np.zeros((0, 0)) for lab in f.labels})
        assert self.check(f, empty)[0] is EmptyEigenspace
        # every block zero: the whole space, in the kind of the dims
        for one in (1, CycField(4).one(), 1.0):
            f = FusionData(["e", "a"], "e", {}, {}, dims={"e": one, "a": 2 * one})
            mod = ModuleActionData(["x", "y"], {"e": np.eye(2), "a": 2 * np.eye(2)})
            assert self.check(f, mod)[0] == 2

    def test_vec_cyclic_cosets(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cosets(draw):
            n = draw(st.integers(1, 12))
            h = draw(st.sampled_from([h for h in range(1, n + 1) if n % h == 0]))
            t = draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(["cyclotomic", "rational", "numeric"]))
            if kind == "rational" and 2 * t % n:
                kind = "cyclotomic"
            zeta = CycField(n).zeta(t)
            kappa = {str(a): (-1) ** (2 * t * a // n) if kind == "rational" else zeta ** a
                     for a in range(n)}
            f, mod, _ = vecg_family(Group.cyclic(n), kappa, [str(k * (n // h)) for k in range(h)])
            if kind == "numeric":  # the SVD of the stacked rows
                f = with_dims(f, [complex(d.complex_value()) for d in f.dims_vector()])
            return f, mod

        seen = set()

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(cosets())
        def check(case):
            seen.add(self.check(*case)[0])

        check()
        assert seen == {1, EmptyEigenspace}

    def test_permutation_actions(self):
        """Labels acting by permutations with dims mostly 1: the joint kernel
        of the eigenvalue-1 blocks has one vector per orbit, so later blocks
        cut a basis of several vectors (W != 0) and the result is reduced."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        field = CycField(3)

        def case(perms, dims):
            """Label r_i acts by the permutation perms[i], with dimension dims[i]."""
            labels = [f"r{i}" for i in range(len(perms))]
            action = {lab: np.eye(len(perm), dtype=np.int64)[list(perm)]
                      for lab, perm in zip(labels, perms)}
            return FusionData(labels, labels[0], {}, {}, dims=dict(zip(labels, dims))), \
                ModuleActionData([str(i) for i in range(len(perms[0]))], action)

        @st.composite
        def actions(draw):
            size, count = draw(st.integers(1, 6)), draw(st.integers(1, 4))
            kind = draw(st.sampled_from([Fraction, CycNum]))
            perms, dims = [], []
            for _ in range(count):
                perms.append(draw(st.permutations(range(size))))
                d = draw(st.sampled_from([1, 1, 1, -1, 2, 0]))
                dims.append(Fraction(d) if kind is Fraction else field.from_rational(d))
                if kind is CycNum and draw(st.integers(0, 5)) == 0:
                    dims[-1] = field.zeta(1)
            return case(perms, dims)

        seen = set()
        one = Fraction(1)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(actions())
        # each outcome at least once: no vector, then one, two and three
        # orbits, each later swap cutting the running basis (W != 0)
        @hypothesis.example(case([[0]], [Fraction(2)]))
        @hypothesis.example(case([[1, 0], [0, 1]], [one, one]))
        @hypothesis.example(case([[1, 0, 2, 3], [0, 1, 3, 2]], [one, one]))
        @hypothesis.example(case([[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]],
                                 [field.one()] * 3))
        def check(case):
            seen.add(self.check(*case)[0])

        check()
        assert {EmptyEigenspace, 1, 2, 3} <= seen


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

    def test_failing_candidate_names_its_first_row(self):
        """The exact check (integer rows, int64 or object) reports the first
        (label, row) where N_r m != d_r m, with the message of a check row
        by row in CycNum or Fraction arithmetic."""
        def first_failure(f, mod, m):
            for lab, d in zip(f.labels, f.dims_vector()):
                N = mod.matrix(lab)
                for j in range(mod.size):
                    if sum(int(N[j, i]) * m[i] for i in range(mod.size)) != d * m[j]:
                        return f"N_{lab} m != d_{lab} m at row {mod.labels[j]}"

        rng = random.Random(3)
        fam = uqsl2_family(5, lam=Fraction(2))
        g, h, _ = vecg_family(Group.cyclic(4), {str(a): 1 for a in range(4)}, ["0"])
        cases = [(fam.fusion, fam.module, fam.m), (g, h, [Fraction(1)] * 4)]
        failures = 0
        for f, mod, m in cases:
            for scale in (1, Fraction(2**70, 3), Fraction(1, 7**30)):
                good = [x * scale for x in m]
                spectrum._verify_eigenvector(f, mod, good, 1e-9)
                for _ in range(6):
                    bad = list(good)
                    for i in rng.sample(range(mod.size), rng.randint(1, 2)):
                        bad[i] = bad[i] * rng.choice([2, -1, Fraction(3, 5)]) + rng.choice([0, 1])
                    expect = first_failure(f, mod, bad)
                    if expect is None:
                        continue
                    failures += 1
                    with pytest.raises(NotInEigenspace) as exc:
                        spectrum._verify_eigenvector(f, mod, bad, 1e-9)
                    assert str(exc.value) == expect
        assert failures > 20

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
        with pytest.raises(JDependence, match="data is not matched"):
            m_bar(fam.fusion, fam.module, fam.m)

    def test_factored_multiple_of_a_matched_m(self):
        """m_bar of c m, c a factored value depending on the torus
        parameters, is m_bar(m) / c on every matched example, and on data
        whose Q_M = m mbar^T has a zero column, where the entry is the zero
        FactoredValue."""
        f = FusionData(["e", "a"], "e", {"e": "e", "a": "a"}, {}, dims={"e": 1, "a": -1})
        mod = ModuleActionData(["x", "y"], {"e": np.eye(2, dtype=np.int64),
                                            "a": np.array([[1, 1], [0, 0]])})
        cases = [(ex.name, ex.fusion, ex.module, ex.m) for ex in matched_builtins() if ex.q_suite]
        cases.append(("zero column", f, mod, [-1, 1]))
        for name, f, mod, m in cases:
            fields = {x.field.order for x in m if hasattr(x, "field")}
            ctx = FactoredContext(fields.pop() if fields else 3, 2)
            c = FactoredValue(ctx, ctx.field.from_rational(3), (1, -2)) \
                * FactoredValue.atom(ctx, (1, 1), 1, 2) / FactoredValue.atom(ctx, (0, 1), 2)
            _, lifted = lift(m + [c])
            mb = m_bar(f, mod, [c * x for x in lifted[:-1]])
            _, expect = lift(m_bar(f, mod, m) + [c])
            assert mb == [x / c for x in expect[:-1]], name
            assert all(type(x) is FactoredValue for x in mb)
            assert [not x for x in mb] == [name == "zero column"] + [False] * (len(m) - 1), name


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

    def test_zero_parts_are_unsigned(self):
        """A zero part of a cluster's representative is +0.0, as in
        canonical_key, whichever sign the member it comes from has: -4j as
        (-1+0j)(0+1j) is (-0.0, -4.0), and -1e-13 rounds to -0.0."""
        for values in ([complex(-0.0, -4), complex(0.0, -4)],
                       [complex(0.0, -4), complex(-0.0, -4)],
                       [complex(-1e-13, 2), complex(3, -1e-13)]):
            spec = spectrum._sweep_numeric(np.array(values), np.ones(2, dtype=np.int64), 1e-9)
            parts = np.concatenate([spec.values.real, spec.values.imag])
            assert not np.signbit(parts[parts == 0]).any(), values

    def test_non_finite_values_are_refused(self):
        # a nan is not within tol of 1+1j and must not join its cluster
        for bad in (complex("nan+nanj"), complex(1e308 * 10, 1), complex(1, -1e308 * 10)):
            values = np.array([1 + 1j, bad])
            with pytest.raises(NumericOverflow, match="overflow"):
                spectrum._sweep_numeric(values, np.array([1, 2], dtype=np.int64), 1e-9)

    def test_non_finite_products_are_refused(self):
        # each NaN product is a pair class of its own, whose quotients the
        # sweep refuses; an infinite one is one class, refused the same way
        for bad in (complex("nan+nanj"), complex(1e308 * 10, 1)):
            with pytest.raises(NumericOverflow, match="overflow"):
                pair_class_spectrum([1 + 1j, bad, bad], 1)

    def test_weight_matrix_and_uniform_weight_agree(self):
        F = CycField(5)
        values = [F.zeta(t) for t in range(5)] + [F.zeta(2)]
        uniform = pair_class_spectrum(values, 3)
        full = pair_class_spectrum(values, np.full((6, 6, 6, 6), 3))
        assert uniform.entries == full.entries
        assert uniform.total_degree == 3 * 6**4
        # the 36 exponent sums t_a + t_b mod 5 fall 7, 7, 7, 7, 8 times on
        # 0..4, so 7^2 * 4 + 8^2 = 260 quadruples give the eigenvalue 1
        assert uniform.multiset()[canonical_key(F.one())] == 3 * 260

    def test_zero_weights_are_skipped(self):
        F = CycField(3)
        weights = np.zeros((2, 2, 2, 2), dtype=np.int64)
        weights[0, 0, 1, 1] = 2
        spec = pair_class_spectrum([F.one(), F.zeta(1)], weights)
        assert spec.entries == [(F.zeta(1), 2)]  # 1 / z^2 = z

    def test_kernel_lifts_its_values(self):
        """Mixed kinds give what their lift gives, on every unkeyed route;
        all-zero weights give the empty spectrum."""
        F = CycField(3)
        zero = np.zeros((2,) * 4, dtype=np.int64)
        for values, backend in (([1, F.zeta(1)], "cyclotomic"), ([1, 2], "cyclotomic"),
                                ([1, 0.5 + 1j], "numeric")):
            lifted_backend, lifted = lift(values)
            spec, expect = pair_class_spectrum(values, 1), pair_class_spectrum(lifted, 1)
            assert spec.backend == expect.backend == lifted_backend == backend
            assert spec.entries == expect.entries and spec.total_degree == 16
            empty = pair_class_spectrum(values, zero)
            assert (empty.backend, empty.entries, empty.total_degree) == (backend, [], 0)
        rational = pair_class_spectrum([1, 2], 1)
        assert all(type(v) is Fraction for v, _ in rational.entries)
        assert rational.multiset() == {canonical_key(Fraction(2) ** e): m
                                       for e, m in zip(range(-2, 3), (1, 4, 6, 4, 1))}

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
                got = pair_class_spectrum(vals, weights)
                assert got.total_degree == int(w.sum())
                if backend == "numeric":
                    assert close_to(got, expect, 1e-9)
                else:
                    assert got.entries == expect.entries

        check()

    def test_matched_builtins_equal_brute_force(self):
        for ex in matched_builtins():
            spec = char_poly_s2(ex.fusion, ex.module, ex.m)
            assert spec == brute_force_spectrum(ex.fusion, ex.module, ex.m), ex.name


def quadruple_loop(values, w):
    """merge_pairs over every quadruple of nonzero weight: the reference."""
    return SpectrumFactorization.merge_pairs(
        [(values[a] * values[b] / (values[c] * values[d]), int(w[a, b, c, d]))
         for a, b, c, d in np.ndindex(*w.shape) if w[a, b, c, d]], "symbolic")


class TestCoefficientRows:
    """Exact spectra from the kernel are coefficient rows: the same entries,
    order and multiplicities as merge_pairs over the same quotients."""

    def test_row_route_equals_merge_pairs(self):
        """Orders 1-12, rational-only lists, negative coefficients, values
        past 2^62 (object rows), scalar, tensor and all-zero weights."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=5)

        @st.composite
        def cases(draw):
            k = draw(st.integers(min_value=1, max_value=3))
            order = draw(st.sampled_from([None, 1, 2, 3, 4, 5, 7, 8, 9, 12]))
            scale = st.sampled_from([1, 1, Fraction(2**63 + 1, 3), Fraction(-1, 5**30)])
            if order is None:  # Fractions: one coefficient each
                value = coefficient.filter(bool)
            else:
                field = CycField(order)
                value = st.lists(coefficient, min_size=field.degree, max_size=field.degree)
                value = value.map(functools.partial(reduced, field)).filter(bool)
            values = draw(st.lists(st.builds(lambda v, c: v * c, value, scale),
                                   min_size=k, max_size=k))
            kind = draw(st.sampled_from(["scalar", "tensor", "zero"]))
            if kind == "scalar":
                return values, draw(st.integers(min_value=1, max_value=3))
            flat = draw(st.lists(st.integers(0, 2 if kind == "tensor" else 0),
                                 min_size=k**4, max_size=k**4))
            return values, np.array(flat, dtype=np.int64).reshape((k,) * 4)

        seen = set()

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(cases())
        @hypothesis.example(([Fraction(-3, 2), Fraction(5)], 2))
        @hypothesis.example(([Fraction(2**70, 3), Fraction(-5, 7**30)], 1))
        @hypothesis.example(([CycField(7).zeta(3) * 2**65, CycField(7).zeta(1) - 3], 1))
        def check(case):
            values, weights = case
            w = np.broadcast_to(weights, (len(values),) * 4)
            expect = SpectrumFactorization.merge_pairs(
                [(values[a] * values[b] / (values[c] * values[d]), int(w[a, b, c, d]))
                 for a, b, c, d in np.ndindex(*w.shape) if w[a, b, c, d]], "cyclotomic")
            got = pair_class_spectrum(values, weights)
            tops, bottoms = got.coeffs
            assert got._entries is None and got.backend == "cyclotomic"
            assert got.entries == expect.entries
            assert [type(v) for v, _ in got.entries] == [type(v) for v, _ in expect.entries]
            assert (len(got), got.total_degree) == (len(expect), int(w.sum()))
            seen.add((got.field is None, tops.dtype == object, len(got) > 0))

        check()
        assert {(False, True, True), (True, True, True), (False, False, True),
                (True, False, True), (False, False, False)} <= seen

    def test_coefficients_are_the_sort_keys(self):
        F = CycField(12)
        values = [reduced(F, [Fraction(1, 2), -3, 0, Fraction(5, 6)]), F.zeta(5), F.from_rational(4)]
        spec = pair_class_spectrum(values, 1)
        tops, bottoms = spec.coeffs
        assert spec.field is F and tops.dtype == bottoms.dtype == np.int64
        assert [tuple(zip(p, q)) for p, q in zip(tops.tolist(), bottoms.tolist())] == \
            [v.sort_key() for v, _ in spec.entries]


class TestExponentKeys:
    """The integer route of the kernel: factored values merged by their
    exponent keys, and specializations merged by the keys of their factored
    form, against the quadruple loop."""

    CTX = FactoredContext(5, 2)

    def check(self, values, weights, k, point=(0.8 + 0.3j, 1.2 - 0.5j)):
        w = np.broadcast_to(weights, (k,) * 4)
        expect = quadruple_loop(values, w)
        got = pair_class_spectrum(values, weights)
        assert got.entries == expect.entries
        assert got.total_degree == int(w.sum())
        numeric = pair_class_spectrum([complex_at(v, point) for v in values],
                                      weights, factored=values)
        evaluated = SpectrumFactorization(
            [(complex_at(v, point), m) for v, m in expect.entries], "numeric")
        assert close_to(numeric, evaluated, 1e-7)

    def test_keyed_kernel_equals_quadruple_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ctx, F = self.CTX, self.CTX.field
        atom = st.builds(lambda c, a, p: FactoredValue.atom(ctx, c, a, p),
                         st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]),
                         st.integers(0, 4), st.integers(-2, 2))
        constant = st.sampled_from([F.one(), F.from_rational(2), F.from_rational(Fraction(1, 4)),
                                    -F.one(), F.zeta(1), F.one() + F.zeta(2)])
        monomial = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        value = st.builds(lambda c, m, atoms: math.prod(atoms, start=FactoredValue(ctx, c, m)),
                          constant, monomial, st.lists(atom, max_size=3))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            k = data.draw(st.integers(min_value=1, max_value=4))
            values = data.draw(st.lists(value, min_size=k, max_size=k))
            if data.draw(st.booleans()):
                weights = data.draw(st.integers(min_value=1, max_value=3))
            else:
                flat = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                          min_size=k**4, max_size=k**4))
                weights = np.array(flat, dtype=np.int64).reshape((k,) * 4)
            self.check(values, weights, k)

        check()

    def test_large_quotient_compares_within_a_relative_bound(self):
        """An eigenvalue near 2.7e8 at the test's point, where the kernel's
        float products and complex_value differ by 1.3e-7, two ulps."""
        ctx, F = self.CTX, self.CTX.field
        atom = functools.partial(FactoredValue.atom, ctx)
        one = FactoredValue(ctx, F.one())
        values = [one, one,
                  FactoredValue(ctx, F.one(), (0, 1)) * atom((1, 0), 0, -1) * atom((1, 0), 1),
                  FactoredValue(ctx, F.one(), (0, -1)) * atom((1, 0), 0, 2) * atom((1, 0), 1, -2)
                  * atom((1, 1), 0, 2)]
        self.check(values, 1, 4)

    def test_constants_with_unequal_keys_merge(self):
        # 2 * 2 / (4 * 1) = 1 = 1 * 1 / (1 * 1): unequal keys, one eigenvalue
        F = self.CTX.field
        values = [FactoredValue(self.CTX, F.from_rational(c)) for c in (1, 2, 4)]
        spec = pair_class_spectrum(values, 1)
        assert spec.entries == quadruple_loop(values, np.ones((3,) * 4, dtype=np.int64)).entries
        assert dict((str(v), m) for v, m in spec.entries)["(1)"] == 19
        assert exponent_keys(values) is None

    def test_zero_values_take_no_keys(self):
        """Zeros share one constant, 0, but have no quotient: exponent_keys
        refuses them, and the kernel raises as it does for CycNum zeros."""
        ctx = self.CTX
        zero = FactoredValue(ctx, ctx.field.zero())
        atom = FactoredValue.atom(ctx, (1, 0), 2)
        for values in ([zero], [zero, zero], [zero, atom], [atom, zero * atom]):
            assert exponent_keys(values) is None
            with pytest.raises(DivisionByZero):
                pair_class_spectrum(values, 1)
        with pytest.raises(DivisionByZero):
            pair_class_spectrum([ctx.field.zero()] * 2, 1)
        assert exponent_keys([atom, atom * atom]) is not None

    def test_more_columns_than_one_radix(self):
        """Forty-two atoms with powers 0 and 1 need digits of width 5 each,
        more than one int64 word holds: the keys take several words, each
        below KEY_RADIX_LIMIT, and the kernel classes and merges them as
        rows, word by word."""
        ctx = FactoredContext(7, 2)
        atoms = [FactoredValue.atom(ctx, c, a) for c in [(1, 0), (0, 1), (1, 1), (1, 2),
                                                         (2, 1), (1, -1)] for a in range(7)]
        rng = random.Random(5)
        values = [math.prod(rng.sample(atoms, 8), start=FactoredValue.one(ctx)) for _ in range(7)]
        self.check(values, 1, 7, point=(0.9 - 0.2j, 1.1 + 0.4j))
        keys = exponent_keys(values)
        assert keys.keys.shape[1] > 1
        assert ((keys.keys >= 0) & (keys.keys < KEY_RADIX_LIMIT)).all()
        spans = keys.exponents.max(axis=0) - keys.exponents.min(axis=0)
        assert math.prod(4 * s + 1 for s in spans.tolist()) > 2**63

    def test_fused_words_never_wrap(self):
        """Words whose radices together pass int64 are classed and merged
        as rows, word by word, so nothing is fused and nothing can wrap:
        ids are equal exactly for equal rows, first is each distinct row's
        first occurrence, in sorted order, and the totals are exact."""
        rng = np.random.default_rng(11)
        radices = [2**62, 3, 2**61, 2**62]
        pool = np.stack([rng.integers(0, r, 6) for r in radices], axis=1)
        words = pool[rng.integers(0, 6, 200)]
        words[::7, 1] = rng.integers(0, 3, len(words[::7]))
        for rows in (words, words - words[rng.permutation(len(words))]):
            tuples = [tuple(w) for w in rows.tolist()]
            distinct = sorted(set(tuples))
            first, ids = spectrum.distinct_rows(rows)
            assert ((ids[:, None] == ids[None, :])
                    == (rows[:, None] == rows[None, :]).all(axis=2)).all()
            assert first.tolist() == [tuples.index(t) for t in distinct]
            assert (ids[first] == np.arange(len(distinct))).all()
            mults = rng.integers(1, 2**55, len(rows))
            expect = dict.fromkeys(distinct, 0)
            for t, m in zip(tuples, mults.tolist()):
                expect[t] += m
            merged, totals = spectrum.merge_rows(rows, mults)
            assert merged.tolist() == first.tolist()
            assert totals.tolist() == list(expect.values())

    def test_too_wide_a_digit_takes_the_canonical_route(self):
        big = FactoredValue.atom(self.CTX, (1, 0), 1, 2**61)
        values = [big, FactoredValue.atom(self.CTX, (1, 0), 1, -2**61), big * big]
        assert exponent_keys(values) is None
        spec = pair_class_spectrum(values, 1)
        assert spec.entries == quadruple_loop(values, np.ones((3,) * 4, dtype=np.int64)).entries


def lexsort_sweep(values, mults, tol):
    """The numeric sweep as it was written with np.lexsort: the reference."""
    by_real = np.argsort(values.real)
    chain = np.empty(len(values), dtype=np.intp)
    chain[by_real] = np.cumsum(np.diff(values.real[by_real], prepend=-np.inf) > tol)
    order = np.lexsort((values.imag, chain))
    values, mults, chain = values[order], mults[order], chain[order]
    new = (np.diff(chain, prepend=-1) != 0) | (np.diff(values.imag, prepend=-np.inf) > tol)
    first = values[new]
    reps = (np.round(first.real, 9) + 0.0) + 1j * (np.round(first.imag, 9) + 0.0)  # +0.0 zeros
    totals = np.add.reduceat(mults, np.flatnonzero(new))
    order = np.lexsort((reps.imag, reps.real))
    return reps[order], totals[order]


class TestSweepOrder:
    """The sweep sorts by stable complex argsort; np.lexsort is the reference."""

    POOL = np.array([-np.inf, -2.5, -1.0, -0.0, 0.0, 5e-324, 1.0, 3.0, np.inf])

    def test_lex_order_equals_lexsort(self):
        rng = np.random.default_rng(7)
        for case in range(2000):
            n = int(rng.integers(0, 30))
            primary = rng.choice(self.POOL, n)
            if case % 2:
                primary = rng.integers(0, 4, n)  # the sweep's int chain ids
            secondary = rng.choice(self.POOL, n)
            got = spectrum._lex_order(primary, secondary)
            assert got.tolist() == np.lexsort((secondary, primary)).tolist(), case

    def test_sweep_equals_lexsort_sweep(self):
        rng = np.random.default_rng(3)
        parts = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
        for case in range(300):
            n = int(rng.integers(1, 40))
            values = rng.choice(parts, n) + 1j * rng.choice(parts, n)
            values = values + rng.choice([0.0, 4e-10, -4e-10, 2e-9], n)  # ties and chains
            values.imag = np.where(rng.random(n) < 0.3, -0.0, values.imag)
            mults = rng.integers(1, 5, n)
            spec = spectrum._sweep_numeric(values, mults, 1e-9)
            reps, totals = lexsort_sweep(values, mults, 1e-9)
            assert spec.values.tobytes() == reps.tobytes(), case
            assert spec.mults.tolist() == totals.tolist(), case

    def test_ties_in_one_chain_keep_index_order(self):
        """Values of one chain share their imaginary parts exactly while their
        real parts (0.6 tol apart) run against index order.  A cluster is
        listed as its first member, so the least index must come first in
        each tie, as np.lexsort leaves ties; the real-sorted order would put
        the least real part first."""
        rng = np.random.default_rng(11)
        for case in range(300):
            n = int(rng.integers(2, 60))
            values = np.empty(n, dtype=complex)
            values.real = rng.permutation(n) * 6e-10 + rng.choice([-3.0, 0.0, 3.0])
            values.imag = rng.choice([-0.0, 0.0, 5e-10, 1.0], n)
            mults = rng.integers(1, 5, n)
            spec = spectrum._sweep_numeric(values, mults, 1e-9)
            reps, totals = lexsort_sweep(values, mults, 1e-9)
            assert spec.values.tobytes() == reps.tobytes(), case
            assert spec.mults.tolist() == totals.tolist(), case


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
                spectrum._verify_eigenvector(with_dims(ex.fusion, sdims), ex.module, sm, 1e-9)
                expect = SpectrumFactorization.merge_pairs(
                    [(v.galois(k), mult) for v, mult in spec.entries], "cyclotomic")
                assert char_poly_s2(ex.fusion, ex.module, sm).entries == expect.entries, \
                    (ex.name, k)
            checked += 1
        assert checked == 5  # taft-2, taft-3, taft-5, vecg-z3-omega, fibonacci

    def test_random_matched_cosets(self):
        """Vec_{Z/n} on Z/n / <idx> with kappa(a) = zeta_n^(t a), matched since
        t idx = 0 mod n: sigma_k(kappa) gives the sigma_k-image spectrum."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cosets(draw):
            n = draw(st.integers(min_value=2, max_value=8))
            idx = draw(st.integers(min_value=0, max_value=n - 1))
            t = draw(st.sampled_from([t for t in range(n) if t * idx % n == 0]))
            return n, idx, t

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(cosets())
        def check(case):
            n, idx, t = case
            F, G = CycField(n), Group.cyclic(n)
            H = [str(h) for h in sorted({j * idx % n for j in range(n)})]
            kappa = {str(a): F.zeta(t * a) for a in range(n)}
            spec = char_poly_s2(*vecg_family(G, kappa, H))
            for k in (k for k in range(1, n) if math.gcd(k, n) == 1):
                image = vecg_family(G, {g: x.galois(k) for g, x in kappa.items()}, H)
                expect = SpectrumFactorization.merge_pairs(
                    [(v.galois(k), mult) for v, mult in spec.entries], "cyclotomic")
                assert char_poly_s2(*image).entries == expect.entries, (case, k)

        check()

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

    def test_exact_uqg_rank_one_is_the_same_at_every_generator(self):
        for ell in (5, 7):
            spectra = [uqg_family("A1", ell, s, Fraction(2, 3))
                       for s in range(1, ell) if math.gcd(s, ell) == 1]
            assert spectra[0].total_degree == ell**5
            assert all(spec.entries == spectra[0].entries for spec in spectra[1:]), ell

    def test_exact_uqg_rank_two_is_the_same_at_two_generators(self):
        lam = (Fraction(2, 3), Fraction(5, 7))
        # the two calls allocate ~1.6M tracked objects and set off 12 full
        # collections; with the collector off they take 2.5 s, not 3.7 s
        # (2-core x86-64, plain process)
        gc.disable()
        try:
            one, two = (uqg_family("A2", 5, s, lam) for s in (1, 2))
        finally:
            gc.enable()
        assert (len(one), one.total_degree) == (72541, 5**12)
        assert one.entries == two.entries


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

    def test_arrays_are_decided_without_entries(self):
        """A spectrum held as arrays or coefficient rows is decided without
        filling entries, and as the same entries held as a list decide it."""
        n = 20000
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        off = roots.copy()
        off[7] = 2
        for values, want in ((roots, (n, 3)), (off, None)):
            spec = SpectrumFactorization.from_arrays(values, np.full(n, 3, dtype=np.int64))
            assert spec.uniform_root_power() == want
            assert spec._entries is None
            listed = SpectrumFactorization(zip(values.tolist(), [3] * n), "numeric")
            assert listed.uniform_root_power() == want

        def rows(values, mults):
            field = values[0].field if type(values[0]) is CycNum else None
            num = np.array([v.num if field else (v.numerator,) for v in values], dtype=np.int64)
            den = np.array([v.den if field else v.denominator for v in values], dtype=np.int64)
            return SpectrumFactorization.from_coefficients(
                field, *coefficient_pairs(num, den), np.array(mults, dtype=np.int64))

        F = CycField(5)
        fifth = [F.zeta(t) for t in range(5)]
        near = fifth[:4] + [fifth[4] + Fraction(1, 10**7)]  # passes the float screen
        cases = [(fifth, [2] * 5, (5, 2)), (near, [2] * 5, None), (fifth, [2] * 4 + [1], None),
                 ([Fraction(1), Fraction(-1)], [4, 4], (2, 4)),
                 ([Fraction(1), Fraction(1, 2)], [4, 4], None)]
        for values, mults, want in cases:
            spec = rows(values, mults)
            assert spec.uniform_root_power() == want
            assert spec._entries is None
            assert SpectrumFactorization(zip(values, mults), "cyclotomic").uniform_root_power() == want


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
        assert close_to(arrays, listed, 1e-9) and close_to(listed, arrays, 1e-9)
        assert str(arrays) == str(listed)
        other, _ = self.pair(values, [3, 1, 7, 3])
        assert other != listed and not close_to(other, listed, 1e-9)

    def test_empty_and_roots_of_unity(self):
        arrays, listed = self.pair([], [])
        assert (len(arrays), arrays.total_degree, arrays.entries) == (0, 0, [])
        assert arrays == listed and str(arrays) == str(listed) == ""
        roots = [complex(math.cos(2 * math.pi * t / 3), math.sin(2 * math.pi * t / 3))
                 for t in range(3)]
        arrays, listed = self.pair(roots, [4, 4, 4])
        assert arrays.uniform_root_power() == listed.uniform_root_power() == (3, 4)
        assert str(arrays) == str(listed) == "(z^3 - 1)^4"

    def test_total_degree_beyond_int64(self):
        """The int64 total degree is exact where the sum leaves int64; so
        many multiplicities that a half of the sum could wrap are refused."""
        mults = [2**63 - 1, 2**62, 1, 2**62]
        arrays, listed = self.pair([0j, 1j, 2j, 3j], mults)
        assert arrays.total_degree == listed.total_degree == sum(mults)
        assert type(arrays.total_degree) is int
        many = np.broadcast_to(np.int64(1), (2**31,))  # no memory behind it
        with pytest.raises(NumericOverflow, match="total degree"):
            SpectrumFactorization.from_arrays(np.broadcast_to(0j, many.shape), many)

    def test_sweep_returns_the_arrays(self):
        values = np.array([0.5, 0.5 + 3e-9, 0.5 + 3e-9j, 0.5 + 1e-10j])
        spec = spectrum._sweep_numeric(values, np.ones(4, dtype=np.int64), 1e-9)
        assert spec.values.dtype == complex and spec.mults.dtype == np.int64
        assert spec.values.tolist() == [v for v, _ in spec.entries]
        assert spec.mults.tolist() == [2, 1, 1] and len(spec) == 3


class TestRowBackedSpectrum:
    """A symbolic spectrum held as exponent rows builds its entries on first
    use, and they equal those that merge_pairs builds eagerly."""

    def test_lazy_entries_equal_eager_ones(self):
        f, mod, m = uqsl2_family(5)
        rows = char_poly_s2(f, mod, m)
        eager = quadruple_loop(m, block_multiplicities(f, mod).transpose(1, 3, 0, 2))
        assert rows.rows is not None and eager.rows is None
        assert rows.rows.shape == (len(eager), 1 + len(rows.atoms))
        assert (len(rows), rows.total_degree) == (len(eager), eager.total_degree) == (131, 5**5)
        assert rows._entries is None
        assert rows.entries == eager.entries
        assert rows.entries is rows.entries
        assert all(type(v) is FactoredValue and type(c) is int for v, c in rows.entries)
        assert rows == eager and str(rows) == str(eager)
        assert rows.multiset() == eager.multiset()

    def test_no_atoms_and_no_entries(self):
        ctx = FactoredContext(3, 1)
        values = [FactoredValue(ctx, ctx.field.from_rational(2), (e,)) for e in (0, 1)]
        spec = pair_class_spectrum(values, 1)
        assert spec.rows.shape == (5, 1) and spec.atoms == []
        assert spec.entries == quadruple_loop(values, np.ones((2,) * 4, dtype=np.int64)).entries
        empty = pair_class_spectrum(values, np.zeros((2,) * 4, dtype=np.int64))
        assert (len(empty), empty.total_degree, empty.entries) == (0, 0, [])


class TestCloseTo:
    def spec(self, entries):
        return SpectrumFactorization(entries, "numeric")

    def test_matches_nearest_within_tol(self):
        # conjugate pairs whose real parts differ in the last bits: a pairing
        # by sorted real part alone would cross them over
        a = self.spec([(1 + 2e-12 + 1j, 2), (1 - 1j, 3), (0.5, 1)])
        b = self.spec([(0.5 + 1e-11, 1), (1 + 2e-12 - 1j, 3), (1 + 1j, 2)])
        assert close_to(a, b, 1e-9) and close_to(b, a, 1e-9)

    def test_rejects(self):
        a = self.spec([(1 + 1j, 2), (1 - 1j, 3)])
        assert not close_to(a, self.spec([(1 + 1j, 3), (1 - 1j, 2)]), 1e-9)
        assert not close_to(a, self.spec([(1 + 1j, 2), (1 - 1j + 1e-8, 3)]), 1e-9)
        assert not close_to(a, self.spec([(1 + 1j, 2), (1 - 1j, 2), (2, 1)]), 1e-9)
        assert not close_to(a, self.spec([(1 + 1j, 5)]), 1e-9)
        assert close_to(a, self.spec([(1 + 1j, 2), (1 - 1j + 1e-8, 3)]), 1e-7)


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
            assert close_to(numeric, exact, 1e-9)


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
