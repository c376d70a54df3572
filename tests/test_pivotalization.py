import numpy as np
import pytest

from antipode_spectrum.errors import NonRealSigns, SignSplitMismatch
from antipode_spectrum.families import (
    Group,
    regular_module,
    taft_family,
    vecg_family,
)
from antipode_spectrum.pivotalization import (
    PivotalizationData,
    SignedEigenvalue,
    char_poly_pivotalized,
    from_matched_pivotal,
)
from antipode_spectrum.spectrum import char_poly_s2
from support import fibonacci_fusion, matched_builtins, signed_spectrum


class TestFromMatchedPivotal:
    def test_all_positive_dims_give_empty_minus(self):
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        piv = from_matched_pivotal(f, mod, m)
        assert all((piv.n_minus[r] == 0).all() for r in piv.ring_labels)

    def test_vec_z2_sign_table(self):
        # with d = (1,-1) and m = (1,-1) on the regular module the product
        # sign(d_r) sign(m_i) sign(m_j) is +1 on every supported entry, so
        # the minus part is empty and nu = (1, 1)
        f, mod, m = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        piv = from_matched_pivotal(f, mod, m)
        assert [x for x in piv.nu] == [1, 1]
        assert all((piv.n_minus[r] == 0).all() for r in piv.ring_labels)

    def test_non_real_trace_vector_rejected(self):
        f, mod, m = taft_family(3)  # m = (1, q, q^2) is not real
        with pytest.raises(NonRealSigns):
            from_matched_pivotal(f, mod, m)

    def test_sign_split_mismatch(self):
        f, mod, m = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        good = from_matched_pivotal(f, mod, m)
        broken = {r: good.n_plus[r].copy() for r in good.ring_labels}
        broken["1"][0][1] = 0
        with pytest.raises(SignSplitMismatch):
            PivotalizationData(mod.labels, good.nu, broken, good.n_minus, unsigned=mod)


class TestCharPolyPivotalized:
    def test_all_plus_reduction(self):
        # N- = 0 and nu = m^2 reproduce the matched spectrum of a positive m
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        piv = from_matched_pivotal(f, mod, m)
        signed = char_poly_pivotalized(piv)
        assert signed == signed_spectrum(char_poly_s2(f, mod, m))

    def test_consistency_across_matched_builtins(self):
        for ex in matched_builtins():
            if not ex.pivotal_suite:
                continue
            piv = from_matched_pivotal(ex.fusion, ex.module, ex.m)
            assert char_poly_pivotalized(piv) == signed_spectrum(
                char_poly_s2(ex.fusion, ex.module, ex.m)
            ), ex.name

    def test_degree_is_sum_of_squared_row_totals(self):
        for ex in matched_builtins():
            if not ex.pivotal_suite:
                continue
            piv = from_matched_pivotal(ex.fusion, ex.module, ex.m)
            spec = char_poly_pivotalized(piv)
            expect = sum(int(ex.module.matrix(r).sum()) ** 2 for r in ex.fusion.labels)
            assert spec.total_degree == expect

    def test_mixed_split_produces_signed_values(self):
        # a hand split with both signs inside one ring label
        f, mod, m = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        n_plus = {"0": np.eye(2, dtype=int), "1": np.array([[0, 1], [0, 0]])}
        n_minus = {"0": np.zeros((2, 2), dtype=int), "1": np.array([[0, 0], [1, 0]])}
        piv = PivotalizationData(mod.labels, [1, 1], n_plus, n_minus, unsigned=mod)
        spec = char_poly_pivotalized(piv)
        assert spec.total_degree == 8
        signs = {v.sign for v, _ in spec.entries}
        assert signs == {1, -1}

    def test_numeric_nu_matches_exact(self):
        from antipode_spectrum.scalar import numeric_value

        def signed_values(spec):
            return sorted((v.sign, numeric_value(v.squared).real, m) for v, m in spec.entries)

        for ex in matched_builtins():
            if not ex.pivotal_suite:
                continue
            piv = from_matched_pivotal(ex.fusion, ex.module, ex.m)
            approx = PivotalizationData(piv.module_labels, [numeric_value(x) for x in piv.nu],
                                        piv.n_plus, piv.n_minus)
            got, want = signed_values(char_poly_pivotalized(approx)), signed_values(
                char_poly_pivotalized(piv))
            assert len(got) == len(want), ex.name
            for (s, v, m), (t, w, n) in zip(got, want):
                assert (s, m) == (t, n) and abs(v - w) < 1e-9, ex.name

    def test_spectrum_symmetry_under_index_swap(self):
        # (lambda, n+), (-lambda, n-) multiset is inversion-closed per value
        from antipode_spectrum.scalar import canonical_key

        for ex in matched_builtins():
            if not ex.pivotal_suite:
                continue
            piv = from_matched_pivotal(ex.fusion, ex.module, ex.m)
            spec = char_poly_pivotalized(piv)
            mult = spec.multiset()
            for v, count in spec.entries:
                inv_sq = (
                    v.squared.inverse()
                    if hasattr(v.squared, "inverse")
                    else 1 / v.squared
                )
                assert mult[canonical_key(SignedEigenvalue(v.sign, inv_sq))] == count


class TestSignedEigenvalue:
    def test_equality_needs_both_fields(self):
        a = SignedEigenvalue(1, 4)
        b = SignedEigenvalue(-1, 4)
        c = SignedEigenvalue(1, 9)
        assert a != b and a != c
        assert a == SignedEigenvalue(1, 4)
