import itertools
from fractions import Fraction

import numpy as np
import pytest

from antipode_spectrum.cyclotomic import CycField
from antipode_spectrum.errors import MissingDims, ZeroGlobalDimension
from antipode_spectrum.families import (
    Group,
    regular_module,
    taft_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.grothendieck import (
    FusionData,
    q_matrix,
    verify_fusion,
)
from antipode_spectrum.scalar import numeric_value
from support import fibonacci_fusion, global_dimension

PHI = (1 + 5**0.5) / 2


class TestVerifyFusion:
    def test_fibonacci_strict(self):
        f = fibonacci_fusion()
        assert verify_fusion(f, strict_duality=True).ok
        # hand-check of the eight associativity identities (tau, tau) x ...
        t = f.tensor()
        for q, r, s, u in itertools.product(range(2), repeat=4):
            lhs = sum(t[q, r, w] * t[w, s, u] for w in range(2))
            rhs = sum(t[r, s, w] * t[q, w, u] for w in range(2))
            assert lhs == rhs

    def test_group_ring(self):
        f, _, _ = taft_family(4)
        assert verify_fusion(f, strict_duality=True).ok

    def test_uqsl2_ring_not_strict(self):
        fam = uqsl2_family(5)
        assert verify_fusion(fam.fusion).ok
        # strict duality fails: c_{X2 X2}^{X1} = 1 = delta, but the boundary
        # object breaks c^unit = delta on (X_ell, X_ell)
        rep = verify_fusion(fam.fusion, strict_duality=True)
        assert not rep.ok

    def test_corrupted_associativity_reports_witness(self):
        # any unital commutative 2-label table is Z[t]/(t^2 - bt - a), hence
        # associative; break associativity with an asymmetric corruption
        f = fibonacci_fusion()
        bad = dict(f.structure)
        bad[("t", "1", "t")] = 2
        rep = verify_fusion(
            FusionData(f.labels, f.unit, f.dual, bad, dims=f.dims)
        )
        assert not rep.ok
        assert any(v.check == "associativity" for v in rep.violations)

    def test_strict_duality_with_a_label_without_dual(self):
        """A label without a dual fails dual-involution; strict duality
        checks the other labels instead of raising KeyError."""
        f, _, _ = taft_family(3)
        dual = dict(f.dual)
        del dual["2"]
        rep = verify_fusion(FusionData(f.labels, f.unit, dual, f.structure), strict_duality=True)
        assert [(v.check, v.witness) for v in rep.violations] == [
            ("dual-involution", ("1",)), ("dual-involution", ("2",))]
        assert "strict-duality" in rep.checks

    def test_broken_unit_reports_witness(self):
        f = fibonacci_fusion()
        bad = dict(f.structure)
        bad[("1", "t", "1")] = 1
        rep = verify_fusion(FusionData(f.labels, f.unit, f.dual, bad))
        assert any(v.check in ("unit", "associativity") for v in rep.violations)


class TestGlobalDimension:
    def test_vec_z2_signed(self):
        f, _, _ = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        assert global_dimension(f) == 2

    def test_fibonacci(self):
        F = CycField(5)
        phi = -F.zeta(2) - F.zeta(3)
        assert global_dimension(fibonacci_fusion()) == phi + 2

    def test_taft_telescopes(self):
        for n in (2, 3, 5):
            f, _, _ = taft_family(n)
            assert global_dimension(f) == n

    def test_missing_dims(self):
        f = fibonacci_fusion()
        with pytest.raises(MissingDims):
            global_dimension(FusionData(f.labels, f.unit, f.dual, f.structure))

    def test_zero_detected(self):
        # dims 1, -1 on Z/2 with dual(1) = 1 gives 1 + (-1)(-1) = 2, fine;
        # force zero with a fake dual-free setup: d = (1, i) on Z/4 where
        # sum d_a d_{-a} = 1 + i(-i) + ... actually use explicit zero data
        F = CycField(4)
        f = FusionData(
            ["0", "1"],
            "0",
            {"0": "0", "1": "1"},
            {("0", "0", "0"): 1, ("0", "1", "1"): 1, ("1", "0", "1"): 1, ("1", "1", "0"): 1},
            dims={"0": F.one(), "1": F.zeta(1)},  # 1 + i*i = 0
        )
        with pytest.raises(ZeroGlobalDimension):
            global_dimension(f)


class TestQMatrix:
    def test_trivial_category(self):
        f = FusionData(["1"], "1", {"1": "1"}, {("1", "1", "1"): 1}, dims={"1": Fraction(1)})
        q = q_matrix(f, [np.eye(1, dtype=int)])
        assert q[0][0] == global_dimension(f) == 1

    def test_vec_z2_signed_regular(self):
        f, mod, _ = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        q = q_matrix(f, mod.matrices(f))
        assert q[0][0] == 1 and q[1][1] == 1
        assert q[0][1] == -1 and q[1][0] == -1  # I - P

    @pytest.mark.parametrize("numeric", [False, True], ids=["exact", "numeric"])
    def test_equals_the_sum_over_labels(self, numeric):
        """Q_M summed by distinct dual dim equals the sum over labels of
        dim(X_r*) N_r, exactly for exact dims; for complex dims, whose sums
        round in another order, within 1e-12 of it."""
        s3 = Group.symmetric3()
        fib = fibonacci_fusion()
        sign = {g: (-1 if g in ("s", "sr", "sr2") else 1) for g in s3.elements}
        cases = [
            (fib, regular_module(fib)[0]),
            taft_family(5)[:2],
            vecg_family(s3, sign, ["e", "r", "r2"])[:2],
            vecg_family(Group.cyclic(6), {str(a): 1 for a in range(6)}, ["0", "3"])[:2],
            (uqsl2_family(5).fusion, uqsl2_family(5).module),
        ]
        for f, mod in cases:
            if numeric:
                f = FusionData(f.labels, f.unit, f.dual, f.structure, f.cartan,
                               {x: numeric_value(d) for x, d in f.dims.items()})
            mats = mod.matrices(f)
            got = q_matrix(f, mats)
            for i, j in itertools.product(range(mod.size), repeat=2):
                want = sum((f.dims[f.dual[x]] * int(m[i, j]) for x, m in zip(f.labels, mats)),
                           start=0 * f.dims[f.unit])
                if numeric:
                    assert abs(got[i][j] - want) <= 1e-12 * (1 + abs(want))
                else:
                    assert got[i][j] == want

    def test_fibonacci(self):
        f = fibonacci_fusion()
        mod, _ = regular_module(f)
        phi = f.dims["t"]
        q = q_matrix(f, mod.matrices(f))
        nt = mod.matrix("t")
        for i in range(2):
            for j in range(2):
                expect = (1 if i == j else 0) + phi * int(nt[i, j])
                assert q[i][j] == expect


def fp_dimensions(f):
    """FPdim(X_r) as the spectral radius of the nonnegative matrix L_r."""
    return np.array([np.abs(np.linalg.eigvals(f.left_mult_matrix(x).astype(float))).max()
                     for x in f.labels])


class TestFpDimensions:
    def test_group_ring_all_ones(self):
        f, _, _ = taft_family(5)
        assert np.allclose(fp_dimensions(f), np.ones(5), atol=1e-9)

    def test_fibonacci_golden(self):
        fp = fp_dimensions(fibonacci_fusion())
        assert abs(fp[0] - 1) < 1e-9
        assert abs(fp[1] - PHI) < 1e-9

    def test_uqsl2_dims_are_weights(self):
        # induction on X_2 X_i = X_{i+1} + X_{i-1} with the boundary rule
        # forces FPdim(X_j) = j, including FPdim(X_ell) = ell
        for ell in (3, 5):
            fam = uqsl2_family(ell, lam=0)
            fp = fp_dimensions(fam.fusion)
            assert np.allclose(fp, np.arange(1, ell + 1), atol=1e-8)
            assert abs(2 * fp[1] - (fp[0] + fp[2])) < 1e-7


class TestRingProperties:
    def test_dual_is_transpose_for_semisimple(self):
        for f in (fibonacci_fusion(), vecg_family(Group.symmetric3(), {g: 1 for g in Group.symmetric3().elements}, ["e"])[0]):
            for r in f.labels:
                lr = f.left_mult_matrix(r)
                ld = f.left_mult_matrix(f.dual[r])
                assert (ld == lr.T).all()

    def test_global_dimension_twist_invariance(self):
        # character twist d' = d * b leaves sum d_r d_{r*} unchanged (Vec_G)
        F = CycField(3)
        z3 = Group.cyclic(3)
        triv, _, _ = vecg_family(z3, {str(a): 1 for a in range(3)}, ["0"])
        twisted, _, _ = vecg_family(z3, {str(a): F.zeta(a) for a in range(3)}, ["0"])
        gd1 = global_dimension(triv)
        gd2 = global_dimension(twisted)
        assert gd1 == 3
        assert gd2 == F.from_rational(3)
