import random

import numpy as np
import pytest

from antipode_spectrum.cyclotomic import CycField
from antipode_spectrum.errors import BadParameters
from antipode_spectrum.families import regular_module, taft_family
from antipode_spectrum.oracle import (
    StructureAlgebra,
    apply_linear,
    brute_force_spectrum,
    radical_via_trace_form,
    taft_algebra,
    taft_generators,
    taft_idempotents,
    taft_s2_spectrum,
    taft_simple_modules,
    uqsl2_algebra,
    uqsl2_generators,
    uqsl2_simple_modules,
    validate_cartan,
)
from antipode_spectrum.scalar import canonical_key
from antipode_spectrum.spectrum import char_poly_s2
from support import (
    check_associativity,
    check_unit,
    contains,
    fibonacci_fusion,
    mat_mul,
    quotient_algebra,
)


def group_ring_z(n):
    field = CycField(1)
    labels = list(range(n))
    mult = {
        (a, b): {(a + b) % n: field.one()} for a in range(n) for b in range(n)
    }
    return StructureAlgebra(labels, field, mult, {0: field.one()})


UQSL2_CARTAN_3 = np.array([[2, 2, 0], [2, 2, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def uqsl2_5():
    return uqsl2_algebra(5)


class TestTaftAlgebra:
    def test_dimension(self):
        for n in (2, 3):
            assert taft_algebra(n).algebra.dim == n * n

    def test_associativity_all_triples(self):
        for n in (2, 3):
            alg = taft_algebra(n).algebra
            assert check_unit(alg)
            assert check_associativity(alg)

    def test_s2_eigenvalues(self):
        # S^2(g^a x^b) = q^b g^a x^b: eigenvalues q^b, multiplicity n each
        for n, s in ((2, 1), (3, 1), (3, 2)):
            spec = taft_s2_spectrum(n, s)
            F = CycField(n)
            assert spec.multiset() == {canonical_key(F.zeta(s * b)): n for b in range(n)}

    def test_antipode_squares_diagonally(self):
        orc = taft_algebra(3)
        alg = orc.algebra
        q = alg.field.zeta(1)
        for i, (a, b) in enumerate(alg.labels):
            img = apply_linear(orc.antipode, apply_linear(orc.antipode, {i: alg.field.one()}))
            assert img == {i: q**b}

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            taft_algebra(1)


class TestUqsl2Algebra:
    def test_dimension_and_unit(self):
        alg = uqsl2_algebra(3)
        assert alg.dim == 27
        assert check_unit(alg)

    def test_associativity_sample(self):
        alg = uqsl2_algebra(3)
        rng = random.Random(23)
        triples = [
            (rng.randrange(27), rng.randrange(27), rng.randrange(27)) for _ in range(300)
        ]
        assert check_associativity(alg, triples)

    def test_casimir_commutes_with_k(self):
        alg = uqsl2_algebra(3)
        F = alg.field
        q, qinv = F.zeta(1), F.zeta(2)
        gens = uqsl2_generators(alg)
        scale = ((q - qinv) ** 2).inverse()
        cas = dict(alg.multiply(gens["E"], gens["F"]))
        for key, coeff in ((alg.index[(0, 0, 1)], qinv * scale), (alg.index[(0, 0, 2)], q * scale)):
            cas[key] = cas.get(key, F.zero()) + coeff
        assert alg.multiply(cas, gens["K"]) == alg.multiply(gens["K"], cas)

    def test_defining_relations(self, uqsl2_5):
        alg = uqsl2_5
        F = alg.field
        q = F.zeta(1)
        E, Fm, K = (alg.basis_element(x) for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        q2 = q * q
        lhs = alg.multiply(K, E)
        rhs = {k: q2 * c for k, c in alg.multiply(E, K).items()}
        assert lhs == rhs
        comm = alg.multiply(E, Fm)
        for k, c in alg.multiply(Fm, E).items():
            comm[k] = comm.get(k, F.zero()) - c
        comm = {k: c for k, c in comm.items() if c}
        kk = F.zeta(-1) * 0  # zero
        scale = (q - F.zeta(-1)).inverse()
        expect = {alg.index[(0, 0, 1)]: scale, alg.index[(0, 0, 4)]: -scale}
        assert comm == expect

    def test_pbw_basis_from_generators(self, uqsl2_5):
        # E^a F^b K^c multiplied out from the generators is the basis element
        # (a, b, c), and E^ell = F^ell = 0, K^ell = 1
        for ell, alg in ((3, uqsl2_algebra(3)), (5, uqsl2_5)):
            powers = {}
            for name, g in uqsl2_generators(alg).items():
                powers[name] = [dict(alg.unit)]
                for _ in range(ell):
                    powers[name].append(alg.multiply(powers[name][-1], g))
            for a, b, c in alg.labels:
                got = alg.multiply(alg.multiply(powers["E"][a], powers["F"][b]), powers["K"][c])
                assert got == alg.basis_element((a, b, c))
            assert powers["E"][ell] == {} and powers["F"][ell] == {}
            assert powers["K"][ell] == alg.unit


class TestRadical:
    def test_semisimple_group_ring(self):
        assert radical_via_trace_form(group_ring_z(3)) == []

    def test_taft_n2(self):
        rad = radical_via_trace_form(taft_algebra(2).algebra)
        assert len(rad) == 2  # the ideal (x), dim n(n-1)

    def test_uqsl2_ell3(self):
        alg = uqsl2_algebra(3)
        rad = radical_via_trace_form(alg)
        assert len(rad) == 27 - (1 + 4 + 9)

    def test_uqsl2_ell5(self, uqsl2_5):
        # ell^3 - sum_{j <= ell} j^2: the simples L(mu) have dims 1..ell
        assert len(radical_via_trace_form(uqsl2_5)) == 125 - sum(j * j for j in range(1, 6)) == 70

    def test_radical_is_two_sided_ideal(self):
        alg = taft_algebra(3).algebra
        rad = radical_via_trace_form(alg)
        from antipode_spectrum._linalg import Subspace

        sub = Subspace(rad)
        for row in rad:
            v = alg.sparse(row)
            for mlab in range(alg.dim):
                e = {mlab: alg.field.one()}
                assert contains(sub, alg.dense(alg.multiply(v, e)))
                assert contains(sub, alg.dense(alg.multiply(e, v)))

    def test_quotient_is_semisimple(self):
        alg = taft_algebra(3).algebra
        rad = radical_via_trace_form(alg)
        qa = quotient_algebra(alg, rad)
        assert qa.dim == 3
        assert radical_via_trace_form(qa) == []


class TestValidateCartan:
    def test_taft_all_ones_passes(self):
        for n in (2, 3):
            orc = taft_algebra(n)
            rep = validate_cartan(
                orc.algebra,
                taft_generators(orc.algebra),
                taft_simple_modules(n),
                np.ones((n, n), dtype=int),
                idempotents=taft_idempotents(n),
            )
            assert rep.ok, str(rep)

    def test_uqsl2_candidate_passes(self):
        alg = uqsl2_algebra(3)
        rep = validate_cartan(
            alg, uqsl2_generators(alg), uqsl2_simple_modules(3), UQSL2_CARTAN_3
        )
        assert rep.ok, str(rep)

    def test_perturbed_candidates_fail(self):
        orc = taft_algebra(2)
        bad = np.array([[1, 2], [1, 1]])
        rep = validate_cartan(
            orc.algebra,
            taft_generators(orc.algebra),
            taft_simple_modules(2),
            bad,
            idempotents=taft_idempotents(2),
        )
        assert not rep.ok
        alg = uqsl2_algebra(3)
        bad = UQSL2_CARTAN_3.copy()
        bad[0, 1] = 3
        rep = validate_cartan(alg, uqsl2_generators(alg), uqsl2_simple_modules(3), bad)
        assert not rep.ok

    def test_simple_modules_are_representations(self):
        # spot-check the defining relations on the explicit simples
        for ell in (3, 5):
            F = CycField(ell)
            q2 = F.zeta(2)
            for sm in uqsl2_simple_modules(ell):
                E, Fm, K = sm.matrices["E"], sm.matrices["F"], sm.matrices["K"]
                lhs = mat_mul(K, E)
                rhs = [[q2 * x for x in row] for row in mat_mul(E, K)]
                assert lhs == rhs


class TestSpectrumConsistency:
    def test_taft_oracle_vs_weak_hopf_spectrum(self):
        # same eigenvalue set; weak Hopf multiplicities are n^3 versus n on
        # the Hopf algebra itself, ratio n^2 = dim End(A)
        for n in (2, 3):
            f, mod, m = taft_family(n)
            weak = char_poly_s2(f, mod, m)
            hopf = taft_s2_spectrum(n)
            assert set(weak.multiset()) == set(hopf.multiset())
            for key, mult in weak.multiset().items():
                assert mult == hopf.multiset()[key] * n * n

    def test_brute_force_matches_fast_path(self):
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        assert brute_force_spectrum(f, mod, m) == char_poly_s2(f, mod, m)
        f2, mod2, m2 = taft_family(3)
        assert brute_force_spectrum(f2, mod2, m2) == char_poly_s2(f2, mod2, m2)
