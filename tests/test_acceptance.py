"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  Two sub-criteria are provably unattainable from the stated inputs
and are kept as strict-xfail tests; the xfail reasons carry the argument.
"""

import cmath
import time
from fractions import Fraction

import numpy as np
import pytest

from antipode_spectrum.cyclotomic import CycField
from antipode_spectrum.errors import JDependence
from antipode_spectrum.families import (
    Group,
    regular_module,
    taft_family,
    uqg_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.modcat import dimension_identity
from antipode_spectrum.oracle import (
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
from antipode_spectrum.pivotalization import char_poly_pivotalized, from_matched_pivotal
from antipode_spectrum.scalar import canonical_key
from antipode_spectrum.spectrum import (
    block_multiplicities,
    char_poly_s2,
    dimension_eigenspace,
    m_bar,
    select_m,
)
from antipode_spectrum.symbolic import FactoredValue
from support import (
    fibonacci_fusion,
    global_dimension,
    matched_builtins,
    matched_checks,
    signed_spectrum,
)

UQSL2_CARTAN_3 = np.array([[2, 2, 0], [2, 2, 0], [0, 0, 1]])


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_taft_spectra():
    for n, s in ((2, 1), (3, 1), (5, 1)):
        t0 = time.perf_counter()
        f, mod, m = taft_family(n, s)
        spec = char_poly_s2(f, mod, m)
        elapsed = time.perf_counter() - t0
        F = CycField(n)
        assert spec.total_degree == n**4
        assert spec.multiset() == {canonical_key(F.zeta(t)): n**3 for t in range(n)}
        assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"
    report("1 PASS - Taft n in {2,3,5}: eigenvalues q^t with multiplicity n^3, degree n^4, < 1 s")


def test_criterion_2_uqsl2_symbolic_cross_formula():
    for ell in (3, 5):
        t0 = time.perf_counter()
        fam = uqsl2_family(ell)
        n = block_multiplicities(fam.fusion, fam.module)
        assert set(n.ravel().tolist()) == {ell}  # every exponent exactly ell
        computed = char_poly_s2(fam.fusion, fam.module, fam.m)
        assert computed.total_degree == ell**5
        assert computed == uqg_family("A1", ell)  # canonical factored multiset equality
        elapsed = time.perf_counter() - t0
        if ell == 5:
            assert elapsed < 10.0, f"ell=5 took {elapsed:.3f}s"
    report("2 PASS - u_q(sl2) symbolic: block route equals the closed product, degree ell^5")


def test_criterion_3_lambda_limits():
    # numeric specialization near zero
    fam = uqsl2_family(3, lam=1e-6)
    spec = char_poly_s2(fam.fusion, fam.module, fam.m)
    assert spec.total_degree == 3**5
    roots = [cmath.exp(2j * cmath.pi * t / 3) for t in range(3)]
    aggregated = [0, 0, 0]
    for v, mult in spec.entries:
        dists = [abs(complex(v) - r) for r in roots]
        assert min(dists) < 1e-4
        aggregated[dists.index(min(dists))] += mult
    assert aggregated == [3**4, 3**4, 3**4]
    # exact Lambda = 0 evaluator
    fam0 = uqsl2_family(3, lam=0)
    spec0 = char_poly_s2(fam0.fusion, fam0.module, fam0.m)
    assert spec0.uniform_root_power() == (3, 3**4)
    assert str(spec0) == "(z^3 - 1)^81"
    report("3 PASS - Lambda -> 0: numeric within 1e-4 of z^3 = 1, exact limit (z^3 - 1)^81")


def test_criterion_4_q_element_suite():
    names = []
    for ex in matched_builtins():
        if not ex.q_suite:
            continue
        f, mod, m = ex.fusion, ex.module, ex.m
        mb = m_bar(f, mod, m)
        rep = matched_checks(f, mod, m, mb)
        assert rep.ok, f"{ex.name}: {rep}"
        names.append(ex.name)
    assert {"taft-2", "taft-3", "taft-5", "vecg-z2-sign", "fibonacci-regular"} <= set(names)
    report(f"4 PASS - Q-element identities on {len(names)} matched examples: "
           "Tr(Q)=dim(C), rank 1, Q^2=dim(C)Q, sum m mbar = dim(C), hom table")


def test_criterion_4_uqsl2_applicable_identities():
    # the dynamical family at ell = 3: the eigenvector equations hold
    # symbolically and the dimension character has multiplicity 2; the
    # rank-one Q identities do not apply to the non-semisimple data
    fam = uqsl2_family(3)
    _, mult = dimension_eigenspace(fam.fusion, fam.module)
    assert mult == 2
    assert select_m(fam.fusion, fam.module, candidate=fam.m) == fam.m
    assert global_dimension(fam.fusion) == CycField(3).from_rational(2)
    with pytest.raises(JDependence):
        m_bar(fam.fusion, fam.module, fam.m)
    report("4 PASS - u_q(sl2) ell=3 symbolic: eigenvector equations exact, "
           "multiplicity 2, dim(C) = 2 (rank-one Q identities inapplicable)")


@pytest.mark.xfail(
    strict=True,
    reason="Q_M = N_1 + (q + q^-1)(S + S^2) has eigenvalues {-1, 2, 2} at "
    "ell = 3, so it is not rank one and no mbar with Q_M = m mbar^T exists; "
    "the rank-one identities hold only for fusion-type ring data",
)
def test_criterion_4_uqsl2_rank_one_as_stated():
    fam = uqsl2_family(3)
    mb = m_bar(fam.fusion, fam.module, fam.m)  # raises JDependence
    assert matched_checks(fam.fusion, fam.module, fam.m, mb).ok


def test_criterion_5_fibonacci_regular():
    f = fibonacci_fusion()
    mod, m = regular_module(f)
    # independent oracle first: plain-loop enumeration over all 16 quadruples
    oracle_spec = brute_force_spectrum(f, mod, m)
    computed = char_poly_s2(f, mod, m)
    assert computed == oracle_spec
    F = CycField(5)
    phi = -F.zeta(2) - F.zeta(3)
    expect = {
        canonical_key(F.one()): 7,
        canonical_key(phi): 2,
        canonical_key(phi.inverse()): 2,
        canonical_key(phi * phi): 1,
        canonical_key((phi * phi).inverse()): 1,
    }
    assert computed.multiset() == expect
    assert computed.total_degree == 13
    report("5 PASS - Fibonacci regular: (z-1)^7 (z-phi)^2 (z-1/phi)^2 (z-phi^2)(z-1/phi^2), degree 13")


def test_criterion_6_pivotalization_consistency():
    names = []
    for ex in matched_builtins():
        if not ex.pivotal_suite:
            continue
        piv = from_matched_pivotal(ex.fusion, ex.module, ex.m)
        left = char_poly_pivotalized(piv)
        right = signed_spectrum(char_poly_s2(ex.fusion, ex.module, ex.m))
        assert left == right, ex.name
        names.append(ex.name)
    assert "vecg-z2-sign" in names and "fibonacci-regular" in names
    report(f"6 PASS - pivotalized route equals matched route as signed multisets on {names}")


@pytest.mark.xfail(
    strict=True,
    reason="the signed degree is sum_r rowTotal(r)^2 = 2|I|^2 in {2, 8} for "
    "any Vec_Z/2 module datum, and the matched sign rule makes every "
    "supported entry positive (N- = 0), so (+-1, degree 4) cannot occur",
)
def test_criterion_6_vec_z2_as_stated():
    f, mod, m = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
    piv = from_matched_pivotal(f, mod, m)
    spec = char_poly_pivotalized(piv)
    assert spec.total_degree == 4
    assert {v.sign for v, _ in spec.entries} == {1, -1}


def test_criterion_7_oracle_suite():
    assert len(radical_via_trace_form(taft_algebra(2).algebra)) == 2
    assert len(radical_via_trace_form(uqsl2_algebra(3))) == 13

    orc = taft_algebra(3)
    rep = validate_cartan(
        orc.algebra,
        taft_generators(orc.algebra),
        taft_simple_modules(3),
        np.ones((3, 3), dtype=int),
        idempotents=taft_idempotents(3),
    )
    assert rep.ok, str(rep)

    alg = uqsl2_algebra(3)
    rep = validate_cartan(alg, uqsl2_generators(alg), uqsl2_simple_modules(3), UQSL2_CARTAN_3)
    assert rep.ok, str(rep)

    bad = UQSL2_CARTAN_3.copy()
    bad[2, 2] = 2
    assert not validate_cartan(alg, uqsl2_generators(alg), uqsl2_simple_modules(3), bad).ok
    bad_taft = np.ones((3, 3), dtype=int)
    bad_taft[0, 0] = 2
    assert not validate_cartan(
        orc.algebra,
        taft_generators(orc.algebra),
        taft_simple_modules(3),
        bad_taft,
        idempotents=taft_idempotents(3),
    ).ok

    for n in (2, 3):
        spec = taft_s2_spectrum(n)
        F = CycField(n)
        assert spec.multiset() == {canonical_key(F.zeta(b)): n for b in range(n)}
    report("7 PASS - oracle: radical dims 2 and 13, Cartan validations pass/fail as they "
           "should, Taft S^2 on the Hopf basis is {q^b} x n")


def test_criterion_8_general_g():
    for ell in (3, 5):
        fam = uqsl2_family(ell)
        assert uqg_family("A1", ell) == char_poly_s2(fam.fusion, fam.module, fam.m)
    t0 = time.perf_counter()
    spec = uqg_family("A2", 5, lam=(0.7 + 0.2j, 1.3 - 0.4j))
    elapsed = time.perf_counter() - t0
    assert spec.total_degree == 5**12
    assert all(mult % 5**4 == 0 for _, mult in spec.entries)
    assert elapsed < 60.0, f"A2 took {elapsed:.2f}s"
    report(f"8 PASS - A1 reproduces u_q(sl2) exactly; A2 ell=5 numeric: degree 5^12, "
           f"per-tuple multiplicity 5^4, {elapsed:.2f}s")


def test_criterion_9_invariance_suite():
    count = 0
    for ex in matched_builtins():
        f, mod, m = ex.fusion, ex.module, ex.m
        spec = char_poly_s2(f, mod, m)
        # degree identity
        assert spec.total_degree == dimension_identity(f, mod)
        # rescaling invariance (exact)
        if isinstance(m[0], FactoredValue):
            two = FactoredValue.from_constant(m[0].ctx, m[0].ctx.field.from_rational(2))
            scaled = [two * x for x in m]
            one_key = canonical_key(FactoredValue.one(m[0].ctx))
        else:
            scaled = [Fraction(5, 3) * x if isinstance(x, (int, Fraction)) else x * 2 for x in m]
            one_key = canonical_key(m[0] / m[0])
        assert char_poly_s2(f, mod, scaled) == spec
        # eigenvalue-1 lower bound
        n = block_multiplicities(f, mod)
        lower = int(sum(n[i, i, k, k] for i in range(mod.size) for k in range(mod.size)))
        assert lower > 0
        assert spec.multiset()[one_key] >= lower
        count += 1
    report(f"9 PASS - invariance suite on {count} built-ins: rescaling, eigenvalue-1 "
           "bound, degree identity")
