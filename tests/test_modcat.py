import hashlib

import numpy as np
import pytest

from antipode_spectrum.errors import NotInvertibleClass
from antipode_spectrum.families import (
    Group,
    regular_module,
    taft_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.grothendieck import FusionData, verify_fusion
from antipode_spectrum.modcat import (
    ModuleActionData,
    dimension_identity,
    verify_module,
)
from antipode_spectrum.spectrum import char_poly_s2
from support import d_action_triviality, fibonacci_fusion


class TestVerifyModule:
    def test_regular_module_passes(self):
        f = fibonacci_fusion()
        mod, _ = regular_module(f)
        assert verify_module(f, mod).ok

    def test_taft_permutation_algebra(self):
        for n in (2, 3, 5):
            f, mod, _ = taft_family(n)
            assert verify_module(f, mod).ok

    def test_uqsl2_module(self):
        for ell in (3, 5):
            fam = uqsl2_family(ell)
            assert verify_module(fam.fusion, fam.module).ok

    def test_corrupted_unit_fails_with_witness(self):
        f, mod, _ = taft_family(3)
        action = {r: mod.matrix(r).copy() for r in f.labels}
        action["0"] = mod.matrix("1")  # N_unit no longer the identity
        bad = ModuleActionData(mod.labels, action)
        rep = verify_module(f, bad)
        assert not rep.ok
        assert any(v.check == "unit-action" for v in rep.violations)

    def test_broken_action_keeps_its_witnesses(self):
        """Every (q, r) with N_q N_r != sum_s c_qr^s N_s, in label order, as
        the pairwise definition lists them."""
        f, mod, _ = taft_family(4)
        action = {r: mod.matrix(r).copy() for r in f.labels}
        action["1"], action["3"] = action["3"], action["1"]
        action["2"] = action["2"].T @ action["2"]
        bad = ModuleActionData(mod.labels, action)
        t = f.tensor()
        want = [(q, r) for qi, q in enumerate(f.labels) for ri, r in enumerate(f.labels)
                if not (action[q] @ action[r] == sum(t[qi, ri, si] * action[s]
                                                     for si, s in enumerate(f.labels))).all()]
        assert 0 < len(want) < len(f.labels) ** 2
        got = [v.witness for v in verify_module(f, bad).violations
               if v.check == "module-associativity"]
        assert got == want

    def test_disconnected_support_fails(self):
        f = fibonacci_fusion()
        # block-diagonal fake action: two copies of the trivial module
        eye = np.eye(2, dtype=int)
        bad = ModuleActionData(["a", "b"], {"1": eye, "t": 2 * eye})
        rep = verify_module(f, bad)
        assert any(v.check == "indecomposability" for v in rep.violations)


class TestDActionTriviality:
    def test_taft_distinguished_object_acts_nontrivially(self):
        _, mod, _ = taft_family(3)
        # D is the character g -> q, i.e. the class of label "1": a shift
        assert d_action_triviality(mod, "1") is False

    def test_unit_always_trivial(self):
        _, mod, _ = taft_family(4)
        assert d_action_triviality(mod, "0") is True
        f, mod2, _ = vecg_family(Group.cyclic(2), {"0": 1, "1": -1}, ["0"])
        assert d_action_triviality(mod2, "0") is True

    def test_non_invertible_class_rejected(self):
        fam = uqsl2_family(3)
        with pytest.raises(NotInvertibleClass):
            d_action_triviality(fam.module, "X2")


class TestSupportAndDegree:
    def test_every_column_hit(self):
        for f, mod in [
            taft_family(3)[:2],
            (fibonacci_fusion(), regular_module(fibonacci_fusion())[0]),
            (uqsl2_family(3).fusion, uqsl2_family(3).module),
        ]:
            support = sum(mod.matrix(r) for r in f.labels)
            assert (support.sum(axis=0) > 0).all()

    def test_dimension_identity_matches_block_total(self):
        from antipode_spectrum.spectrum import block_multiplicities

        for f, mod in [
            taft_family(3)[:2],
            (fibonacci_fusion(), regular_module(fibonacci_fusion())[0]),
            (uqsl2_family(5).fusion, uqsl2_family(5).module),
        ]:
            assert dimension_identity(f, mod) == int(block_multiplicities(f, mod).sum())

    def test_dimension_identity_matches_spectrum_degree(self):
        f, mod, m = taft_family(3)
        assert char_poly_s2(f, mod, m).total_degree == dimension_identity(f, mod)
        fam = uqsl2_family(3)
        assert char_poly_s2(fam.fusion, fam.module, fam.m).total_degree == dimension_identity(
            fam.fusion, fam.module
        )


def _verification_cases():
    """Valid and broken based rings and modules: wrong structure constants,
    a dual map that is no involution, a label without a dual, action
    matrices off by a few entries or transposed, a disconnected module."""
    f, mod, _ = taft_family(4)
    yield "taft4", f, mod
    s = dict(f.structure)
    s[("1", "1", "0")] = 2
    s[("0", "3", "0")] = 1
    yield "taft4-bad-structure", FusionData(f.labels, f.unit, f.dual, s), mod
    d = dict(f.dual)
    d["1"] = "1"
    yield "taft4-bad-dual", FusionData(f.labels, f.unit, d, f.structure), mod
    d = dict(f.dual)
    del d["2"]
    yield "taft4-no-dual", FusionData(f.labels, f.unit, d, f.structure), mod
    act = {r: mod.matrix(r).copy() for r in f.labels}
    act["1"][0, 0] += 1
    act["3"][2, 1] += 2
    yield "taft4-bad-action", f, ModuleActionData(mod.labels, act)
    fib = fibonacci_fusion()
    yield "fib", fib, regular_module(fib)[0]
    eye = np.eye(2, dtype=np.int64)
    yield "fib-disconnected", fib, ModuleActionData(["a", "b"], {"1": eye, "t": 2 * eye})
    s3 = Group.symmetric3()
    f, mod, _ = vecg_family(s3, {g: 1 for g in s3.elements}, ["e", "s"])
    yield "s3", f, mod
    act = {r: mod.matrix(r).copy() for r in f.labels}
    act["r"] = act["r"].T.copy()
    yield "s3-transposed", f, ModuleActionData(mod.labels, act)
    fam = uqsl2_family(5)
    yield "uqsl2-5", fam.fusion, fam.module


def test_verification_reports_are_unchanged():
    """The text of every report on the cases above, each violation and its
    witness in order, hashes to what the entry-by-entry checks gave.  The
    strict report of a label without a dual is left out: it raised KeyError
    there (see test_grothendieck.py)."""
    texts = []
    for name, f, mod in _verification_cases():
        texts.append(str(verify_fusion(f)))
        if name != "taft4-no-dual":
            texts.append(str(verify_fusion(f, strict_duality=True)))
        texts.append(str(verify_module(f, mod)))
    assert (hashlib.sha256("\n".join(texts).encode()).hexdigest()
            == "f9265347a5325d82f040c46b52833457c0430715c4058b1a7696bd85882e0037")
