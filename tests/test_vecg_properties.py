"""Spectrum invariants on random Vec_{Z/n} coset modules Z/n / <d> whose
pivotal character kappa(a) = zeta_n^(t a) is trivial on the subgroup, so the
module is matched with m_{gH} = kappa(g)^-1, and Vec_G is semisimple (C = I)."""

from fractions import Fraction

import numpy as np
import pytest

from antipode_spectrum.cyclotomic import CycField
from antipode_spectrum.families import Group, vecg_family
from antipode_spectrum.modcat import dimension_identity
from antipode_spectrum.scalar import canonical_key
from antipode_spectrum.spectrum import block_multiplicities, char_poly_s2

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=40, deadline=None)


@st.composite
def coset_modules(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    t = draw(st.integers(min_value=0, max_value=d - 1)) * (n // d)  # t d = 0 mod n
    field = CycField(n)
    kappa = {str(a): field.zeta(t * a) for a in range(n)}
    f, mod, m = vecg_family(Group.cyclic(n), kappa, [str(a) for a in range(0, n, d)])
    assert mod.size == d
    return f, mod, m


@st.composite
def scales(draw, field):
    coeffs = [draw(st.fractions(min_value=-9, max_value=9, max_denominator=7))
              for _ in range(field.degree)]
    c = field.reduce(coeffs)
    hypothesis.assume(c)
    return c


@SETTINGS
@hypothesis.given(coset_modules(), st.data())
def test_global_rescaling(module, data):
    f, mod, m = module
    c = data.draw(scales(CycField(len(f.labels))))
    assert char_poly_s2(f, mod, [c * x for x in m]) == char_poly_s2(f, mod, m)


@SETTINGS
@hypothesis.given(coset_modules())
def test_inversion_closure(module):
    f, mod, m = module
    size = len(f.labels)
    assert (f.cartan_matrix() == np.eye(size, dtype=np.int64)).all()
    spec = char_poly_s2(f, mod, m)
    mult = spec.multiset()
    inverted = {}
    for v, count in spec.entries:
        key = canonical_key(v.inverse() if hasattr(v, "inverse") else 1 / Fraction(v))
        inverted[key] = inverted.get(key, 0) + count
    assert inverted == mult


@SETTINGS
@hypothesis.given(coset_modules())
def test_total_degree(module):
    f, mod, m = module
    spec = char_poly_s2(f, mod, m)
    assert spec.total_degree == dimension_identity(f, mod) == block_multiplicities(f, mod).sum()
