"""Signed spectrum for fusion categories without a matched pivotal
structure, via Mueger squared norms and signed restriction multiplicities.

Square roots are never extracted: an eigenvalue is carried as the pair
(sign, squared value) with squared value nu_j nu_k / (nu_i nu_l).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cyclotomic import CycNum
from .errors import NonRealSigns, SignSplitMismatch
from .grothendieck import FusionData
from .modcat import ModuleActionData
from .scalar import DEFAULT_TOLERANCE, canonical_key, numeric_value
from .spectrum import (
    SpectrumFactorization,
    classify_scalars,
    m_bar,
    pair_class_spectrum,
    pair_products,
)


def sign_of(x, tol=DEFAULT_TOLERANCE) -> int:
    """Sign of a real scalar; NonRealSigns when the value is not real."""
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if isinstance(x, CycNum):
        if not x.is_real():
            raise NonRealSigns(f"{x} is not real")
        v = x.complex_value().real
        return (v > tol) - (v < -tol)
    v = numeric_value(x)
    if abs(v.imag) > tol:
        raise NonRealSigns(f"{v} is not real")
    return (v.real > tol) - (v.real < -tol)


class SignedEigenvalue:
    """sign * sqrt(squared); equality compares both components."""

    __slots__ = ("sign", "squared")

    def __init__(self, sign: int, squared):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        self.squared = squared

    def canonical_key(self, tol=DEFAULT_TOLERANCE):
        return ("sgn", self.sign, canonical_key(self.squared, tol))

    def __eq__(self, other):
        if not isinstance(other, SignedEigenvalue):
            return NotImplemented
        return self.sign == other.sign and canonical_key(self.squared) == canonical_key(
            other.squared
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        return f"{s}sqrt({self.squared})"

    __repr__ = __str__


class PivotalizationData:
    """nu_i > 0 per module label, and the signed split N = N+ + N-."""

    def __init__(self, module_labels, nu, n_plus, n_minus, unsigned: ModuleActionData = None):
        self.module_labels = list(module_labels)
        self.nu = list(nu)
        k = len(self.module_labels)
        if len(self.nu) != k:
            raise ValueError("one nu per module label")
        for i, v in enumerate(self.nu):
            if sign_of(v) <= 0:
                raise ValueError(f"nu_{self.module_labels[i]} must be positive")
        self.n_plus = {r: np.asarray(m, dtype=np.int64) for r, m in n_plus.items()}
        self.n_minus = {r: np.asarray(m, dtype=np.int64) for r, m in n_minus.items()}
        for part in (self.n_plus, self.n_minus):
            for r, m in part.items():
                if m.shape != (k, k) or (m < 0).any():
                    raise ValueError(f"bad signed matrix for {r}")
        if set(self.n_plus) != set(self.n_minus):
            raise SignSplitMismatch("N+ and N- must cover the same ring labels")
        if unsigned is not None:
            for r in self.n_plus:
                if not (self.n_plus[r] + self.n_minus[r] == unsigned.matrix(r)).all():
                    raise SignSplitMismatch(f"N+ + N- != N at label {r}")

    @property
    def ring_labels(self):
        return sorted(self.n_plus)


def char_poly_pivotalized(p: PivotalizationData, tol=DEFAULT_TOLERANCE) -> SpectrumFactorization:
    """Signed factored spectrum: (sign, nu_j nu_k / (nu_i nu_l)) with the
    plus/minus multiplicities from the signed restriction split."""
    P = np.stack([p.n_plus[r] for r in p.ring_labels])
    M = np.stack([p.n_minus[r] for r in p.ring_labels])
    n_plus = np.einsum("rji,rkl->ijkl", P, P) + np.einsum("rji,rkl->ijkl", M, M)
    n_minus = np.einsum("rji,rkl->ijkl", M, P) + np.einsum("rji,rkl->ijkl", P, M)
    size = len(p.module_labels)
    backend = "numeric" if classify_scalars(p.nu)[0] == "num" else "cyclotomic"
    pairs = pair_products(p.nu, backend)
    signed = []
    for sign, n in ((1, n_plus), (-1, n_minus)):
        # rows: pairs (j, k) of the numerator; columns: pairs (i, l) of the denominator
        weights = n.transpose(1, 2, 0, 3).reshape(size * size, size * size)
        spec = pair_class_spectrum(pairs, pairs, weights, backend, tol)
        signed += [(SignedEigenvalue(sign, v), m) for v, m in spec.entries]
    return SpectrumFactorization.merge_pairs(signed, "signed", tol)


def from_matched_pivotal(f: FusionData, mod: ModuleActionData, m, mbar=None,
                         tol=DEFAULT_TOLERANCE) -> PivotalizationData:
    """Sign bookkeeping for matched data with real dims and trace vector:
    nu_i = m_i mbar_i and the entry (r, i -> j) goes to N+ exactly when
    sign(d_r) sign(m_i) sign(m_j) = +1."""
    if mbar is None:
        mbar = m_bar(f, mod, m, tol)
    dims = f.dims_vector()
    d_sign = [sign_of(d, tol) for d in dims]
    m_sign = [sign_of(x, tol) for x in m]
    if any(s == 0 for s in d_sign) or any(s == 0 for s in m_sign):
        raise NonRealSigns("zero dimension or trace entry; signs undefined")
    nu = [x * y for x, y in zip(m, mbar)]
    size = mod.size
    n_plus, n_minus = {}, {}
    for r, lab in enumerate(f.labels):
        N = mod.matrix(lab)
        plus = np.zeros_like(N)
        minus = np.zeros_like(N)
        for j in range(size):
            for i in range(size):
                if N[j, i]:
                    if d_sign[r] * m_sign[i] * m_sign[j] > 0:
                        plus[j, i] = N[j, i]
                    else:
                        minus[j, i] = N[j, i]
        n_plus[lab] = plus
        n_minus[lab] = minus
    return PivotalizationData(mod.labels, nu, n_plus, n_minus, unsigned=mod)


def signed_spectrum(spec: SpectrumFactorization, tol=DEFAULT_TOLERANCE) -> SpectrumFactorization:
    """Re-express a matched real spectrum as signed eigenvalues
    (sign(lambda), lambda^2) for comparison against the pivotalized route."""
    pairs = []
    for v, mult in spec.entries:
        s = sign_of(v, tol)
        if s == 0:
            raise NonRealSigns("zero eigenvalue cannot be signed")
        pairs.append((SignedEigenvalue(s, v * v), mult))
    return SpectrumFactorization.merge_pairs(pairs, "signed", tol)
