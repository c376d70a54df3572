"""Signed spectrum for fusion categories without a matched pivotal
structure, via Mueger squared norms and signed restriction multiplicities.

Square roots are never extracted: an eigenvalue is carried as the pair
(sign, squared value) with squared value nu_j nu_k / (nu_i nu_l).
"""

from __future__ import annotations

import numpy as np

from .errors import NonRealSigns, SignSplitMismatch
from .grothendieck import FusionData
from .modcat import ModuleActionData
from .scalar import DEFAULT_TOLERANCE, SignedEigenvalue, sign
from .spectrum import SpectrumFactorization, m_bar, pair_class_spectrum


class PivotalizationData:
    """nu_i > 0 per module label, and the signed split N = N+ + N-."""

    def __init__(self, module_labels, nu, n_plus, n_minus, unsigned: ModuleActionData = None):
        self.module_labels = list(module_labels)
        self.nu = list(nu)
        k = len(self.module_labels)
        if len(self.nu) != k:
            raise ValueError("one nu per module label")
        for i, v in enumerate(self.nu):
            if sign(v) <= 0:
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
    plus/minus multiplicities from the signed restriction split.  The two
    halves cannot share an eigenvalue, and each is merged and in canonical
    order already, so the minus half followed by the plus half is the
    canonical order of the whole."""
    P = np.stack([p.n_plus[r] for r in p.ring_labels])
    M = np.stack([p.n_minus[r] for r in p.ring_labels])
    n_plus = np.einsum("rji,rkl->ijkl", P, P) + np.einsum("rji,rkl->ijkl", M, M)
    n_minus = np.einsum("rji,rkl->ijkl", M, P) + np.einsum("rji,rkl->ijkl", P, M)
    signed = []
    for s, n in ((-1, n_minus), (1, n_plus)):
        spec = pair_class_spectrum(p.nu, n.transpose(1, 2, 0, 3), tol)
        signed += [(SignedEigenvalue(s, v), m) for v, m in spec.entries]
    return SpectrumFactorization(signed, "signed", tol)


def from_matched_pivotal(f: FusionData, mod: ModuleActionData, m, mbar=None,
                         tol=DEFAULT_TOLERANCE) -> PivotalizationData:
    """Sign bookkeeping for matched data with real dims and trace vector:
    nu_i = m_i mbar_i and the entry (r, i -> j) goes to N+ exactly when
    sign(d_r) sign(m_i) sign(m_j) = +1."""
    if mbar is None:
        mbar = m_bar(f, mod, m, tol)
    dims = f.dims_vector()
    d_sign = [sign(d, tol) for d in dims]
    m_sign = [sign(x, tol) for x in m]
    if any(s == 0 for s in d_sign) or any(s == 0 for s in m_sign):
        raise NonRealSigns("zero dimension or trace entry; signs undefined")
    nu = [x * y for x, y in zip(m, mbar)]
    N = np.stack([mod.matrix(lab) for lab in f.labels])  # N[r, j, i]
    signs = np.multiply.outer(np.multiply.outer(d_sign, m_sign), m_sign)
    plus = np.where(signs > 0, N, 0)
    minus = N - plus
    n_plus = dict(zip(f.labels, plus))
    n_minus = dict(zip(f.labels, minus))
    return PivotalizationData(mod.labels, nu, n_plus, n_minus, unsigned=mod)

