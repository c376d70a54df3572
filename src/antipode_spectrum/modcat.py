"""Grothendieck-level action of a fusion ring on a module category.

ModuleActionData stores one nonnegative integer matrix N_r per ring label,
with (N_r)_{ji} counting M_j inside X_r (x) M_i.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .grothendieck import FusionData, VerificationReport


class ModuleActionData:
    def __init__(self, labels, action):
        """``action`` maps each ring label to a |I| x |I| matrix."""
        self.labels = list(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate module labels")
        self.index = {x: i for i, x in enumerate(self.labels)}
        k = len(self.labels)
        mats = list(action.values())
        try:  # one int64 array of every matrix, checked as a whole
            stack = np.array(mats, dtype=np.int64)
        except (TypeError, ValueError):  # matrices of different shapes, say
            stack = None
        if stack is None or stack.shape != (len(mats), k, k) or (stack < 0).any():
            stack = [np.asarray(m, dtype=np.int64) for m in mats]
            for r, m in zip(action, stack):  # the first bad one
                if m.shape != (k, k):
                    raise DimensionMismatch(f"N_{r} must be {k}x{k}")
                if (m < 0).any():
                    raise ValueError(f"N_{r} has negative entries")
        self.action = dict(zip(action, stack))

    @property
    def size(self):
        return len(self.labels)

    def matrix(self, r) -> np.ndarray:
        return self.action[r]

    def matrices(self, f: FusionData):
        """Action matrices in the fusion label order."""
        return [self.action[r] for r in f.labels]

    def row_total(self, r) -> int:
        return int(self.action[r].sum())


def verify_module(f: FusionData, mod: ModuleActionData) -> VerificationReport:
    """Check the Z+-module axioms, transpose duality and indecomposability."""
    rep = VerificationReport("module action data")
    k = mod.size

    rep.record("labels")
    missing = [r for r in f.labels if r not in mod.action]
    for r in missing:
        rep.fail("labels", (r,), "no action matrix")
    if missing:
        return rep

    rep.record("unit-action")
    if not (mod.matrix(f.unit) == np.eye(k, dtype=np.int64)).all():
        rep.fail("unit-action", (f.unit,), "N_unit != identity")

    rep.record("module-associativity")
    n = np.array(mod.matrices(f))
    lhs = np.einsum("qij,rjk->qrik", n, n)
    rhs = np.einsum("qrs,sik->qrik", f.tensor(), n)
    for qi, ri in np.argwhere((lhs != rhs).any(axis=(2, 3))):
        rep.fail("module-associativity", (f.labels[qi], f.labels[ri]),
                 "N_q N_r != sum c_{qr}^s N_s")

    rep.record("transpose-duality")
    duals = [f.index[f.dual[r]] if r in f.dual else i for i, r in enumerate(f.labels)]
    transposed = (n[duals] == n.transpose(0, 2, 1)).all(axis=(1, 2))
    for r, ok in zip(f.labels, transposed):
        if r not in f.dual:
            rep.fail("transpose-duality", (r,), "dual undefined")
        elif not ok:
            rep.fail("transpose-duality", (r,), "N_{r*} != N_r^T")

    rep.record("indecomposability")
    support = n.sum(axis=0)
    adj = ((support + support.T) > 0).tolist()
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j, linked in enumerate(adj[i]):
            if linked and j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != k:
        orphan = sorted(set(range(k)) - seen)
        rep.fail(
            "indecomposability",
            tuple(mod.labels[i] for i in orphan),
            "support graph disconnected",
        )
    return rep


def dimension_identity(f: FusionData, mod: ModuleActionData) -> int:
    """dim H = sum_{q,r} rowTotal(q) C_{qr} rowTotal(r); must match the
    spectrum's total degree."""
    totals = np.array([mod.row_total(r) for r in f.labels], dtype=np.int64)
    return int(totals @ f.cartan_matrix() @ totals)
