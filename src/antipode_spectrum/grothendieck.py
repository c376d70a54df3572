"""Grothendieck ring data of a finite tensor category and its verification.

FusionData records the based ring: labels, unit, duality involution and the
sparse structure constants c_{qr}^s, together with an optional Cartan matrix
(identity when absent, the semisimple case) and optional pivotal dimensions.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, MissingDims


class Violation:
    """One failed axiom instance, with the witnessing index tuple."""

    __slots__ = ("check", "witness", "detail")

    def __init__(self, check, witness, detail=""):
        self.check = check
        self.witness = witness
        self.detail = detail

    def __repr__(self):
        d = f": {self.detail}" if self.detail else ""
        return f"[{self.check}] at {self.witness}{d}"


class VerificationReport:
    def __init__(self, subject: str):
        self.subject = subject
        self.checks: list[str] = []
        self.violations: list[Violation] = []

    def record(self, check: str):
        self.checks.append(check)

    def fail(self, check: str, witness, detail=""):
        self.violations.append(Violation(check, witness, detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        lines = [f"verification of {self.subject}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            bad = [v for v in self.violations if v.check == c]
            if bad:
                lines.append(f"  {c}: FAIL ({len(bad)} violation(s))")
                for v in bad[:5]:
                    lines.append(f"    witness {v.witness} {v.detail}")
            else:
                lines.append(f"  {c}: ok")
        return "\n".join(lines)


class FusionData:
    """Based-ring data; immutable after construction, all methods pure."""

    def __init__(self, labels, unit, dual, structure, cartan=None, dims=None):
        self.labels = list(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        self.index = {x: i for i, x in enumerate(self.labels)}
        if unit not in self.index:
            raise ValueError(f"unit {unit!r} not a label")
        self.unit = unit
        self.dual = dict(dual)
        for x, y in self.dual.items():
            if x not in self.index or y not in self.index:
                raise ValueError(f"dual map mentions unknown label {x!r} or {y!r}")
        counts = structure.values()
        if not set(map(type, counts)) <= {int}:  # numpy integers, say
            structure = dict(zip(structure, map(int, counts)))
            counts = structure.values()
        if min(counts, default=0) < 0:
            key = next(key for key, c in structure.items() if c < 0)
            raise ValueError(f"negative structure constant at {key}")
        self.structure = ({key: c for key, c in structure.items() if c} if 0 in counts
                          else dict(structure))
        k = len(self.labels)
        if cartan is not None:
            cartan = np.asarray(cartan, dtype=np.int64)
            if cartan.shape != (k, k):
                raise DimensionMismatch(f"cartan must be {k}x{k}")
            if (cartan < 0).any():
                raise ValueError("cartan entries must be nonnegative")
        self.cartan = cartan
        self.dims = dict(dims) if dims is not None else None
        if self.dims is not None and set(self.dims) != set(self.labels):
            raise MissingDims("dims must be given for every label")
        self._tensor = None

    @property
    def size(self):
        return len(self.labels)

    def tensor(self) -> np.ndarray:
        """Dense c[q,r,s], int64."""
        if self._tensor is None:
            k = self.size
            t = np.zeros((k, k, k), dtype=np.int64)
            for (q, r, s), c in self.structure.items():
                t[self.index[q], self.index[r], self.index[s]] = c
            self._tensor = t
        return self._tensor

    def cartan_matrix(self) -> np.ndarray:
        if self.cartan is not None:
            return self.cartan
        return np.eye(self.size, dtype=np.int64)

    def dual_index(self, i: int) -> int:
        return self.index[self.dual[self.labels[i]]]

    def left_mult_matrix(self, r) -> np.ndarray:
        """(L_r)_{st} = c_{rt}^s, the matrix of left multiplication by X_r."""
        t = self.tensor()
        return t[self.index[r], :, :].T.copy()

    def dims_vector(self):
        if self.dims is None:
            raise MissingDims("no dimensions attached")
        return [self.dims[x] for x in self.labels]


def verify_fusion(f: FusionData, strict_duality: bool = False) -> VerificationReport:
    """Check unit, associativity and the duality involution; with
    strict_duality also c_{qr}^unit = delta_{r, dual(q)} (semisimple input)."""
    rep = VerificationReport("fusion data")
    t = f.tensor()
    k = f.size
    u = f.index[f.unit]
    eye = np.eye(k, dtype=np.int64)

    rep.record("unit")
    if not (t[u] == eye).all():
        for r in range(k):
            for s in range(k):
                if t[u, r, s] != eye[r, s]:
                    rep.fail("unit", (f.unit, f.labels[r], f.labels[s]), "left unit broken")
    if not (t[:, u, :] == eye).all():
        for q in range(k):
            for s in range(k):
                if t[q, u, s] != eye[q, s]:
                    rep.fail("unit", (f.labels[q], f.unit, f.labels[s]), "right unit broken")

    rep.record("associativity")
    lhs = np.einsum("qrt,tsu->qrsu", t, t)
    rhs = np.einsum("rst,qtu->qrsu", t, t)
    if not (lhs == rhs).all():
        bad = np.argwhere(lhs != rhs)
        for q, r, s, w in bad[:10]:
            rep.fail(
                "associativity",
                tuple(f.labels[i] for i in (q, r, s, w)),
                f"{lhs[q, r, s, w]} != {rhs[q, r, s, w]}",
            )

    rep.record("dual-involution")
    for x in f.labels:
        if x not in f.dual:
            rep.fail("dual-involution", (x,), "dual undefined")
        elif f.dual.get(f.dual[x]) != x:
            rep.fail("dual-involution", (x,), "not an involution")
    if f.dual.get(f.unit) != f.unit:
        rep.fail("dual-involution", (f.unit,), "dual(unit) != unit")

    if strict_duality:
        rep.record("strict-duality")
        for q, (x, row) in enumerate(zip(f.labels, t[:, :, u].tolist())):
            if x not in f.dual:  # dual-involution reports it
                continue
            dq = f.dual_index(q)
            for r, c in enumerate(row):
                want = 1 if r == dq else 0
                if c != want:
                    rep.fail("strict-duality", (x, f.labels[r]), f"c^unit = {c}, expected {want}")
    return rep


def q_matrix(f: FusionData, action_matrices):
    """Q_M = sum_r dim(X_r*) N_r acting on Gr(M), as a dense scalar matrix.

    The integer matrices of the labels that share a dual dim are summed
    first, so an entry takes one scalar product per distinct dim whose
    summed count there is nonzero; an entry with none is the dims' zero."""
    if f.dims is None:
        raise MissingDims("Q matrix needs dims")
    if len(action_matrices) != f.size:
        raise DimensionMismatch("one action matrix per label required")
    mats = [np.asarray(m) for m in action_matrices]
    size = mats[0].shape[0]
    for m in mats:
        if m.shape != (size, size):
            raise DimensionMismatch("action matrices must be square of equal size")
    group = {}
    keys = [group.setdefault(f.dims[f.dual[x]], len(group)) for x in f.labels]
    counts = np.zeros((len(group), size, size), dtype=np.int64)
    np.add.at(counts, keys, np.array(mats, dtype=np.int64))
    dims = list(group)
    zero = dims[0] * 0
    out = []
    for row in counts.transpose(1, 2, 0).tolist():
        out_row = []
        for entry in row:
            terms = [d if n == 1 else d * n for d, n in zip(dims, entry) if n]
            out_row.append(sum(terms[1:], terms[0]) if terms else zero)
        out.append(out_row)
    return out
