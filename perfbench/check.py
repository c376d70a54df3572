"""Independent correctness checks on the saved stdout of each job.

They run after the timed passes, in the parent process.  Each check returns
None when the output is right and a one-line cause otherwise:

* roots        exactly (z^n - 1)^e: every reduced zeta^t, t = 0..n-1, with
               multiplicity e, compared coefficient by coefficient;
* uqsl2_closed the closed product formula m_j m_k / (m_i m_l), each with
               multiplicity ell, evaluated in numpy and compared as a
               multiset with the output evaluated at two torus points
               (symbolic) or under two embeddings of Q(zeta_ell) (exact);
* uqg_closed   the closed formula y_a y_d / (y_b y_c) for A2, clustered by
               sort and sweep at the document tolerance;
* brute        the program's plain quadruple-loop `oracle.brute_force_spectrum`
               (module size <= 6) plus total degree = `modcat.dimension_identity`;
* degree       total degree = `modcat.dimension_identity` only.

A split eigenvalue (two output entries for one reference cluster) fails.
"""

from __future__ import annotations

import cmath
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

MATCH_TOL = 1e-7


# -- exact cyclotomic arithmetic over the integers ----------------------------------

def cyclotomic_poly(n, _cache={}):
    """Integer coefficients of Phi_n, low degree first."""
    if n not in _cache:
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                num = _exact_div(num, cyclotomic_poly(d))
        _cache[n] = num
    return _cache[n]


def _exact_div(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]  # b is monic
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact division")
    return q


def zeta_power(n, t):
    """Coefficients of zeta_n^t in the power basis modulo Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    v = [0] * (t % n) + [1]
    for i in range(len(v) - 1, deg - 1, -1):
        c = v[i]
        if c:
            for j in range(deg + 1):
                v[i - deg + j] -= c * phi[j]
    v = v[:deg]
    return tuple(v + [0] * (deg - len(v)))


# -- evaluation of JSON eigenvalue payloads --------------------------------------------

def eval_payload(v, lam=(), g=1):
    """Complex value of one JSON eigenvalue under zeta_k -> exp(2 pi i g / k)
    and the torus point lam."""
    kind = v["kind"]
    if kind == "cyclotomic":
        z = cmath.exp(2j * cmath.pi * g / v["order"])
        return sum(float(Fraction(c)) * z**k for k, c in enumerate(v["coeffs"]))
    if kind == "rational":
        return complex(float(Fraction(v["value"])))
    if kind == "numeric":
        return complex(v["re"], v["im"])
    if kind == "factored":
        order = v["constant"]["order"]
        z = cmath.exp(2j * cmath.pi * g / order)
        val = sum(float(Fraction(c)) * z**k for k, c in enumerate(v["constant"]["coeffs"]))
        for x, e in zip(lam, v["monomial"]):
            val *= x**e
        for f in v["factors"]:
            la = 1
            for x, e in zip(lam, f["root"]):
                la *= x**e
            a = f["class"]
            val *= (la * z**a - z**-a) ** f["power"]
        return val
    raise ValueError(f"no evaluation for kind {kind!r}")


def literal_value(text, order):
    """Complex value of a scalar literal without torus variables, as the
    program prints them ("-1/2 + 3*z^2 - z"), at zeta = exp(2 pi i / order)."""
    if not set(text) <= set("0123456789z+-*/^() "):
        raise ValueError(f"unexpected literal {text!r}")
    zeta = cmath.exp(2j * cmath.pi / order)
    return complex(eval(text.replace("^", "**"), {"__builtins__": {}}, {"z": zeta}))


def cluster(values, weights, tol):
    """Sort-and-sweep clustering of complex values: neighbours closer than tol
    in the real part, then in the imaginary part, join one cluster."""
    values = np.asarray(values, dtype=complex)
    weights = np.asarray(weights, dtype=np.int64)
    order = np.argsort(values.real, kind="stable")
    values, weights = values[order], weights[order]
    group = np.cumsum(np.concatenate([[True], np.diff(values.real) > tol]))
    order = np.lexsort((values.imag, group))
    values, weights, group = values[order], weights[order], group[order]
    new = np.concatenate([[True], (np.diff(group) != 0) | (np.diff(values.imag) > tol)])
    ids = np.cumsum(new) - 1
    return values[new], np.bincount(ids, weights=weights).astype(np.int64)


def match(ref_v, ref_m, out_v, out_m, tol=MATCH_TOL):
    """None when the two multisets agree within a relative tolerance."""
    if len(ref_v) != len(out_v):
        return f"{len(out_v)} distinct eigenvalues, reference has {len(ref_v)}"
    out_v = np.asarray(out_v, dtype=complex)
    order = np.argsort(out_v.real)
    ov, om = out_v[order], np.asarray(out_m)[order]
    used = np.zeros(len(ov), dtype=bool)
    for r, m in zip(ref_v, ref_m):
        eps = tol * max(1.0, abs(r))
        lo = np.searchsorted(ov.real, r.real - eps, "left")
        hi = np.searchsorted(ov.real, r.real + eps, "right")
        hits = [i for i in range(lo, hi) if not used[i] and abs(ov[i] - r) <= eps]
        if len(hits) != 1:
            return f"{len(hits)} output eigenvalues within {eps:.1e} of {r:.6g}"
        used[hits[0]] = True
        if om[hits[0]] != m:
            return f"multiplicity {om[hits[0]]} at {r:.6g}, reference {m}"
    return None


def _entries(out):
    return [(e["value"], e["multiplicity"]) for e in out["eigenvalues"]]


# -- the checks ---------------------------------------------------------------------------

def check_roots(out, n, mult):
    want = {zeta_power(n, t) for t in range(n)}
    got = {}
    for v, m in _entries(out):
        if v["kind"] != "cyclotomic" or v["order"] != n:
            return f"eigenvalue of kind {v['kind']} order {v.get('order')}"
        coeffs = tuple(Fraction(c) for c in v["coeffs"])
        if coeffs in got:
            return f"eigenvalue {v['str']} listed twice"
        got[coeffs] = m
    if set(got) != want:
        return f"eigenvalues are not exactly the {n}-th roots of unity"
    if set(got.values()) != {mult}:
        return f"multiplicities {sorted(set(got.values()))}, expected {mult}"
    return None


def _uqsl2_reference(ell, s, lam, g):
    z = cmath.exp(2j * cmath.pi * g / ell)
    j = np.arange(ell)
    m = lam * z ** (s * j) - z ** (-s * j)
    vals = (np.multiply.outer(m, m).ravel()[:, None] / np.multiply.outer(m, m).ravel()[None, :])
    return cluster(vals.ravel(), np.full(vals.size, ell), 1e-9)


def check_uqsl2_closed(out, ell, s, lam, points=None, embeddings=None):
    entries = _entries(out)
    if out["total_degree"] != ell**5:
        return f"total degree {out['total_degree']}, expected {ell ** 5}"
    if lam == "symbolic":
        cases = [(complex(*p), 1) for p in points]
    else:
        cases = [(lam[0] / lam[1], g) for g in embeddings]
    for x, g in cases:
        ref_v, ref_m = _uqsl2_reference(ell, s, x, g)
        point = (x,) if lam == "symbolic" else ()
        got = [eval_payload(v, point, g) for v, _ in entries]
        cause = match(ref_v, ref_m, got, [m for _, m in entries])
        if cause:
            return f"at Lambda={x:.6g}, embedding {g}: {cause}"
    return None


A2_CARTAN = np.array([[2, -1], [-1, 2]])
A2_ROOTS = [(1, 0), (0, 1), (1, 1)]


def check_uqg_closed(out, ell, s, lam, tol):
    lam = [complex(*c) for c in lam]
    q = cmath.exp(2j * cmath.pi * s / ell)
    chars = np.array(list(itertools.product(range(ell), repeat=2)))
    y = np.ones(len(chars), dtype=complex)
    for alpha in A2_ROOTS:
        la = lam[0] ** alpha[0] * lam[1] ** alpha[1]
        p = (chars @ (A2_CARTAN @ np.array(alpha))) % ell
        y *= la * q**p - q ** (-p.astype(float))
    pairs = np.multiply.outer(y, y).ravel()
    vals = np.multiply.outer(pairs, 1 / pairs).ravel()
    mult = ell ** (8 - 2 * 2)
    ref_v, ref_m = cluster(vals, np.full(vals.size, mult), tol)
    entries = _entries(out)
    if out["total_degree"] != mult * vals.size:
        return f"total degree {out['total_degree']}, expected {mult * vals.size}"
    return match(ref_v, ref_m, [eval_payload(v) for v, _ in entries], [m for _, m in entries])


def _load_ref(path, root):
    from antipode_spectrum import specfile

    return specfile.loads((root / path).read_text())


def check_degree(out, ref, root):
    from antipode_spectrum.modcat import dimension_identity

    doc = _load_ref(ref, root)
    want = dimension_identity(doc.fusion, doc.module)
    if out["total_degree"] != want:
        return f"total degree {out['total_degree']}, dimension identity gives {want}"
    return None


def check_brute(out, ref, signed, root):
    from antipode_spectrum.oracle import brute_force_spectrum
    from antipode_spectrum.scalar import numeric_value

    cause = None if signed else check_degree(out, ref, root)
    if cause:
        return cause
    doc = _load_ref(ref, root)
    brute = brute_force_spectrum(doc.fusion, doc.module, doc.m, doc.tolerance)
    pairs = [(numeric_value(v), m) for v, m in brute.entries]
    entries = _entries(out)
    if not signed:
        return match([v for v, _ in pairs], [m for _, m in pairs],
                     [eval_payload(v) for v, _ in entries], [m for _, m in entries])
    # pivotalized route: (sign(lambda), lambda^2) of the matched spectrum
    if any(v["kind"] != "signed" for v, _ in entries):
        return "pivotalized output has unsigned eigenvalues"
    for sign in (1, -1):
        ref = [(v * v, m) for v, m in pairs if (v.real > 0) == (sign > 0)]
        got = [(eval_payload(v["squared"]), m) for v, m in entries if v["sign"] == sign]
        cause = match([v for v, _ in ref], [m for _, m in ref],
                      [v for v, _ in got], [m for _, m in got])
        if cause:
            return f"sign {sign:+d}: {cause}"
    return None


def check_text(text, check, root):
    lines = text.splitlines()
    kind = check["kind"]
    if kind == "verify_pass":
        ok = [ln for ln in lines if ln.startswith("verification of") and ln.endswith(": PASS")]
        return None if len(ok) == 2 else "verification did not pass both reports"
    if kind == "solve_m":
        want = f"dimension character multiplicity: {check['mult']}"
        if not lines or lines[0] != want:
            return f"first line {lines[:1]}, expected {want!r}"
        if check["mult"] > 1:
            basis = [ln for ln in lines if ln.startswith("basis[")]
            return None if len(basis) == check["mult"] else f"{len(basis)} basis vectors printed"
        printed = [ln[4:].split(", ") for ln in lines if ln.startswith("m = ")]
        doc = json.loads((root / check["ref"]).read_text())
        order = doc["scalar_backend"]["order"]
        if len(printed) != 1:
            return "no m-vector printed"
        got = [literal_value(x, order) for x in printed[0]]
        ref = [literal_value(x, order) for x in doc["m_vector"]]
        # select_m scales the unique eigenvector to first entry 1
        if len(got) != len(ref) or any(abs(a - b / ref[0]) > MATCH_TOL for a, b in zip(got, ref)):
            return f"m = {printed[0]}, expected {doc['m_vector']} scaled to first entry 1"
        return None
    if kind == "report_pass":
        return None if lines and lines[0].endswith(": PASS") else "report did not pass"
    if kind == "radical":
        want = f"dim algebra = {check['dim']}, dim radical = {check['radical']}"
        return None if lines == [want] else f"printed {lines}, expected {want!r}"
    raise ValueError(kind)


def check_job(job, code, text, root: Path):
    """None, or the cause of the failure."""
    if code != job["exit"]:
        return f"exit code {code}, expected {job['exit']}"
    check = job["check"]
    if check is None:
        return None
    kind = check["kind"]
    if kind in ("verify_pass", "solve_m", "report_pass", "radical"):
        return check_text(text, check, root)
    try:
        out = json.loads(text)
    except json.JSONDecodeError as e:
        return f"stdout is not JSON: {e}"
    if kind == "roots":
        return check_roots(out, check["n"], check["mult"])
    if kind == "uqsl2_closed":
        cause = check_uqsl2_closed(out, check["ell"], check["s"], check["lam"],
                                   check.get("points"), check.get("embeddings"))
        if cause is None and "degree_ref" in check:
            cause = check_degree(out, check["degree_ref"], root)
        return cause
    if kind == "uqg_closed":
        return check_uqg_closed(out, check["ell"], check["s"], check["lam"], check["tol"])
    if kind == "brute":
        return check_brute(out, check["ref"], check["signed"], root)
    if kind == "degree":
        return check_degree(out, check["ref"], root)
    raise ValueError(kind)
