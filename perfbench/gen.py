"""Seeded input generator for the benchmark.

Every workload is a fixed list of jobs.  A job is one `antipode-spectrum`
argv, the spec documents it reads, and what a correct run looks like: the
expected exit code and an independent reference check.  The seed changes
values only (the generator exponent s, the torus point, an exact rational
Lambda, the characters kappa, which subgroup of a given order); the number
of jobs, the document sizes and the ring and module sizes never depend on it.

The documents are written here from the mathematical definitions, not by
calling the program, so the inputs stay the same when the program changes.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

TOLERANCE = 1e-9
WORKLOADS = ("large_spectra", "spec_batch")


def units(n):
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _doc(order, category, module, m=None):
    doc = {
        "scalar_backend": {"mode": "cyclotomic", "order": order, "precision": TOLERANCE},
        "category": category,
        "module": module,
    }
    if m is not None:
        doc["m_vector"] = m
    return doc


def _pointed_category(elements, mul, inverse, unit, dims):
    return {
        "labels": list(elements),
        "unit": unit,
        "dual": {g: inverse[g] for g in elements},
        "fusion": [[a, b, mul[(a, b)], 1] for a in elements for b in elements],
        "dims": dims,
    }


# -- Taft: (Rep T_n, Rep Z/n) --------------------------------------------------------

def taft_doc(n, s, with_m):
    labels = [str(a) for a in range(n)]
    cat = _pointed_category(
        labels,
        {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)},
        {str(a): str((-a) % n) for a in range(n)},
        "0",
        {str(a): f"z^{(s * a) % n}" for a in range(n)},
    )
    cat["cartan"] = [[1] * n for _ in range(n)]
    action = {
        str(a): [[int(j == (i - a) % n) for i in range(n)] for j in range(n)]
        for a in range(n)
    }
    m = [f"z^{(s * i) % n}" for i in range(n)]
    return _doc(n, cat, {"labels": labels, "action": action}, m if with_m else None), m


# -- small quantum sl2: Chebyshev fusion ring, weight-space Cartan matrix ------------

def _chebyshev(j):
    prev, cur = [1], [0, 1]
    if j == 1:
        return prev
    for _ in range(j - 2):
        nxt = [0] + cur
        for t, c in enumerate(prev):
            nxt[t] -= c
        prev, cur = cur, nxt
    return cur


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _int_poly_mod(a, q):
    a = list(a)
    while len(a) >= len(q):
        c = a[-1]
        off = len(a) - len(q)
        for t in range(len(q) - 1):
            a[off + t] -= c * q[t]
        a.pop()
    return a


def uqsl2_doc(ell, s, m):
    """Fusion ring Z[x]/(x P_ell - 2 P_{ell-1} - 2) in the basis P_1..P_ell,
    dims the quantum integers [j]_q with q = zeta_ell^s, the Rep Z/ell module
    where X_j shifts by the weights j-1, j-3, .., 1-j."""
    polys = {j: _chebyshev(j) for j in range(1, ell + 1)}
    modulus = [0] + polys[ell]
    for t, c in enumerate(polys[ell - 1]):
        modulus[t] -= 2 * c
    modulus[0] -= 2
    labels = [f"X{j}" for j in range(1, ell + 1)]
    fusion = []
    for j in range(1, ell + 1):
        for k in range(1, ell + 1):
            rem = _int_poly_mod(_int_poly_mul(polys[j], polys[k]), modulus)
            rem += [0] * (ell - len(rem))
            for t in range(ell, 0, -1):
                c = rem[t - 1]
                if c:
                    fusion.append([f"X{j}", f"X{k}", f"X{t}", c])
                    for u, pc in enumerate(polys[t]):
                        rem[u] -= c * pc
    cartan = [[0] * ell for _ in range(ell)]
    for mu in range(ell - 1):
        for nu in range(ell - 1):
            cartan[mu][nu] = 2 * (mu == nu) + 2 * (mu + nu == ell - 2)
    cartan[ell - 1][ell - 1] = 1
    dims = {
        f"X{j}": " + ".join(f"z^{(s * (j - 1 - 2 * t)) % ell}" for t in range(j))
        for j in range(1, ell + 1)
    }
    action = {}
    for j in range(1, ell + 1):
        mat = [[0] * ell for _ in range(ell)]
        for w in range(j - 1, -j, -2):
            for i in range(ell):
                mat[(i + w) % ell][i] += 1
        action[f"X{j}"] = mat
    cat = {"labels": labels, "unit": "X1", "dual": {x: x for x in labels},
           "fusion": sorted(fusion), "cartan": cartan, "dims": dims}
    return _doc(ell, cat, {"labels": [str(t) for t in range(ell)], "action": action}, m)


def uqsl2_m(ell, s, lam):
    """m_j = Lambda q^j - q^-j as literals; lam is 'L' or 'p/q'."""
    return [f"{lam}*z^{(s * j) % ell} - z^{(-s * j) % ell}" for j in range(ell)]


# -- pointed categories Vec_G on coset modules ----------------------------------------

def cyclic_group(n):
    els = [str(a) for a in range(n)]
    mul = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return els, mul, "0"


_S3 = {"e": (0, 1, 2), "r": (1, 2, 0), "r2": (2, 0, 1),
       "s": (1, 0, 2), "sr": (0, 2, 1), "sr2": (2, 1, 0)}
S3_SIGN = {"e": 0, "r": 0, "r2": 0, "s": 1, "sr": 1, "sr2": 1}


def s3_group():
    names = {v: k for k, v in _S3.items()}
    els = list(_S3)
    mul = {(a, b): names[tuple(_S3[a][_S3[b][i]] for i in range(3))] for a in els for b in els}
    return els, mul, "e"


def vecg_doc(group, order, kappa_lits, subgroup):
    """Vec_G with dims kappa acting on the left cosets G/H, each coset
    labelled by its first representative in element order."""
    els, mul, unit = group
    inverse = {a: next(b for b in els if mul[(a, b)] == unit) for a in els}
    cat = _pointed_category(els, mul, inverse, unit, dict(zip(els, kappa_lits)))
    coset_of, reps = {}, []
    for g in els:
        if g not in coset_of:
            for h in subgroup:
                coset_of[mul[(g, h)]] = g
            reps.append(g)
    index = {r: i for i, r in enumerate(reps)}
    action = {}
    for g in els:
        mat = [[0] * len(reps) for _ in reps]
        for i, r in enumerate(reps):
            mat[index[coset_of[mul[(g, r)]]]][i] = 1
        action[g] = mat
    return _doc(order, cat, {"labels": [f"{r}H" for r in reps], "action": action}), reps


def fibonacci_doc(yang_lee):
    """Fibonacci fusion over Q(zeta_5) with its regular module; dims
    phi = -z^2 - z^3 or its Galois conjugate 1 - phi = 1 + z^2 + z^3."""
    labels = ["1", "t"]
    fusion = [["1", "1", "1", 1], ["1", "t", "t", 1], ["t", "1", "t", 1],
              ["t", "t", "1", 1], ["t", "t", "t", 1]]
    d = "1 + z^2 + z^3" if yang_lee else "-z^2 - z^3"
    cat = {"labels": labels, "unit": "1", "dual": {"1": "1", "t": "t"},
           "fusion": fusion, "dims": {"1": "1", "t": d}}
    # left multiplication (L_r)_{st} = c_{rt}^s
    action = {"1": [[1, 0], [0, 1]], "t": [[0, 1], [1, 1]]}
    return _doc(5, cat, {"labels": labels, "action": action}, ["1", d])


# -- workloads ----------------------------------------------------------------------

class _Writer:
    def __init__(self, workdir: Path, root: Path):
        self.workdir = workdir
        self.root = root
        self.jobs = []

    def doc(self, name, doc):
        path = self.workdir / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return str(path.relative_to(self.root))

    def job(self, jid, argv, check, exit_code=0):
        self.jobs.append({"id": jid, "argv": list(argv), "exit": exit_code, "check": check})


def _torus_point(rng, ell, roots):
    """A complex point with every Lambda_alpha well away from the ell-th
    roots of unity and from the unit circle."""
    while True:
        coords = []
        for _ in range(max(len(r) for r in roots)):
            r = rng.choice((rng.uniform(0.55, 0.8), rng.uniform(1.25, 1.8)))
            z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
            coords.append(complex(float(f"{z.real:.6f}"), float(f"{z.imag:.6f}")))
        ok = True
        for alpha in roots:
            la = 1
            for x, e in zip(coords, alpha):
                la *= x**e
            if abs(abs(la) - 1) < 0.2 or abs(la**ell - 1) < 0.2:
                ok = False
        if ok:
            return coords


def _lambda_arg(coords):
    return ",".join(f"{z.real:.6f}{z.imag:+.6f}j" for z in coords)


def _exact_cyclotomic(w: _Writer, rng):
    """The cyclotomic backend end to end; Taft documents lack m_vector, so
    the CLI solves the dimension eigenspace."""
    n = 9
    doc, _ = taft_doc(n, rng.choice(units(n)), with_m=False)
    path = w.doc(f"taft{n}.json", doc)
    w.job(f"charpoly-taft{n}", ["charpoly", path, "--json"],
          {"kind": "roots", "n": n, "mult": n**3})
    ell = 7
    s = rng.choice(units(ell))
    p, q = rng.choice([(p, q) for p in range(5, 10) for q in range(5, 10)
                       if p != q and math.gcd(p, q) == 1])
    path = w.doc("uqsl2-7-exact.json", uqsl2_doc(ell, s, uqsl2_m(ell, s, f"{p}/{q}")))
    w.job("charpoly-uqsl2-7-exact", ["charpoly", path, "--json"],
          {"kind": "uqsl2_closed", "ell": ell, "s": s, "lam": [p, q],
           "embeddings": [1, rng.choice(units(ell)[1:])]})


def _symbolic_uqsl2(w: _Writer, rng):
    ell = 9
    s = rng.choice(units(ell))
    points = [_torus_point(rng, ell, [(1,)])[0] for _ in range(2)]
    w.job(f"family-uqsl2-{ell}",
          ["family", "uqsl2", "--ell", str(ell), "--s", str(s), "--lambda", "symbolic",
           "--charpoly", "--json"],
          {"kind": "uqsl2_closed", "ell": ell, "s": s, "lam": "symbolic",
           "points": [[z.real, z.imag] for z in points]})


A2_ROOTS = [(1, 0), (0, 1), (1, 1)]


def _numeric_uqg(w: _Writer, rng):
    ell = 5
    s = rng.choice(units(ell))
    arg = _lambda_arg(_torus_point(rng, ell, A2_ROOTS))
    w.job("family-uqg-A2-5",
          ["family", "uqg", "--type", "A2", "--ell", str(ell), "--s", str(s),
           f"--lambda={arg}", "--charpoly", "--json"],
          {"kind": "uqg_closed", "ell": ell, "s": s,
           "lam": [[complex(x).real, complex(x).imag] for x in arg.split(",")],
           "tol": TOLERANCE})


def large_spectra(w: _Writer, rng):
    """Few expensive jobs, one per hot path: exact cyclotomic (Taft n=9;
    u_q(sl2) ell=7 at an exact rational Lambda), symbolic (u_q(sl2) ell=9)
    and numeric (u_q(A2) ell=5 at a complex torus point).  Each takes under
    two seconds, so a run holds many samples of every job."""
    _exact_cyclotomic(w, rng)
    _symbolic_uqsl2(w, rng)
    _numeric_uqg(w, rng)


# (n, index of the subgroup H = <index> in Z/n); module size is the index
_VEC_MATCHED = [(2, 2), (3, 3), (4, 2), (5, 5), (6, 3), (7, 7), (8, 4)]
_VEC_REAL = [(2, 2), (4, 2), (6, 2), (8, 4)]
_VEC_UNMATCHED = [(4, 2), (6, 3), (8, 4), (6, 2)]
BRUTE_MAX_SIZE = 6


def _vec_cyclic(w, name, n, idx, t):
    """Vec_{Z/n}, kappa(a) = zeta_n^(t a), on Z/n / <idx>.  Matched exactly
    when kappa is trivial on <idx>; then m_{gH} = kappa(g)^-1."""
    subgroup = [str(a) for a in range(0, n, idx)]
    doc, reps = vecg_doc(cyclic_group(n), n, [f"z^{(t * a) % n}" for a in range(n)], subgroup)
    path = w.doc(f"{name}.json", doc)
    ref = None
    if (t * idx) % n == 0:
        doc["m_vector"] = [f"z^{(-t * int(r)) % n}" for r in reps]
        ref = w.doc(f"{name}.ref.json", doc)
    return path, ref, len(reps)


def _spectrum_check(ref, size, signed=False):
    if size <= BRUTE_MAX_SIZE:
        return {"kind": "brute", "ref": ref, "signed": signed}
    return {"kind": "degree", "ref": ref}


def _one_orbit(ts, n):
    """The t in ts for which kappa = z^t has the largest order.  They form one
    Galois orbit, so whichever the seed picks, the spectrum has the same shape
    and the job the same cost (kappa trivial or not changes the cost by half)."""
    g = min(math.gcd(t, n) for t in ts)
    return [t for t in ts if math.gcd(t, n) == g]


def spec_batch(w: _Writer, rng):
    verify_ok = {"kind": "verify_pass"}
    for n, idx in _VEC_MATCHED:
        allowed = _one_orbit([t for t in range(n) if (t * idx) % n == 0], n)
        path, ref, size = _vec_cyclic(w, f"vec-z{n}-i{idx}", n, idx, rng.choice(allowed))
        w.job(f"verify-vec-z{n}-i{idx}", ["verify", path], verify_ok)
        w.job(f"solve-m-vec-z{n}-i{idx}", ["solve-m", path], {"kind": "solve_m", "mult": 1, "ref": ref})
        w.job(f"charpoly-vec-z{n}-i{idx}", ["charpoly", path, "--json"], _spectrum_check(ref, size))
    for n, idx in _VEC_REAL:
        real = _one_orbit([t for t in range(n) if (t * idx) % n == 0 and (2 * t) % n == 0], n)
        path, ref, size = _vec_cyclic(w, f"vec-real-z{n}-i{idx}", n, idx, rng.choice(real))
        w.job(f"pivotalize-vec-z{n}-i{idx}", ["pivotalize", path, "--json"],
              _spectrum_check(ref, size, signed=True))
    for n, idx in _VEC_UNMATCHED:
        bad = _one_orbit([t for t in range(n) if (t * idx) % n], n)
        path, _, _ = _vec_cyclic(w, f"vec-unmatched-z{n}-i{idx}", n, idx, rng.choice(bad))
        w.job(f"verify-unmatched-z{n}-i{idx}", ["verify", path], verify_ok)
        w.job(f"charpoly-unmatched-z{n}-i{idx}", ["charpoly", path, "--json"], None, 1)
        w.job(f"solve-m-unmatched-z{n}-i{idx}", ["solve-m", path], None, 1)
    # the built-in family route for Vec_G, matched and unmatched
    n, idx = 6, 2
    for name, ts in (("matched", [3]), ("unmatched", [1, 5])):
        t = rng.choice(ts)
        kappa = ",".join(f"z^{(t * a) % n}" for a in range(n))
        sub = ",".join(str(a) for a in range(0, n, idx))
        argv = ["family", "vecg", "--group", f"z{n}", "--kappa", kappa, "--subgroup", sub,
                "--order", str(n), "--charpoly", "--json"]
        if name == "matched":
            _, ref, size = _vec_cyclic(w, f"family-vec-z{n}", n, idx, t)
            w.job(f"family-vecg-{name}", argv, _spectrum_check(ref, size))
        else:
            w.job(f"family-vecg-{name}", argv, None, 1)

    s3 = s3_group()
    order2 = [["e", "s"], ["e", "sr"], ["e", "sr2"]]
    trivial = ["1"] * 6
    sign = ["-1" if S3_SIGN[g] else "1" for g in s3[0]]
    s3_docs = [
        ("s3-h2-trivial", trivial, rng.choice(order2), ["verify", "solve-m", "charpoly", "pivotalize"]),
        ("s3-h2-sign", sign, rng.choice(order2), None),
        ("s3-a3-sign", sign, ["e", "r", "r2"], ["verify", "charpoly", "pivotalize"]),
        ("s3-e", sign, ["e"], ["verify", "solve-m", "charpoly", "pivotalize"]),
    ]
    for name, kappa, sub, cmds in s3_docs:
        doc, reps = vecg_doc(s3, 1, kappa, sub)
        path = w.doc(f"{name}.json", doc)
        if cmds is None:  # sign is nontrivial on an order-2 subgroup: unmatched
            w.job(f"verify-{name}", ["verify", path], verify_ok)
            w.job(f"charpoly-{name}", ["charpoly", path, "--json"], None, 1)
            continue
        kap = dict(zip(s3[0], kappa))
        doc["m_vector"] = [kap[r] for r in reps]  # kappa = +-1 is its own inverse
        ref = w.doc(f"{name}.ref.json", doc)
        for cmd in cmds:
            if cmd == "verify":
                w.job(f"verify-{name}", ["verify", path], verify_ok)
            elif cmd == "solve-m":
                w.job(f"solve-m-{name}", ["solve-m", path],
                      {"kind": "solve_m", "mult": 1, "ref": ref})
            else:
                w.job(f"{cmd}-{name}", [cmd, path, "--json"],
                      _spectrum_check(ref, len(reps), signed=cmd == "pivotalize"))

    doc = fibonacci_doc(rng.random() < 0.5)
    ref = w.doc("fib.ref.json", doc)
    del doc["m_vector"]
    path = w.doc("fib.json", doc)
    w.job("verify-fib", ["verify", path, "--strict-duality"], verify_ok)
    w.job("solve-m-fib", ["solve-m", path], {"kind": "solve_m", "mult": 1, "ref": ref})
    w.job("charpoly-fib", ["charpoly", path, "--json"], _spectrum_check(ref, 2))
    w.job("pivotalize-fib", ["pivotalize", path, "--json"], _spectrum_check(ref, 2, signed=True))
    w.job("family-regular-fib", ["family", "regular", "--spec", path, "--charpoly", "--json"],
          _spectrum_check(ref, 2))

    for n in (2, 3, 4, 5):
        doc, _ = taft_doc(n, rng.choice(units(n)), with_m=True)
        ref = w.doc(f"taft{n}.ref.json", doc)
        del doc["m_vector"]
        path = w.doc(f"taft{n}.json", doc)
        w.job(f"verify-taft{n}", ["verify", path, "--strict-duality"], verify_ok)
        w.job(f"solve-m-taft{n}", ["solve-m", path], {"kind": "solve_m", "mult": 1, "ref": ref})
        w.job(f"charpoly-taft{n}", ["charpoly", path, "--json"], _spectrum_check(ref, n))

    for ell in (3, 5):
        s = rng.choice(units(ell))
        doc = uqsl2_doc(ell, s, uqsl2_m(ell, s, "L"))
        path = w.doc(f"uqsl2-{ell}.json", doc)
        points = [_torus_point(rng, ell, [(1,)])[0] for _ in range(2)]
        w.job(f"verify-uqsl2-{ell}", ["verify", path], verify_ok)
        w.job(f"solve-m-uqsl2-{ell}", ["solve-m", path], {"kind": "solve_m", "mult": 2})
        w.job(f"charpoly-uqsl2-{ell}", ["charpoly", path, "--json"],
              {"kind": "uqsl2_closed", "ell": ell, "s": s, "lam": "symbolic",
               "points": [[z.real, z.imag] for z in points], "degree_ref": path})

    for n in (3, 4):
        w.job(f"oracle-s2-taft{n}",
              ["oracle", "s2", "--n", str(n), "--s", str(rng.choice(units(n))), "--json"],
              {"kind": "roots", "n": n, "mult": n})
    w.job("oracle-cartan-taft3",
          ["oracle", "cartan", "--family", "taft", "--n", "3", "--s", str(rng.choice(units(3)))],
          {"kind": "report_pass"})
    w.job("oracle-radical-uqsl2-3",
          ["oracle", "radical", "--family", "uqsl2", "--ell", "3", "--s", str(rng.choice(units(3)))],
          {"kind": "radical", "dim": 27, "radical": 27 - sum(d * d for d in range(1, 4))})


def generate(workload: str, seed: int, workdir: Path, root: Path):
    """Write the documents for one workload into workdir; return its jobs."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    w = _Writer(workdir, root)
    {"large_spectra": large_spectra, "spec_batch": spec_batch}[workload](w, rng)
    return w.jobs

