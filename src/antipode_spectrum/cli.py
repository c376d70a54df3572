"""Command line interface.

Subcommands: verify, solve-m, charpoly, pivotalize, family, oracle.
Exit codes: 0 success, 1 verification/matching failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import families, oracle, specfile
from .cyclotomic import CycNum
from .errors import BadParameters, DataError, InputError, ParseError, VerificationFailed
from .pivotalization import char_poly_pivotalized, from_matched_pivotal
from .scalar import (_round_digits, count_torus_vars, from_literal, literal_to_cycnum, to_json,
                     to_text)
from .spectrum import SpectrumFactorization, char_poly_s2, dimension_eigenspace, select_m
from .symbolic import FactoredValue


# -- output helpers ------------------------------------------------------------------

# entries rendered per write() call; a numeric chunk is about 1.2 MB of text,
# gathered from an 8192 x 187 uint8 matrix and a bool mask of the same shape
# (1.5 MB each; see _numeric_chunk_text).  io.StringIO keeps each written
# string until getvalue() joins them, and the copies made after that must fit
# among the freed pieces.  With this size, and the separator written on its
# own rather than copied onto each chunk, perfbench's client (many jobs in
# one process) peaks at the same RSS from run to run; 4096 entries let it
# swing by about 11 MB.
JSON_CHUNK = 8192


def _float_text(x) -> str:
    """A float as the json module writes it."""
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _list_text(texts, pad: str) -> str:
    """A JSON list of already rendered items, when it starts on a line
    indented by pad."""
    if not texts:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}]"


def _json_text(obj, pad: str) -> str:
    """obj as the json module writes it with indent=2 and sort_keys=True, when
    obj starts on a line indented by pad."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json_text(obj[k], inner)}"
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        return _list_text([_json_text(x, inner) for x in obj], pad)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _coeff_texts(c: CycNum) -> list:
    """The "coeffs" items of to_json(c): each coefficient in lowest terms, as
    str(Fraction) writes it, from the one gcd per coefficient of sort_key."""
    return [f'"{p}"' if q == 1 else f'"{p}/{q}"' for p, q in c.sort_key()]


# The direct writers below write to_json(v) of a CycNum or a FactoredValue as
# _json_text does at the indent of an eigenvalue's "value", without building
# the payload's dicts.

def _cyclotomic_text(v: CycNum) -> str:
    a = v.complex_value()
    return (f'{{\n        "approx": [\n          {_float_text(a.real)},\n'
            f'          {_float_text(a.imag)}\n        ],\n'
            f'        "coeffs": {_list_text(_coeff_texts(v), "        ")},\n'
            f'        "kind": "cyclotomic",\n        "order": {v.field.order},\n'
            f'        "str": {encode_basestring_ascii(str(v))}\n      }}')


def _factored_text(v: FactoredValue, blocks: dict) -> str:
    """blocks caches the "constant" block and each factor's block by value
    over one print call: nearly every symbolic constant is 1, and the same
    atom powers recur from entry to entry."""
    c = v.constant
    key = (v.ctx.ell, c.num, c.den)
    const = blocks.get(key)
    if const is None:
        const = blocks[key] = (
            f'{{\n          "coeffs": {_list_text(_coeff_texts(c), "          ")},\n'
            f'          "order": {v.ctx.ell}\n        }}')
    items = sorted(v.factors.items())
    factors = []
    for item in items:
        block = blocks.get(item)
        if block is None:
            (coords, a), p = item
            block = blocks[item] = (
                f'{{\n            "class": {a},\n            "power": {p},\n'
                f'            "root": {_list_text([str(x) for x in coords], "            ")}'
                f'\n          }}')
        factors.append(block)
    return (f'{{\n        "constant": {const},\n'
            f'        "factors": {_list_text(factors, "        ")},\n'
            f'        "kind": "factored",\n'
            f'        "monomial": {_list_text([str(e) for e in v.monomial], "        ")},\n'
            f'        "str": {encode_basestring_ascii(v.text(items))}\n      }}')


def _entry_text(v, m, blocks: dict) -> str:
    """One item of the "eigenvalues" list, indented as the list's members."""
    kind = type(v)
    if kind is FactoredValue:
        value = _factored_text(v, blocks)
    elif kind is CycNum:
        value = _cyclotomic_text(v)
    else:
        value = _json_text(to_json(v), "      ")
    return f'    {{\n      "multiplicity": {int.__repr__(m)},\n      "value": {value}\n    }}'


# the text of a numeric entry with NUL fields for its multiplicity (room for
# the largest int64), imaginary part and real part (room for the longest repr
# of a double, "-2.2250738585072014e-308", or for a sign, 6 integer digits,
# "." and 12 fraction digits); the row ends with the separator to the next entry
_NUMERIC_TEXT = ('    {\n      "multiplicity": ' + "\0" * 19
                 + ',\n      "value": {\n        "im": ' + "\0" * 24
                 + ',\n        "kind": "numeric",\n        "re": ' + "\0" * 24
                 + '\n      }\n    },\n')
_NUMERIC_ROW = np.frombuffer(_NUMERIC_TEXT.encode(), np.uint8)
_NUMERIC_FIELDS = [slice(*m.span()) for m in re.finditer("\0+", _NUMERIC_TEXT)]
_POWERS_OF_TEN = np.array([10**k for k in range(1, 19)], dtype=np.int64)


@functools.cache
def _tables():
    """The ASCII texts "000" to "999" as 3-byte items; the masks whose row c
    keeps the last c bytes of a multiplicity field and whose row (i, f)
    keeps i integer digits, the point and f fraction digits of a float
    field.  Built on first use, as the numpy loops that build them page in
    about 0.5 MB that a process printing no numeric spectrum never needs."""
    groups = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    return (groups.astype(np.uint8).view("S3").ravel(),
            np.arange(19) >= 19 - np.arange(20)[:, None],
            (np.arange(24) >= 7 - np.arange(7)[:, None, None])
            & (np.arange(24) < 8 + np.arange(13)[:, None]))


def _digit_counts(n):
    """The number of decimal digits of each nonnegative int64 in n."""
    return 1 + np.searchsorted(_POWERS_OF_TEN, n, side="right")


def _digit_rows(n, groups):
    """The nonnegative int64 array n in decimal, zero padded to 3 * groups
    ASCII digits a row."""
    index = np.empty((groups, len(n)), np.int64)
    for i in range(groups - 1, 0, -1):
        q = n // 1000  # faster than np.divmod
        index[i], n = n - 1000 * q, q
    index[0] = n
    return _tables()[0].take(index.T).view(np.uint8).reshape(len(n), -1)


def _write_floats(x, digits, text, keep):
    """The JSON text of each float of x in its field of text; keep marks it.
    Where x = n / 10^digits and 10^-4 <= |x| < U = min(10^6, 2^e), e the
    largest with 2^e 10^digits < 2^53, doubles near x lie under 10^-digits
    apart and n < 2^53, so repr(x), the shortest decimal that reads back as
    x, is n 10^-digits in fixed notation with trailing zeros stripped to one
    fraction digit: those values and +-0.0 are written from the digits of n,
    every other value by _float_text."""
    scale = float(10**digits)
    upper = min(1e6, 2.0 ** ((2**53 // 10**digits).bit_length() - 1))
    a = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.rint(a * scale)
        fast = ((n / scale == a) & (a >= 1e-4) & (a < upper)) | (a == 0)
    n = np.where(fast, n, 0).astype(np.int64) * 10 ** (12 - digits)
    d = _digit_rows(n, 6)
    text[:, 0], text[:, 1:7], text[:, 7], text[:, 8:20] = ord("-"), d[:, :6], ord("."), d[:, 6:]
    fraction = np.where(n % 10**12 > 0, 12 - np.argmax(d[:, :5:-1] != ord("0"), axis=1), 1)
    keep[:] = _tables()[2][_digit_counts(n // 10**12), fraction]
    keep[:, 0] = np.signbit(x)
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = [_float_text(v) for v in x[slow].tolist()]
        text[slow] = np.array(texts, f"S{text.shape[1]}").view(np.uint8).reshape(len(slow), -1)
        keep[slow] = text[slow] != 0


def _numeric_chunk_text(values, mults, digits) -> str:
    """The entries of the arrays values (complex) and mults (int64) as
    _entry_text writes them, joined by ",\n": one uint8 row per entry from
    the template, its fields written by column, and one gather of the kept
    bytes.  digits are the rounding digits of the spectrum's tolerance."""
    text = np.tile(_NUMERIC_ROW, (len(values), 1))
    keep = text != 0
    field, counts = _NUMERIC_FIELDS[0], _digit_counts(mults)
    rows = _digit_rows(mults, -(-counts.max() // 3))[:, -19:]
    text[:, field.stop - rows.shape[1]:field.stop] = rows
    keep[:, field] = _tables()[1][counts]
    for column, field in zip((values.imag, values.real), _NUMERIC_FIELDS[1:]):
        _write_floats(column, digits, text[:, field], keep[:, field])
    keep[-1, -2:] = False  # no separator after the last entry
    text = text[keep]  # the matrix is freed before the text is decoded
    return str(text, "ascii")


def print_spectrum(spec: SpectrumFactorization, as_json: bool, out=None):
    """Write spec as text, or as the JSON object {"backend", "eigenvalues",
    "total_degree"} laid out byte for byte as the json module writes it with
    indent=2 and sort_keys=True, plus a newline.  The JSON is rendered and
    written JSON_CHUNK entries at a time, without building the document; an
    array-backed spectrum is rendered straight from its arrays."""
    out = out or sys.stdout
    if as_json:
        out.write(f'{{\n  "backend": {_json_text(spec.backend, "  ")},\n  "eigenvalues": ')
        blocks = {}
        digits = _round_digits(spec.tol)
        sep = "[\n"
        for start in range(0, len(spec), JSON_CHUNK):
            chunk = slice(start, start + JSON_CHUNK)
            if spec.values is not None:
                text = _numeric_chunk_text(spec.values[chunk], spec.mults[chunk], digits)
            else:
                text = ",\n".join([_entry_text(v, m, blocks)
                                   for v, m in spec.entries[chunk]])
            out.write(sep)
            out.write(text)
            sep = ",\n"
        out.write("\n  ]" if len(spec) else "[]")
        out.write(f',\n  "total_degree": {_json_text(spec.total_degree, "  ")}\n}}\n')
        return
    rp = spec.uniform_root_power()
    out.write(f"total degree {spec.total_degree}, {len(spec)} distinct eigenvalue(s)\n")
    if rp:
        out.write(f"chi(z) = (z^{rp[0]} - 1)^{rp[1]}\n")
    for v, m in spec.entries:
        out.write(f"multiplicity {m}: {to_text(v)}\n")


def _trace_vector(doc: specfile.SpecDocument, override_m=None):
    """The m-vector: --m, else the document's m_vector, else the unique
    dimension eigenvector."""
    eigenspace = None
    m = override_m if override_m is not None else doc.m
    if m is None:
        eigenspace = dimension_eigenspace(doc.fusion, doc.module, doc.tolerance)
    return select_m(doc.fusion, doc.module, eigenspace, candidate=m, tol=doc.tolerance)


def _verify_doc(doc, strict):
    from .grothendieck import verify_fusion
    from .modcat import verify_module

    rf = verify_fusion(doc.fusion, strict_duality=strict)
    rm = verify_module(doc.fusion, doc.module)
    return rf, rm


# -- subcommand handlers --------------------------------------------------------------

def _load(args):
    doc = specfile.load(args.spec)
    if getattr(args, "tolerance", None) is not None:
        doc.tolerance = args.tolerance
    return doc


def _load_verified(args):
    """The spec document, once its fusion and module data pass verification."""
    doc = _load(args)
    rf, rm = _verify_doc(doc, False)
    if not (rf.ok and rm.ok):
        raise VerificationFailed(f"{rf}\n{rm}")
    return doc


def cmd_verify(args):
    doc = _load(args)
    rf, rm = _verify_doc(doc, args.strict_duality)
    print(rf)
    print(rm)
    return 0 if (rf.ok and rm.ok) else 1


def cmd_solve_m(args):
    doc = _load(args)
    basis, mult = dimension_eigenspace(doc.fusion, doc.module, doc.tolerance)
    print(f"dimension character multiplicity: {mult}")
    if mult == 1:
        m = select_m(doc.fusion, doc.module, (basis, mult), tol=doc.tolerance)
        print("m =", ", ".join(str(x) for x in m))
    else:
        for i, v in enumerate(basis):
            print(f"basis[{i}] =", ", ".join(str(x) for x in v))
        print("supply --m to charpoly to pick a vector in this eigenspace")
    return 0


def _parse_m_option(text, doc):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != doc.module.size:
        raise ParseError(
            f"--m needs {doc.module.size} comma-separated literals, got {len(parts)}"
        )
    nvars = max((count_torus_vars(p) for p in parts), default=0)
    return [from_literal(p, doc.mode, doc.order, nvars) for p in parts]


def cmd_charpoly(args):
    doc = _load_verified(args)
    override = _parse_m_option(args.m, doc) if args.m else None
    spec = char_poly_s2(doc.fusion, doc.module, _trace_vector(doc, override), doc.tolerance)
    print_spectrum(spec, args.json)
    return 0


def cmd_pivotalize(args):
    doc = _load_verified(args)
    if doc.pivotalization is not None:
        spec = char_poly_pivotalized(doc.pivotalization, doc.tolerance)
    else:
        piv = from_matched_pivotal(doc.fusion, doc.module, _trace_vector(doc), tol=doc.tolerance)
        spec = char_poly_pivotalized(piv, doc.tolerance)
    print_spectrum(spec, args.json)
    return 0


def _parse_lambda(text, ell):
    """--lambda as "symbolic" or its list of coordinates; the family checks
    the count."""
    if text is None or text == "symbolic":
        return "symbolic"
    parts = [p.strip() for p in text.split(",")]
    vals = []
    for p in parts:
        if any(c in p for c in ".jeE") and not p.lstrip("+-").startswith("z"):
            try:
                vals.append(complex(p))
                continue
            except ValueError:
                raise ParseError(f"bad numeric lambda coordinate {p!r}")
        vals.append(literal_to_cycnum(p, ell))
    return vals


def _family_data(args):
    if args.kind == "taft":
        f, mod, m = families.taft_family(args.n, args.s)
        return f, mod, m, args.n
    if args.kind == "uqsl2":
        fam = families.uqsl2_family(args.ell, args.s, _parse_lambda(args.lam, args.ell))
        return fam.fusion, fam.module, fam.m, args.ell
    if args.kind == "vecg":
        group = _parse_group(args.group)
        kappa_parts = [p.strip() for p in args.kappa.split(",")]
        if len(kappa_parts) != len(group.elements):
            raise ParseError(
                f"--kappa needs {len(group.elements)} values for {args.group}: {group.elements}"
            )
        kappa = {
            g: literal_to_cycnum(p, args.order)
            for g, p in zip(group.elements, kappa_parts)
        }
        subgroup = [p.strip() for p in args.subgroup.split(",")]
        f, mod, m = families.vecg_family(group, kappa, subgroup)
        return f, mod, m, args.order
    if args.kind == "regular":
        doc = _load_verified(args)
        mod, m = families.regular_module(doc.fusion)
        return doc.fusion, mod, m, doc.order
    raise BadParameters(f"unknown family {args.kind!r}")


def _parse_group(name):
    if name == "s3":
        return families.Group.symmetric3()
    if name.startswith("z"):
        try:
            return families.Group.cyclic(int(name[1:]))
        except ValueError:
            pass
    raise BadParameters(f"unknown group {name!r} (use zN or s3)")


def cmd_family(args):
    if args.kind == "uqg":
        if args.lam is None and families.RootSystemData.preset(args.type).rank >= 2:
            raise BadParameters(
                "rank >= 2 families run numerically by default to bound memory; "
                "pass --lambda with coordinates, or --lambda symbolic explicitly"
            )
        spec = families.uqg_family(args.type, args.ell, args.s, _parse_lambda(args.lam, args.ell))
        print_spectrum(spec, args.json)
        return 0
    f, mod, m, order = _family_data(args)
    if isinstance(m, families.MatchFailure):
        print(f"match failure: {m.reason} (eigenspace multiplicity {m.multiplicity})",
              file=sys.stderr)
        return 1
    if args.charpoly:
        spec = char_poly_s2(f, mod, m)
        print_spectrum(spec, args.json)
        return 0
    print(specfile.dumps(f, mod, m=m, order=order))
    return 0


def _parse_candidate(text):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"--candidate is not JSON: {e}")
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or len(r) != len(rows[0]) for r in rows)
            or any(type(x) is not int for r in rows for x in r)):
        raise ParseError("--candidate must be a JSON matrix of integers")
    return rows


def _oracle_size(args):
    """--n for Taft, --ell for u_q(sl2), 3 when absent; the other family's
    option is refused rather than ignored."""
    own, other = ("n", "ell") if args.family == "taft" else ("ell", "n")
    if getattr(args, other) is not None:
        raise BadParameters(f"--{other} does not apply to --family {args.family}; use --{own}")
    size = getattr(args, own)
    return 3 if size is None else size


def cmd_oracle(args):
    if args.what == "s2" and args.family != "taft":
        raise BadParameters("oracle s2 computes the Taft spectrum only; use --family taft")
    size = _oracle_size(args)
    if args.what == "radical":
        if args.family == "taft":
            alg = oracle.taft_algebra(size, args.s).algebra
        else:
            alg = oracle.uqsl2_algebra(size, args.s)
        rad = oracle.radical_via_trace_form(alg)
        print(f"dim algebra = {alg.dim}, dim radical = {len(rad)}")
        return 0
    if args.what == "cartan":
        if args.family == "taft":
            orc = oracle.taft_algebra(size, args.s)
            alg, gens = orc.algebra, oracle.taft_generators(orc.algebra)
            simples = oracle.taft_simple_modules(size, args.s)
            idem = oracle.taft_idempotents(size, args.s)
            cand = (_parse_candidate(args.candidate) if args.candidate
                    else [[1] * size for _ in range(size)])
        else:
            alg = oracle.uqsl2_algebra(size, args.s)
            gens = oracle.uqsl2_generators(alg)
            simples = oracle.uqsl2_simple_modules(size, args.s)
            idem = None
            cand = (_parse_candidate(args.candidate) if args.candidate
                    else families.uqsl2_family(size, args.s).fusion.cartan)
        rep = oracle.validate_cartan(alg, gens, simples, cand, idempotents=idem)
        print(rep)
        return 0 if rep.ok else 1
    if args.what == "s2":
        spec = oracle.taft_s2_spectrum(size, args.s)
        print_spectrum(spec, args.json)
        return 0
    raise BadParameters(f"unknown oracle command {args.what!r}")


# -- parser -----------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared by later ones."""
    p = argparse.ArgumentParser(
        prog="antipode-spectrum",
        description="Exact spectrum of the squared antipode from Grothendieck-level data",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check fusion and module axioms of a spec file")
    v.add_argument("spec", help="spec document path, or - for stdin")
    v.add_argument("--strict-duality", action="store_true")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve-m", help="dimension-character eigenspace and m-vector")
    s.add_argument("spec", help="spec document path, or - for stdin")
    s.add_argument("--tolerance", type=float, help="numeric comparison tolerance override")
    s.set_defaults(func=cmd_solve_m)

    c = sub.add_parser("charpoly", help="factored characteristic polynomial of S^2")
    c.add_argument("spec", help="spec document path, or - for stdin")
    c.add_argument("--m", help="comma-separated scalar literals overriding the m-vector")
    c.add_argument("--tolerance", type=float, help="numeric comparison tolerance override")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_charpoly)

    pz = sub.add_parser("pivotalize", help="signed spectrum from a pivotalization block")
    pz.add_argument("spec", help="spec document path, or - for stdin")
    pz.add_argument("--tolerance", type=float, help="numeric comparison tolerance override")
    pz.add_argument("--json", action="store_true")
    pz.set_defaults(func=cmd_pivotalize)

    fam = sub.add_parser("family", help="built-in families; emit a spec or run end-to-end")
    fsub = fam.add_subparsers(dest="kind", required=True)

    def family_common(q):
        q.add_argument("--charpoly", action="store_true", help="run end-to-end instead")
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=cmd_family)

    ft = fsub.add_parser("taft")
    ft.add_argument("--n", type=int, required=True)
    ft.add_argument("--s", type=int, default=1)
    family_common(ft)

    fu = fsub.add_parser("uqsl2")
    fu.add_argument("--ell", type=int, required=True)
    fu.add_argument("--s", type=int, default=1)
    fu.add_argument("--lambda", dest="lam", default="symbolic",
                    help="'symbolic', an exact literal, or a complex number")
    family_common(fu)

    fg = fsub.add_parser("uqg")
    fg.add_argument("--type", required=True, choices=["A1", "A2", "A3"])
    fg.add_argument("--ell", type=int, required=True)
    fg.add_argument("--s", type=int, default=1)
    fg.add_argument("--lambda", dest="lam", default=None,
                    help="'symbolic' or comma-separated coordinates (numeric default required for rank >= 2)")
    family_common(fg)

    fv = fsub.add_parser("vecg")
    fv.add_argument("--group", required=True, help="zN or s3")
    fv.add_argument("--kappa", required=True, help="comma-separated literals, one per element")
    fv.add_argument("--subgroup", required=True, help="comma-separated element labels")
    fv.add_argument("--order", type=int, default=1, help="cyclotomic order for kappa literals")
    family_common(fv)

    fr = fsub.add_parser("regular")
    fr.add_argument("--spec", required=True, help="spec file providing the fusion data with dims")
    family_common(fr)

    orc = sub.add_parser("oracle", help="brute-force validations on explicit algebras")
    osub = orc.add_subparsers(dest="what", required=True)
    for what in ("radical", "cartan", "s2"):
        q = osub.add_parser(what)
        q.add_argument("--family", choices=["taft", "uqsl2"],
                       default="taft" if what == "s2" else None,
                       required=(what != "s2"))
        q.add_argument("--n", type=int, help="Taft size (default 3)")
        q.add_argument("--ell", type=int, help="u_q(sl2) root of unity order (default 3)")
        q.add_argument("--s", type=int, default=1)
        if what == "s2":
            q.add_argument("--json", action="store_true")
        if what == "cartan":
            q.add_argument("--candidate", help="JSON integer matrix [P_r : L_q] by (q, r)")
        q.set_defaults(func=cmd_oracle)
    return p


# options whose values may start with "-": a torus point, an m-vector, a character
SIGNED_VALUE_OPTIONS = ("--lambda", "--m", "--kappa")


def _join_signed_values(argv):
    """argv with each "OPT VALUE" of a SIGNED_VALUE_OPTIONS option whose VALUE
    starts with a single "-" written as "OPT=VALUE", which argparse reads as
    the value; a following option such as --charpoly stays an option."""
    out = []
    for arg in argv:
        if (out and out[-1] in SIGNED_VALUE_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        return args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
