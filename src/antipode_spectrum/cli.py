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

from . import specfile
from .cyclotomic import TEXT_LINE, coefficient_approx, coefficient_texts, joined_text
from .errors import BadParameters, DataError, InputError, ParseError, VerificationFailed
from .pivotalization import char_poly_pivotalized, from_matched_pivotal
from .scalar import (_round_digits, count_torus_vars, from_literal, literal_to_cycnum, to_json,
                     to_text)
from .spectrum import (SpectrumFactorization, char_poly_s2, dimension_eigenspace, distinct_rows,
                       select_m)
from .symbolic import monomial_text


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


# The writers below write to_json(v) of each kind of array storage as
# _json_text does at the indent of an eigenvalue's "value", without building
# the payload's dicts, or to_text(v) as its line of the text output.

_COEFF_SEP = '",\n          "'  # between the "coeffs" items of a cyclotomic value


def _coefficient_strings(tops, bottoms):
    """(coeffs, texts) for the coefficient rows tops / bottoms (as in
    SpectrumFactorization.coeffs): each row's coefficients as str(Fraction)
    writes them, and its str, column by column through
    cyclotomic.coefficient_texts, which str uses too.  Neither needs JSON
    escapes, as they hold only digits, "/", "*", "z", "^", "+", "-" and
    spaces."""
    columns = [coefficient_texts(k, ps, qs)
               for k, (ps, qs) in enumerate(zip(tops.T.tolist(), bottoms.T.tolist()))]
    return (list(zip(*[c[0] for c in columns])),
            [joined_text("".join(pieces)) for pieces in zip(*[c[1] for c in columns])])


def _cyclotomic_texts(field, tops, bottoms, mults: list, as_json: bool) -> list:
    """The entries of the eigenvalues with coefficient rows tops / bottoms
    in field and multiplicities mults, each as _entry_texts writes it or as
    its line of the text output.  "approx" comes from
    cyclotomic.coefficient_approx."""
    coeffs, texts = _coefficient_strings(tops, bottoms)
    approx = coefficient_approx(field, tops, bottoms)
    re, im = approx.tolist()
    if not as_json:
        return [f"multiplicity {m}: {TEXT_LINE.format(text, x, y)}"
                for m, text, x, y in zip(mults, texts, re, im)]
    floats = float.__repr__ if np.isfinite(approx).all() else _float_text
    return [f'    {{\n      "multiplicity": {m},\n      "value": {{\n'
            f'        "approx": [\n          {x},\n          {y}\n'
            f'        ],\n        "coeffs": [\n          "{_COEFF_SEP.join(row)}"\n'
            f'        ],\n        "kind": "cyclotomic",\n        "order": {field.order},\n'
            f'        "str": "{text}"\n      }}\n    }}'
            for m, row, text, x, y in zip(mults, coeffs, texts,
                                          map(floats, re), map(floats, im))]


def _factor_part(ctx, item):
    """The JSON block of a factor item = (atom, power), atom = (coords,
    class), and the text it adds to "str"."""
    (coords, a), p = item
    return (f'{{\n            "class": {a},\n            "power": {p},\n'
            f'            "root": {_list_text([str(x) for x in coords], "            ")}'
            f'\n          }}', ctx.atom_text(*item))


def _entry_texts(entries, as_json: bool) -> list:
    """The (value, multiplicity) pairs entries of a spectrum built from a
    list as their items of the JSON "eigenvalues" list, or as their lines
    of the text output (without newlines), each through to_json or
    to_text."""
    if as_json:
        return [f'    {{\n      "multiplicity": {int.__repr__(m)},\n'
                f'      "value": {_json_text(to_json(v), "      ")}\n    }}' for v, m in entries]
    return [f"multiplicity {m}: {to_text(v)}" for v, m in entries]


def _rows_chunk_text(spec, chunk, as_json: bool) -> str:
    """The entries rows[chunk] of a row-backed symbolic spectrum as
    _entry_texts writes them, joined by ",\n", or as their lines of the
    text output, joined by "\n", as one join over a table of pieces.  An
    entry is its head (one piece per multiplicity and constant: in JSON up
    to "factors", with the constant's block), each factor's block (JSON
    only), its middle (per constant, monomial and whether there are
    factors: in JSON from the close of "factors" up to "str", then the text
    of the constant and the monomial), each factor's text and its tail.
    numpy finds the distinct constants, the nonzero powers in row order, the
    distinct ones and each piece's place; the parts of each distinct
    constant, monomial and (atom column, power) are written once.  No text
    needs JSON escapes: a constant's is that of _coefficient_strings, and
    the atoms and monomials hold only "L", digits, "^", "*", "z", "-",
    spaces and parentheses."""
    ctx, rows, mults = spec.ctx, spec.rows[chunk], spec.mults[chunk]
    nvars = ctx.nvars
    if spec.constants is None:  # every constant is 1
        key = np.array([ctx.field.one().sort_key()])
        tops, bottoms, const_ids = key[..., 0], key[..., 1], np.zeros(len(rows), np.intp)
    else:
        tops, bottoms = (c[chunk] for c in spec.constants)
        const_at, const_ids = distinct_rows(np.column_stack([tops, bottoms]))
        tops, bottoms = tops[const_at], bottoms[const_at]
    coeffs, texts = _coefficient_strings(tops, bottoms)
    constants = [_list_text([f'"{c}"' for c in row], "          ") for row in coeffs]
    texts = ["" if text == "1" else f"({text})" for text in texts]
    by = [const_ids] if len(texts) > 1 else []  # the constant's id first, where there are several
    head_at, head_ids = distinct_rows(np.column_stack(by + [mults]))
    pieces = [f'    {{\n      "multiplicity": {m},\n      "value": {{\n        "constant": {{\n'
              f'          "coeffs": {constants[c]},\n          "order": {ctx.ell}\n'
              f'        }},\n        "factors": ' if as_json else f"multiplicity {m}: "
              for m, c in zip(mults[head_at].tolist(), const_ids[head_at].tolist())]
    powers = rows[:, nvars:]
    r, c = np.nonzero(powers)
    items = np.stack([c, powers[r, c]], axis=1)
    item_at, item_ids = distinct_rows(items)
    factors = [_factor_part(ctx, (spec.atoms[a], p)) for a, p in items[item_at].tolist()]
    first = len(pieces)
    pieces += [f"[\n          {block}" for block, _ in factors]
    pieces += [f",\n          {block}" for block, _ in factors]
    pieces += [text for _, text in factors]
    pieces += ["*" + text for _, text in factors]
    start_at, start_ids = distinct_rows(np.column_stack(by + [rows[:, :nvars]]))
    starts = [(_list_text([str(e) for e in mono], "        "),
               "*".join(filter(None, (texts[c], monomial_text(mono, nvars)))))
              for c, mono in zip(const_ids[start_at].tolist(), rows[start_at, :nvars].tolist())]
    mid = len(pieces)
    middle = ',\n        "kind": "factored",\n        "monomial": '
    for close in ("[]", "\n        ]"):
        for block, text in starts:
            if close == "[]":
                text = text or "(1)"  # no constant, monomial or factor
            pieces.append(f'{close}{middle}{block},\n        "str": "{text}' if as_json else text)
    tail = len(pieces)
    pieces += ['"\n      }\n    },\n', '"\n      }\n    }'] if as_json else ["\n", ""]
    # entry e: head, its b factor blocks (f in JSON, else 0), middle, its f factor texts, tail
    u, f = len(item_at), np.bincount(r, minlength=len(rows))
    b = f * as_json
    start = np.cumsum(3 + b + f) - (3 + b + f)
    ids = np.empty(int(start[-1] + 3 + b[-1] + f[-1]), np.intp)
    ids[start] = head_ids
    ids[start + 1 + b] = mid + start_ids + len(starts) * (f > 0)
    ids[start + 2 + b + f] = tail
    ids[-1] = tail + 1
    j = np.arange(len(r)) - (np.cumsum(f) - f)[r]  # the place of a power in its row
    if as_json:
        ids[start[r] + 1 + j] = first + item_ids + u * (j > 0)
    starred = (j > 0) | np.array([bool(text) for _, text in starts])[start_ids[r]]
    ids[start[r] + 2 + b[r] + j] = first + item_ids + u * (2 + starred)
    return "".join(np.array(pieces, object)[ids].tolist())


# the text of a numeric entry with NUL fields for its multiplicity (room for
# the 19 digits of the largest int64), imaginary part and real part (room for
# the longest repr of a double, "-2.2250738585072014e-308", or for a sign, 6
# integer digits, "." and 12 fraction digits), 24 bytes each, so that a field
# is three uint64 words; the row ends with the separator to the next entry
_NUMERIC_TEXT = ('    {\n      "multiplicity": ' + "\0" * 24
                 + ',\n      "value": {\n        "im": ' + "\0" * 24
                 + ',\n        "kind": "numeric",\n        "re": ' + "\0" * 24
                 + '\n      }\n    },\n')
_NUMERIC_ROW = np.frombuffer(_NUMERIC_TEXT.encode(), np.uint8)
_NUMERIC_FIELDS = [slice(*m.span()) for m in re.finditer("\0+", _NUMERIC_TEXT)]

# A digit word holds 8 decimal digits as the bytes 0-9, the most significant
# in the lowest byte, so that it reads left to right when stored little-endian
# (_WORDS); the text of a field is each word's digits or'ed with "0", NUL
# where a digit is not kept.
_U = np.uint64
_WORDS = np.dtype("<u8")
_BYTES = _U(0x0101010101010101)  # 1 in each byte
_ZEROS = _U(0x30)  # times a 0/1 byte mask: "0" in each byte that is 1
_WHOLE = _U(0x2E3030303030302D)  # "-000000." read in memory order


def _digit_words(v):
    """Each v < 10^8 of the uint64 array v as a digit word: v is split into
    two 4-digit lanes, each lane into two 2-digit lanes, each of those into
    two digits, all lanes of a word at once (x * 5243 >> 19 is x // 100 for
    x < 10^4 and x * 103 >> 10 is x // 10 for x < 100)."""
    hi = v // _U(10000)
    x = hi | (v - hi * _U(10000)) << _U(32)
    q = x * _U(5243) >> _U(19) & _U(0x0000007F0000007F)
    x = q | (x - q * _U(100)) << _U(16)
    q = x * _U(103) >> _U(10) & _U(0x000F000F000F000F)
    return q | (x - q * _U(10)) << _U(8)


def _nonzero_bytes(w):
    """1 in each byte of w that is not 0, for bytes of at most 0x80."""
    return (w + _U(0x7F7F7F7F7F7F7F7F)) >> _U(7) & _BYTES


def _kept_from_first(d):
    """1 in each byte of the digit word d from its first nonzero digit on
    (d * _BYTES sums each byte with those before it: at most 8 * 9 + 1)."""
    return _nonzero_bytes(d * _BYTES)


def _kept_to_last(d):
    """1 in each byte of the digit word d up to its last nonzero digit."""
    return _nonzero_bytes(d.byteswap() * _BYTES).byteswap()


def _write_ints(n, field):
    """Each nonnegative int64 of n in decimal, right-aligned in its field of
    three digit words; the words above the largest value stay NUL."""
    n, words = n.astype(_U), field.view(_WORDS)
    parts = [n]
    while len(parts) < 3 and int(n.max()) >= 10**8:
        n = n // _U(10**8)
        parts[-1] = parts[-1] - n * _U(10**8)
        parts.append(n)
    carry = _U(0)  # 1 in the first byte once a higher word holds a digit
    for j, part in zip(range(3 - len(parts), 3), reversed(parts)):
        d = _digit_words(part)
        units = _U(1) << _U(56) if j == 2 else _U(0)  # the last digit is always kept
        keep = _kept_from_first(d | carry | units)
        words[:, j] = d | keep * _ZEROS
        carry = keep >> _U(56)


def _write_floats(x, digits, field):
    """The JSON text of each float of x in its field: where x = n / 10^digits
    and 10^-4 <= |x| < U = min(10^6, 2^e), e the largest with 2^e 10^digits
    < 2^53, doubles near x lie under 10^-digits apart and n < 2^53, so
    repr(x), the shortest decimal that reads back as x, is n 10^-digits in
    fixed notation with trailing zeros stripped to one fraction digit: those
    values and +-0.0 are written as three digit words (sign, 6 integer digits
    and the point; fraction digits 1-8; fraction digits 9-12), every other
    value by _float_text."""
    scale = float(10**digits)
    upper = min(1e6, 2.0 ** ((2**53 // 10**digits).bit_length() - 1))
    a = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.rint(a * scale)
        fast = ((n / scale == a) & (a >= 1e-4) & (a < upper)) | (a == 0)
    n = np.where(fast, n, 0).astype(_U)
    whole = n // _U(10**digits)
    fraction = (n - whole * _U(10**digits)) * _U(10 ** (12 - digits))
    high = fraction // _U(10**4)
    d0 = _digit_words(whole) >> _U(8)
    d1 = _digit_words(high)
    d2 = _digit_words((fraction - high * _U(10**4)) * _U(10**4))
    k2 = _kept_to_last(d2)
    k1 = _kept_to_last(d1 | k2 << _U(56)) | _U(1)
    k0 = _kept_from_first(d0 | _U(1) << _U(48)) | np.signbit(x)
    words = field.view(_WORDS)
    words[:, 0] = (d0 | _WHOLE) & k0 * _U(0xFF)
    words[:, 1] = d1 | k1 * _ZEROS
    words[:, 2] = d2 | k2 * _ZEROS
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = [_float_text(v) for v in x[slow].tolist()]
        field[slow] = np.array(texts, f"S{field.shape[1]}").view(np.uint8).reshape(len(slow), -1)


def _numeric_chunk_text(values, mults, digits, as_json: bool) -> str:
    """The entries of the arrays values (complex) and mults (int64) as
    _entry_texts writes them, joined by ",\n", or as their lines of the
    text output, joined by "\n".  The JSON is one uint8 row per entry from
    the template, its fields written by column as digit words with the
    bytes not kept set to NUL, and one gather of the bytes that are not
    NUL.  digits are the rounding digits of the spectrum's tolerance."""
    if not as_json:
        return "\n".join([f"multiplicity {m}: {z.real:.9g}{z.imag:+.9g}j"
                          for z, m in zip(values.tolist(), mults.tolist())])
    text = np.tile(_NUMERIC_ROW, (len(values), 1))
    _write_ints(mults, text[:, _NUMERIC_FIELDS[0]])
    for column, field in zip((values.imag, values.real), _NUMERIC_FIELDS[1:]):
        _write_floats(column, digits, text[:, field])
    text = text[text != 0][:-2]  # no separator after the last entry
    return str(text, "ascii")


def print_spectrum(spec: SpectrumFactorization, as_json: bool, out=None):
    """Write spec as text, or as the JSON object {"backend", "eigenvalues",
    "total_degree"} laid out byte for byte as the json module writes it with
    indent=2 and sort_keys=True, plus a newline.  Either is rendered and
    written JSON_CHUNK entries at a time, without building the document, by
    the writer of spec's storage, in the format asked for: coefficient rows
    through _cyclotomic_texts, numeric arrays through _numeric_chunk_text,
    exponent rows through _rows_chunk_text, and a spectrum built from a list
    entry by entry through _entry_texts."""
    out = out or sys.stdout
    if as_json:
        out.write(f'{{\n  "backend": {_json_text(spec.backend, "  ")},\n  "eigenvalues": ')
        sep, join, close = "[\n", ",\n", "\n  ]" if len(spec) else "[]"
    else:
        rp = spec.uniform_root_power()
        out.write(f"total degree {spec.total_degree}, {len(spec)} distinct eigenvalue(s)\n")
        if rp:
            out.write(f"chi(z) = (z^{rp[0]} - 1)^{rp[1]}\n")
        sep, join, close = "", "\n", "\n" if len(spec) else ""
    for start in range(0, len(spec), JSON_CHUNK):
        chunk = slice(start, start + JSON_CHUNK)
        if spec.coeffs is not None:
            tops, bottoms = spec.coeffs
            text = join.join(_cyclotomic_texts(spec.field, tops[chunk], bottoms[chunk],
                                               spec.mults[chunk].tolist(), as_json))
        elif spec.values is not None:
            text = _numeric_chunk_text(spec.values[chunk], spec.mults[chunk],
                                       _round_digits(spec.tol), as_json)
        elif spec.rows is not None:
            text = _rows_chunk_text(spec, chunk, as_json)
        else:
            text = join.join(_entry_texts(spec.entries[chunk], as_json))
        out.write(sep)
        out.write(text)
        sep = join
    out.write(close)
    if as_json:
        out.write(f',\n  "total_degree": {_json_text(spec.total_degree, "  ")}\n}}\n')


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
    from . import families
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
    from . import families
    if name == "s3":
        return families.Group.symmetric3()
    if name.startswith("z"):
        try:
            return families.Group.cyclic(int(name[1:]))
        except ValueError:
            pass
    raise BadParameters(f"unknown group {name!r} (use zN or s3)")


def cmd_family(args):
    from . import families
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
    from . import families, oracle
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
    except MemoryError as e:
        print(f"failure: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
