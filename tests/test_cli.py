import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import antipode_spectrum
from antipode_spectrum import errors, specfile
from antipode_spectrum.cyclotomic import CycField
from antipode_spectrum.cli import JSON_CHUNK, build_parser, main, print_spectrum
from antipode_spectrum.errors import ParseError, SchemaError
from antipode_spectrum.families import (
    Group,
    fibonacci_fusion,
    regular_module,
    taft_family,
    uqg_family,
    uqsl2_family,
    vecg_family,
)
from antipode_spectrum.pivotalization import SignedEigenvalue, from_matched_pivotal
from antipode_spectrum.scalar import to_json
from antipode_spectrum.spectrum import SpectrumFactorization, char_poly_s2
from antipode_spectrum.symbolic import FactoredContext, FactoredValue


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def render(spec):
    out = io.StringIO()
    print_spectrum(spec, True, out)
    return out.getvalue()


def stdlib_render(spec):
    """The JSON text of spec from an in-memory tree and the stdlib encoder."""
    tree = {
        "backend": spec.backend,
        "total_degree": spec.total_degree,
        "eigenvalues": [
            {"value": to_json(v), "multiplicity": m} for v, m in spec.entries
        ],
    }
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


class TestSpecFiles:
    def test_round_trip_taft(self, tmp_path):
        f, mod, m = taft_family(3)
        text = specfile.dumps(f, mod, m=m, order=3)
        doc = specfile.loads(text)
        assert doc.fusion.labels == f.labels
        assert doc.m == m
        assert (doc.module.matrix("1") == mod.matrix("1")).all()
        assert doc.fusion.cartan is not None

    def test_round_trip_symbolic(self):
        fam = uqsl2_family(3)
        text = specfile.dumps(fam.fusion, fam.module, m=fam.m, order=3)
        doc = specfile.loads(text)
        assert doc.m == fam.m

    def test_schema_errors_carry_paths(self):
        with pytest.raises(ParseError):
            specfile.loads("{nope")
        with pytest.raises(SchemaError) as e:
            specfile.loads(json.dumps({"scalar_backend": {"mode": "exotic"}}))
        assert "mode" in str(e.value)
        good = json.loads(specfile.dumps(*taft_family(2)[:2], order=2))
        bad = json.loads(json.dumps(good))
        bad["module"]["action"]["0"] = [[1, 0]]
        with pytest.raises(SchemaError) as e:
            specfile.loads(json.dumps(bad))
        assert "$.module.action.0" in str(e.value)

    def test_float_dims_rejected(self):
        good = json.loads(specfile.dumps(*taft_family(2)[:2], order=2))
        good["category"]["dims"] = {"0": 1.0, "1": -1.0}
        with pytest.raises(SchemaError):
            specfile.loads(json.dumps(good))


class TestCliCommands:
    def write_spec(self, tmp_path, text, name="spec.json"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_taft_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "taft", "--n", "3")
        assert code == 0
        path = self.write_spec(tmp_path, out)
        code, out, _ = run(capsys, "verify", path, "--strict-duality")
        assert code == 0
        code, out, _ = run(capsys, "charpoly", path)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("multiplicity")]
        assert len(lines) == 3
        assert all("multiplicity 27" in ln for ln in lines)

    def test_ambiguous_m_exits_2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "uqsl2", "--ell", "3")
        doc = json.loads(out)
        del doc["m_vector"]
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, _, err = run(capsys, "charpoly", path)
        assert code == 2
        assert "multiplicity" in err

    def test_uqsl2_symbolic_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "uqsl2", "--ell", "5")
        path = self.write_spec(tmp_path, out)
        code, out, _ = run(capsys, "charpoly", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "symbolic"
        assert payload["total_degree"] == 5**5
        # cross-check against the closed product formula
        assert out == render(uqg_family("A1", 5))

    def test_json_is_deterministic(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "taft", "--n", "5", "--s", "2")
        path = self.write_spec(tmp_path, out)
        code, first, _ = run(capsys, "charpoly", path, "--json")
        code, second, _ = run(capsys, "charpoly", path, "--json")
        assert first == second

    def test_round_trip_all_families(self, capsys, tmp_path):
        cases = [
            ("family", "taft", "--n", "4"),
            ("family", "uqsl2", "--ell", "3"),
            ("family", "uqsl2", "--ell", "3", "--lambda", "2"),
            ("family", "vecg", "--group", "z2", "--kappa", "1,-1", "--subgroup", "0"),
            ("family", "vecg", "--group", "s3", "--kappa", "1,1,1,1,1,1",
             "--subgroup", "e,r,r2"),
        ]
        for case in cases:
            code, out, _ = run(capsys, *case)
            assert code == 0, case
            path = self.write_spec(tmp_path, out, name="rt.json")
            code, _, _ = run(capsys, "verify", path)
            assert code == 0, case

    def test_solve_m(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "taft", "--n", "3")
        path = self.write_spec(tmp_path, out)
        code, out, _ = run(capsys, "solve-m", path)
        assert code == 0
        assert "multiplicity: 1" in out

    def test_charpoly_m_override(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "uqsl2", "--ell", "3")
        doc = json.loads(out)
        del doc["m_vector"]
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, _ = run(
            capsys, "charpoly", path, "--m", "L - 1, L*z^1 - z^-1, L*z^2 - z^-2"
        )
        assert code == 0
        assert "total degree 243" in out

    def check_minus_value(self, capsys, opt, *argv):
        """argv, whose opt value starts with "-", exits 0 and prints what the
        opt=value form prints."""
        i = argv.index(opt)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv[:i], f"{opt}={argv[i + 1]}", *argv[i + 2:])[:2] == (code, out)

    def test_lambda_value_may_start_with_minus(self, capsys):
        for lam in ("-1.2+0.3j", "-2/3"):
            self.check_minus_value(capsys, "--lambda", "family", "uqsl2", "--ell", "7",
                                   "--lambda", lam, "--charpoly")
        self.check_minus_value(capsys, "--lambda", "family", "uqg", "--type", "A2", "--ell",
                               "5", "--lambda", "-0.5,2")
        with pytest.raises(SystemExit) as exc:
            main(["family", "uqsl2", "--ell", "7", "--lambda", "--charpoly"])
        assert exc.value.code == 2

    def test_m_value_may_start_with_minus(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "uqsl2", "--ell", "3")
        path = self.write_spec(tmp_path, out)
        self.check_minus_value(capsys, "--m", "charpoly", path,
                               "--m", "-L+1,-L*z^1+z^-1,-L*z^2+z^-2")

    def test_kappa_value_may_start_with_minus(self, capsys):
        # z^3 = -1 in Q(zeta_6): the sign character of Z/2
        self.check_minus_value(capsys, "--kappa", "family", "vecg", "--group", "z2",
                               "--order", "6", "--kappa", "-z^3,z^3", "--subgroup", "0",
                               "--charpoly")

    def test_json_only_on_oracle_s2(self, capsys):
        for what in ("radical", "cartan"):
            with pytest.raises(SystemExit) as exc:
                main(["oracle", what, "--family", "taft", "--n", "2", "--json"])
            assert exc.value.code == 2
        assert run(capsys, "oracle", "s2", "--n", "2", "--json")[0] == 0

    def test_vecg_match_failure_exits_1(self, capsys):
        code, _, err = run(capsys, "family", "vecg", "--group", "z2", "--kappa", "1,-1",
                           "--subgroup", "0,1", "--charpoly")
        assert code == 1
        assert "match failure" in err

    def test_numeric_overflow_exits_1(self, capsys, tmp_path):
        """Pair products of 1e200 overflow the float range: the command
        refuses the spectrum instead of printing nan, and numpy warns
        nothing."""
        code, out, _ = run(capsys, "family", "vecg", "--group", "z2", "--kappa", "1,1",
                           "--subgroup", "0")
        doc = json.loads(out)
        doc["scalar_backend"]["mode"] = "numeric"
        doc["m_vector"] = ["1e200", "1e200"]
        path = self.write_spec(tmp_path, json.dumps(doc))
        for extra in ((), ("--json",)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, "charpoly", path, *extra)
            assert code == 1 and out == ""
            assert "overflow" in err and "cyclotomic" in err

    def test_torus_point_of_large_modulus(self, capsys):
        """Lambda^ell is past the float range, the characters and the
        spectrum are not: the root-of-unity test does not overflow.  Where
        the characters' products do overflow, the command refuses the
        spectrum with a message, and numpy warns nothing."""
        for argv in (("uqsl2", "--ell", "5", "--lambda", "1e70"),
                     ("uqg", "--type", "A1", "--ell", "5", "--lambda", "1e100")):
            code, out, _ = run(capsys, "family", *argv, "--charpoly", "--json")
            assert code == 0
            values = [e["value"] for e in json.loads(out)["eigenvalues"]]
            assert all(math.isfinite(v["re"]) and math.isfinite(v["im"]) for v in values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "family", "uqsl2", "--ell", "5", "--lambda", "1e200",
                                 "--charpoly")
        assert code == 1 and out == ""
        assert "overflow" in err

    def test_pivotalize(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "vecg", "--group", "z2", "--kappa", "1,-1",
                           "--subgroup", "0")
        path = self.write_spec(tmp_path, out)
        code, out, _ = run(capsys, "pivotalize", path)
        assert code == 0
        assert "multiplicity 8: +sqrt(1)" in out

    def test_pivotalize_explicit_block(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "vecg", "--group", "z2", "--kappa", "1,-1",
                           "--subgroup", "0")
        doc = json.loads(out)
        doc["pivotalization"] = {
            "nu": ["1", "1"],
            "n_plus": {"0": [[1, 0], [0, 1]], "1": [[0, 0], [0, 0]]},
            "n_minus": {"0": [[0, 0], [0, 0]], "1": [[0, 1], [1, 0]]},
        }
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, _ = run(capsys, "pivotalize", path)
        assert code == 0
        assert "total degree 8" in out

    def test_uqg_family(self, capsys):
        code, out, _ = run(capsys, "family", "uqg", "--type", "A1", "--ell", "3",
                           "--charpoly")
        assert code == 0
        assert "total degree 243" in out
        code, _, err = run(capsys, "family", "uqg", "--type", "A2", "--ell", "3",
                           "--charpoly")
        assert code == 2

    def test_oracle_commands(self, capsys):
        code, out, _ = run(capsys, "oracle", "radical", "--family", "uqsl2", "--ell", "3")
        assert code == 0 and "dim radical = 13" in out
        code, out, _ = run(capsys, "oracle", "s2", "--n", "2")
        assert code == 0 and "multiplicity 2" in out
        code, out, _ = run(capsys, "oracle", "cartan", "--family", "taft", "--n", "2")
        assert code == 0
        code, out, _ = run(capsys, "oracle", "cartan", "--family", "taft", "--n", "2",
                           "--candidate", "[[1, 2], [1, 1]]")
        assert code == 1

    def test_oracle_cartan_bad_candidate_exits_2(self, capsys):
        for candidate in ("notjson", "[[1, 1], [1]]", '[["x", 1], [1, 1]]', "5"):
            code, _, err = run(capsys, "oracle", "cartan", "--family", "taft", "--n", "2",
                               "--candidate", candidate)
            assert code == 2, candidate
            assert "--candidate" in err

    def test_oracle_s2_other_family_exits_2(self, capsys):
        code, out, err = run(capsys, "oracle", "s2", "--family", "uqsl2", "--ell", "5")
        assert code == 2
        assert out == "" and "taft" in err

    def test_oracle_refuses_the_other_familys_size(self, capsys):
        for argv in (["radical", "--family", "taft", "--ell", "5"],
                     ["cartan", "--family", "taft", "--ell", "5"],
                     ["s2", "--ell", "5"],
                     ["radical", "--family", "uqsl2", "--n", "7"],
                     ["cartan", "--family", "uqsl2", "--n", "7"]):
            code, out, err = run(capsys, "oracle", *argv)
            assert code == 2, argv
            assert out == "" and "does not apply" in err

    def test_torus_literals_need_cyclotomic_mode(self, capsys, tmp_path):
        fam = uqsl2_family(3)
        doc = json.loads(specfile.dumps(fam.fusion, fam.module, m=fam.m, order=3))
        doc["scalar_backend"]["mode"] = "numeric"
        path = self.write_spec(tmp_path, json.dumps(doc))
        for cmd in ("charpoly", "pivotalize"):
            code, out, err = run(capsys, cmd, path)
            assert code == 2, cmd
            assert out == "" and "$.m_vector[0]" in err
        m = ", ".join(doc.pop("m_vector"))
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, err = run(capsys, "charpoly", path, "--m", m)
        assert code == 2
        assert out == "" and "cyclotomic" in err

    def test_literal_exponent_limit(self, capsys, tmp_path):
        f, mod, m = taft_family(3)
        doc = json.loads(specfile.dumps(f, mod, m=m, order=3))
        doc["m_vector"][1] = "(z)^1001"
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, err = run(capsys, "charpoly", path)
        assert code == 2
        assert out == "" and "$.m_vector[1]" in err and "exponent" in err
        del doc["m_vector"]
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, err = run(capsys, "charpoly", path, "--m", "1, (z)^1001, z^2")
        assert code == 2
        assert out == "" and "exponent" in err
        assert run(capsys, "charpoly", path, "--m", "1, (z)^1000, z^2")[0] == 0

    def test_literal_term_pair_limit(self, capsys, tmp_path):
        f, mod, m = taft_family(3)
        doc = json.loads(specfile.dumps(f, mod, m=m, order=3))
        doc["m_vector"][1] = "(L1 + L2 + 1)^50"
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, err = run(capsys, "charpoly", path)
        assert code == 2
        assert out == "" and "$.m_vector[1]" in err and "term pairs" in err
        del doc["m_vector"]
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, err = run(capsys, "charpoly", path, "--m", "1, (L1 + L2 + 1)^50, z^2")
        assert code == 2
        assert out == "" and "term pairs" in err

    def test_eigenvector_check_term_pair_limit(self, capsys, tmp_path):
        """A symbolic --m stays factored when parsed; the eigenvector check
        multiplies it out under the literal parser's term-pair bound."""
        code, out, _ = run(capsys, "family", "uqsl2", "--ell", "3")
        path = self.write_spec(tmp_path, out)
        code, out, err = run(capsys, "charpoly", path, "--m",
                             "(L - 1)^1000, L*z - z^-1, L*z^2 - z^-2")
        assert code == 2
        assert out == "" and "m-vector" in err and "term pairs" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/spec.json")
        assert code == 2

    def test_broken_verification_exits_1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "taft", "--n", "2")
        doc = json.loads(out)
        doc["module"]["action"]["0"] = [[1, 1], [0, 1]]  # N_unit != I
        path = self.write_spec(tmp_path, json.dumps(doc))
        code, out, _ = run(capsys, "verify", path)
        assert code == 1

    def test_commands_verify_their_document(self, capsys, tmp_path):
        # Fibonacci with a pivotalization block and a broken fusion rule 1 x 1 -> 1
        f = fibonacci_fusion()
        mod, m = regular_module(f)
        piv = from_matched_pivotal(f, mod, m)
        doc = json.loads(specfile.dumps(f, mod, m=m, pivotalization=piv))
        doc["category"]["fusion"] = [
            [q, r, s, 2 if (q, r, s) == ("1", "1", "1") else c]
            for q, r, s, c in doc["category"]["fusion"]
        ]
        path = self.write_spec(tmp_path, json.dumps(doc))
        for argv in (["verify", path], ["charpoly", path], ["pivotalize", path],
                     ["family", "regular", "--spec", path]):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert "FAIL" in out + err


class TestJsonRenderer:
    """print_spectrum(..., as_json=True) writes what
    json.dump(indent=2, sort_keys=True) would, followed by a newline."""

    @pytest.mark.parametrize("argv", [
        ("family", "taft", "--n", "4", "--s", "3", "--charpoly", "--json"),
        ("family", "uqsl2", "--ell", "5", "--charpoly", "--json"),
        ("family", "uqsl2", "--ell", "5", "--lambda", "7/5", "--charpoly", "--json"),
        ("family", "uqg", "--type", "A1", "--ell", "5", "--lambda", "0.7+0.2j",
         "--charpoly", "--json"),
        ("family", "uqg", "--type", "A2", "--ell", "5", "--lambda=-0.6+0.9j,1.3-0.4j",
         "--charpoly", "--json"),
        ("oracle", "s2", "--n", "4", "--json"),
    ])
    def test_cli_output_round_trips(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_signed_output_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "vecg", "--group", "z2", "--kappa", "1,-1",
                           "--subgroup", "0")
        path = tmp_path / "spec.json"
        path.write_text(out)
        code, out, _ = run(capsys, "pivotalize", str(path), "--json")
        assert code == 0
        assert json.loads(out)["backend"] == "signed"
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_rational_output_round_trips(self):
        f, mod, m = vecg_family(Group.cyclic(3), {str(a): Fraction(1) for a in range(3)}, ["0"])
        out = render(char_poly_s2(f, mod, [Fraction(k + 1, 2) for k in range(len(m))]))
        assert json.loads(out)["eigenvalues"][0]["value"]["kind"] == "rational"
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    @pytest.mark.parametrize("entries", [
        [],
        [(7, 2)],
        [(Fraction(-3, 4), 1), (Fraction(5), 3)],
        [(SignedEigenvalue(-1, complex(0.5, -0.25)), 4), (SignedEigenvalue(1, Fraction(1, 3)), 1)],
        [(complex(-0.0, 5e-324), 1), (complex(1e300, float("nan")), 2),
         (complex(float("inf"), float("-inf")), 3), (complex(0.1, -1e-7), 10**30)],
        [(complex(k, -k / 3), k + 1) for k in range(JSON_CHUNK + 1)],
    ], ids=["empty", "int", "fraction", "signed", "floats", "chunk-boundary"])
    def test_matches_stdlib(self, entries):
        spec = SpectrumFactorization(entries, "numeric")
        assert render(spec) == stdlib_render(spec)

    def test_bare_factored_value_matches_stdlib(self):
        ctx = uqsl2_family(3).m[1].ctx
        bare = FactoredValue.one(ctx)
        assert bare.factors == {} and not any(bare.monomial)
        spec = SpectrumFactorization([(bare, 3), (SignedEigenvalue(1, bare), 1)], "symbolic")
        assert render(spec) == stdlib_render(spec)

    def test_cyclotomic_values_match_stdlib(self):
        """Orders 1-12, mixed denominators, and values whose approx is beyond
        the float range (Infinity, or NaN where infinities meet)."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def values(draw):
            field = CycField(draw(st.integers(min_value=1, max_value=12)))
            scale = draw(st.sampled_from([1, 1, 10**400, Fraction(-1, 7**500)]))
            return field.reduce([draw(st.fractions(min_value=-40, max_value=40,
                                                   max_denominator=30)) * scale
                                 for _ in range(field.degree)])

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(st.tuples(values(), st.integers(1, 10**20)), max_size=6))
        def check(entries):
            spec = SpectrumFactorization(entries, "cyclotomic")
            assert render(spec) == stdlib_render(spec)

        check()
        big = CycField(4).reduce([10**400, -(10**400)])
        assert "Infinity" in render(SpectrumFactorization([(big, 1)], "cyclotomic"))

    def test_factored_values_match_stdlib(self):
        """1-3 torus variables, non-unit constants, nonzero monomials and
        negative powers."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def values(draw, ctx):
            constant = ctx.field.reduce([draw(st.fractions(min_value=-4, max_value=4,
                                                           max_denominator=5))
                                         for _ in range(ctx.field.degree)])
            hypothesis.assume(constant)
            small = st.integers(min_value=-3, max_value=3)
            v = FactoredValue(ctx, constant, tuple(draw(small) for _ in range(ctx.nvars)))
            coords = [c for c in itertools.product(range(-2, 3), repeat=ctx.nvars)
                      if math.gcd(*c) == 1 and next(x for x in c if x) > 0]
            for _ in range(draw(st.integers(min_value=0, max_value=4))):
                v = v * FactoredValue.atom(ctx, draw(st.sampled_from(coords)),
                                           draw(st.integers(0, ctx.ell - 1)),
                                           draw(small.filter(bool)))
            return v

        @st.composite
        def spectra(draw):
            ctx = FactoredContext(draw(st.sampled_from([2, 3, 5, 6, 9])),
                                  draw(st.integers(min_value=1, max_value=3)))
            return draw(st.lists(st.tuples(values(ctx), st.integers(1, 10**20)), max_size=6))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(spectra())
        def check(entries):
            spec = SpectrumFactorization(entries, "symbolic")
            assert render(spec) == stdlib_render(spec)

        check()

    def test_array_backed_numeric_spectrum_matches_stdlib(self):
        """JSON_CHUNK + 1 entries held as arrays; NaN and infinities sit in
        the first chunk only, so one chunk is written by column and the other
        entry by entry."""
        values = np.array([complex(k / 7, -k / 3) for k in range(JSON_CHUNK + 1)])
        values[[5, 9, 17]] = [complex(float("nan"), 1), complex(float("inf"), -0.0),
                              complex(-0.0, float("-inf"))]
        values[JSON_CHUNK] = complex(5e-324, -1e300)
        mults = np.arange(1, JSON_CHUNK + 2, dtype=np.int64) * 3
        spec = SpectrumFactorization.from_arrays(values, mults)
        text = render(spec)
        assert text == stdlib_render(spec)
        assert "NaN" in text and "-Infinity" in text
        finite = SpectrumFactorization.from_arrays(values[JSON_CHUNK - 5:], mults[JSON_CHUNK - 5:])
        assert render(finite) == stdlib_render(finite)

    def test_numeric_column_writer_matches_stdlib(self):
        """Array-backed spectra at every rounding digit count d = 1..12:
        values with magnitudes 10^-6 to 10^8 on the 10^-d grid and off it,
        +-0.0, each edge of the writer's exact window (10^-4 and
        U = min(10^6, 2^e), 2^e 10^d < 2^53) and the double just below it,
        and multiplicities up to 2^62."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def edges(d):
            upper = min(1e6, 2.0 ** ((2**53 // 10**d).bit_length() - 1))
            return [y for x in (1e-4, upper) for y in (x, math.nextafter(x, 0))]

        def check(d, entries):
            values = np.array([complex(re, im) for re, im, _ in entries])
            mults = np.array([m for *_, m in entries], dtype=np.int64)
            spec = SpectrumFactorization.from_arrays(values, mults, 10.0**-d)
            assert render(spec) == stdlib_render(spec)

        for d in range(1, 13):
            parts = [s * x for x in edges(d) + [0.0] for s in (1, -1)]
            check(d, [(re, im, 2**62) for re in parts for im in parts])

        @st.composite
        def parts(draw, d):
            x = 10 ** draw(st.floats(min_value=-6, max_value=8))
            kind = draw(st.sampled_from(["grid", "off", "edge", "zero"]))
            if kind == "grid":
                x = float(np.rint(x * 10**d) / 10**d)
            elif kind == "edge":
                x = draw(st.sampled_from(edges(d)))
            elif kind == "zero":
                x = 0.0
            return -x if draw(st.booleans()) else x

        @st.composite
        def spectra(draw):
            d = draw(st.integers(min_value=1, max_value=12))
            return d, draw(st.lists(st.tuples(parts(d), parts(d), st.integers(1, 2**62)),
                                    min_size=1, max_size=30))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(spectra())
        def check_drawn(case):
            check(*case)

        check_drawn()

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-12])
    def test_numeric_document_matches_stdlib(self, capsys, tmp_path, tolerance):
        """charpoly --json of a numeric Taft document: the eighth roots of
        unity rounded to the digits of the document's tolerance, with +-0.0
        parts."""
        f, mod, m = taft_family(8)
        doc = json.loads(specfile.dumps(f, mod, m=m, order=8))
        del doc["scalar_backend"]["precision"]
        doc["scalar_backend"].update(mode="numeric", tolerance=tolerance)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "charpoly", str(path), "--json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
        digits = round(-math.log10(tolerance))
        assert f'"re": {round(math.cos(math.pi / 4), digits)}' in out

    def test_chunks_are_written_apart_from_separators(self):
        """A writer that keeps what it is given, as io.StringIO does, holds
        each chunk's text itself (at most JSON_CHUNK entries), not a copy
        with the separator in front."""
        n = 2 * JSON_CHUNK + 1
        values = np.array([complex(k, -k / 3) for k in range(n)])
        spec = SpectrumFactorization.from_arrays(values, np.ones(n, dtype=np.int64))

        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        out = Recorder()
        print_spectrum(spec, True, out)
        assert "".join(out.writes) == stdlib_render(spec)
        body = out.writes[1:-2]
        assert body[0::2] == ["[\n", ",\n", ",\n"]
        assert [w.count('"multiplicity"') for w in body[1::2]] == [JSON_CHUNK, JSON_CHUNK, 1]

    def test_numeric_entries_match_stdlib(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(st.tuples(
            st.complex_numbers(allow_nan=True, allow_infinity=True),
            st.integers(min_value=1, max_value=10**40),
        ), max_size=20))
        def check(entries):
            spec = SpectrumFactorization(entries, "numeric")
            assert render(spec) == stdlib_render(spec)

        check()


def test_every_error_has_one_exit_code():
    """Exit code 2 for InputError, 1 for DataError: each concrete error is
    exactly one of the two."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    bases = (errors.InputError, errors.DataError)
    concrete = [c for c in subclasses(errors.SpectrumError) if c not in bases]
    assert errors.InvalidTwist in concrete
    for cls in concrete:
        assert issubclass(cls, errors.InputError) != issubclass(cls, errors.DataError), cls


GOLDEN_JSON = {
    "taft-9": (
        ("family", "taft", "--n", "9", "--charpoly", "--json"),
        "c3b900d721df58f4c70b48f01852865d0acfe43d63cac78905aa23c668a5105e",
    ),
    "uqsl2-7-exact": (
        ("family", "uqsl2", "--ell", "7", "--lambda", "5/7", "--charpoly", "--json"),
        "4ff9b5d8658c78ded8f2f63f45df1295c257a59ade91473e4919b10a433ae428",
    ),
    "uqsl2-9-symbolic": (
        ("family", "uqsl2", "--ell", "9", "--lambda", "symbolic", "--charpoly", "--json"),
        "ef876ec82e4f3cc23093970b81cdd76cd4fcc7a1901aef137d30b7c7ce270bc2",
    ),
    "uqsl2-7-numeric": (
        ("family", "uqsl2", "--ell", "7", "--s", "3", "--lambda", "0.9+0.4j",
         "--charpoly", "--json"),
        "4cde8238e0beab98618c49306df6cc10889d9e462f67dabae1e06d1f9ccdbe3d",
    ),
    "uqg-A1-7-exact": (
        ("family", "uqg", "--type", "A1", "--ell", "7", "--s", "2", "--lambda", "2/3",
         "--charpoly", "--json"),
        "30d70ec93cab6d6d4fe1f0ffe7c4dc917206fcf177f2837c64c5a8c0cf7a2da3",
    ),
    "uqg-A2-5-numeric": (
        ("family", "uqg", "--type", "A2", "--ell", "5", "--s", "2", "--lambda=-0.6+0.9j,1.3-0.4j",
         "--charpoly", "--json"),
        "fdfcaf8cafd1b6ed7264160d8c8d0401cb69f24076f791af76a8c12b9be6d653",
    ),
    # spec documents: structure, cartan, dims and module action of u_q(sl2)
    "uqsl2-7-spec": (
        ("family", "uqsl2", "--ell", "7", "--s", "3"),
        "d4ac96fd6602b9044fd6202bb0c2db710978e0b01a4481cfa0926eda2d71eb15",
    ),
    "uqsl2-9-spec": (
        ("family", "uqsl2", "--ell", "9", "--s", "2"),
        "ef0f426b5cf009a6214e9c5cf390e5a8c2ffd7ac6d330094d807959f0ad2a378",
    ),
}


# the text output (--charpoly without --json) of two GOLDEN_JSON cases
GOLDEN_TEXT = {
    "uqg-A2-5-numeric": (
        ("family", "uqg", "--type", "A2", "--ell", "5", "--s", "2", "--lambda=-0.6+0.9j,1.3-0.4j",
         "--charpoly"),
        "2ec7f82ad7358cbe3642c75253d97e5ee9220566153ec06e2854a0f6a50b89b6",
    ),
    "uqsl2-9-symbolic": (
        ("family", "uqsl2", "--ell", "9", "--lambda", "symbolic", "--charpoly"),
        "2a0b74784c8d705e77954f0d642a74722f4582804b9b8f9a8347414d4fb10d87",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_golden_json_digest(capsys, name):
    """The --json bytes of exact, symbolic and numeric spectra of the built-in
    families, and of two u_q(sl2) spec documents, are pinned: a change to the
    entry order (canonical keys), the coefficient text, str or approx of a
    cyclotomic value, a float of a numeric torus character, or the ring,
    module or dims of u_q(sl2) shows up here."""
    argv, digest = GOLDEN_JSON[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
def test_golden_text_digest(capsys, name):
    """The text bytes of a numeric spectrum held as arrays and of a symbolic
    one are pinned as well."""
    argv, digest = GOLDEN_TEXT[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once(capsys):
    """The argparse tree is built on the first call and reused: after an
    argparse error (exit 2) the same process answers the next argv exactly
    as a fresh process does."""
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["family", "taft", "--n", "three"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    argv = ("family", "taft", "--n", "3", "--s", "2", "--charpoly", "--json")
    code, out, err = run(capsys, *argv)
    src = str(Path(antipode_spectrum.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "antipode_spectrum.cli", *argv],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and out
