import json

import pytest

from antipode_spectrum import specfile
from antipode_spectrum.cli import main
from antipode_spectrum.errors import ParseError, SchemaError
from antipode_spectrum.families import taft_family, uqg_family, uqsl2_family


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        from antipode_spectrum.cli import spectrum_json

        assert payload == spectrum_json(uqg_family("A1", 5))

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

    def test_vecg_match_failure_exits_1(self, capsys):
        code, _, err = run(capsys, "family", "vecg", "--group", "z2", "--kappa", "1,-1",
                           "--subgroup", "0,1", "--charpoly")
        assert code == 1
        assert "match failure" in err

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
