import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from mirabolic import MirabolicOrbitDatum, moment, orbit_model

from conftest import orbit
from mirabolic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# a literal whose exact value has a 3-gigabit denominator
HUGE = "1e-1000000000"

UNIPOTENT_21 = {"field": "C", "classes": [{"re": "0", "partition": [2, 1]}]}
REAL_21 = {"field": "R", "classes": [{"re": "0", "partition": [2, 1]}]}
RS2 = {
    "field": "C",
    "classes": [{"re": "1", "partition": [1]}, {"re": "0", "partition": [1]}],
}


class TestClassify:
    def test_dense_row_matrix(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "m.json",
            {
                "field": "C",
                "matrix": [["1", "0", "0"], ["0", "2", "0"], ["1", "1", "0"]],
                "eigenvalues": ["1", "2"],
            },
        )
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["depth"] == 3
        assert payload["a_part"] == []
        assert payload["stabilizer_dim"] == 0

    def test_zero_matrix_plaintext(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("0 0 0\n0 0 0\n0 0 0\n", encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(path), "--field", "C")
        assert code == 0
        payload = json.loads(out)
        assert payload["depth"] == 1
        assert payload["a_part"] == [{"re": "0", "partition": [1, 1]}]

    def test_normal_form_matrix_echoed(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "nf.json",
            {
                "field": "C",
                "matrix": [
                    ["1", "0", "0", "0"],
                    ["0", "2", "0", "0"],
                    ["0", "0", "0", "0"],
                    ["0", "0", "1", "0"],
                ],
                "eigenvalues": ["1", "2"],
            },
        )
        code, out, _ = run(capsys, "classify", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["depth"] == 2
        assert payload["a_part"] == [
            {"re": "2", "partition": [1]},
            {"re": "1", "partition": [1]},
        ]

    def test_orbit_spec_input(self, tmp_path, capsys):
        # classifying an orbit spec classifies the projected realization,
        # i.e. the image of the base point; for one class this is the
        # dense image (depth = largest part, one largest part removed)
        path = write_json(tmp_path, "orbit.json", UNIPOTENT_21)
        code, out, _ = run(capsys, "classify", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["depth"] == 2
        assert payload["a_part"] == [{"re": "0", "partition": [1]}]

    def test_certificate_flag(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "m.json",
            {"field": "C", "matrix": [["0", "0"], ["1", "0"]]},
        )
        code, out, _ = run(capsys, "classify", path, "--certificate")
        payload = json.loads(out)
        assert code == 0
        assert payload["certificate"]["verified"] is True

    @pytest.mark.parametrize("flags", [
        ("--field", "R"), ("--field", "C"), ("--eigenvalues", "0"), ("--pairs", "0:1"),
    ])
    def test_flag_with_an_orbit_spec_is_an_input_error(self, tmp_path, capsys, flags):
        # the spec names its field and eigenvalues, so the flag would have no effect
        path = write_json(tmp_path, "orbit.json", REAL_21)
        code, out, err = run(capsys, "classify", path, *flags)
        assert (code, out) == (2, "")
        assert err == ("error: %s: an orbit spec names its own field and eigenvalues\n"
                       % flags[0])

    def test_field_flag_with_a_matrix_naming_its_field_is_an_input_error(
            self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {"field": "C", "matrix": [["0"]]})
        for field in ("R", "C"):
            code, out, err = run(capsys, "classify", path, "--field", field)
            assert (code, out) == (2, "")
            assert err == "error: --field: the matrix object names its own field\n"

    def test_field_flag_or_complex_for_a_matrix_naming_none(self, tmp_path, capsys):
        text = tmp_path / "m.txt"
        text.write_text("0 0\n1 0\n", encoding="utf-8")
        matrix = write_json(tmp_path, "m.json", {"matrix": [["0", "0"], ["1", "0"]]})
        for path in (str(text), matrix):
            for flags, field in (((), "C"), (("--field", "C"), "C"), (("--field", "R"), "R")):
                code, out, _ = run(capsys, "classify", path, *flags)
                assert code == 0
                assert json.loads(out)["field"] == field

    @pytest.mark.parametrize("flags", [(), ("--certificate",), ("--eigenvalues", "0")])
    def test_json_and_text_matrices_classify_alike(self, tmp_path, capsys, flags):
        # a matrix with no hint is read with the hint 0, whatever its format
        rows = [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]
        text = tmp_path / "m.txt"
        text.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
        matrix = write_json(tmp_path, "m.json", {"matrix": rows})
        results = [run(capsys, "classify", path, *flags) for path in (str(text), matrix)]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, err) == (0, "")
        assert (json.loads(out)["depth"], json.loads(out)["a_part"]) == (
            2, [{"re": "0", "partition": [1]}])

    def test_orbit_spec_without_classes_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "empty.json", {"field": "C", "classes": []})
        code, out, err = run(capsys, "classify", path)
        assert (code, out) == (2, "")
        assert err == "error: orbit spec needs at least one eigenvalue class\n"

    def test_spectrum_mismatch_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("7 0\n0 0\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path), "--eigenvalues", "0")
        assert code == 1
        assert "SpectrumMismatch" in err


class TestEnumerateAndMoment:
    def test_enumerate_count(self, tmp_path, capsys):
        path = write_json(tmp_path, "rs2.json", RS2)
        code, out, _ = run(capsys, "enumerate", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 3

    def test_moment_all_depths(self, tmp_path, capsys):
        path = write_json(tmp_path, "rs2.json", RS2)
        code, out, _ = run(capsys, "moment", path, "--all")
        payload = json.loads(out)
        assert code == 0
        depths = sorted(r["symbolic"]["depth"] for r in payload["records"])
        assert depths == [1, 1, 2]

    def test_moment_dense_default(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        code, out, _ = run(capsys, "moment", path)
        payload = json.loads(out)
        assert code == 0
        (record,) = payload["records"]
        assert record["symbolic"]["depth"] == 2
        assert record["symbolic"]["a_part"] == [{"re": "0", "partition": [1]}]

    def test_moment_oracle_agreement(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        code, out, _ = run(capsys, "moment", path, "--all", "--oracle")
        payload = json.loads(out)
        assert code == 0
        assert payload["disagreements"] == 0
        assert all(r["agree"] for r in payload["records"])

    def test_moment_geometry(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        code, out, _ = run(capsys, "moment", path, "--geometry")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True

    def test_moment_geometry_fails_on_a_disagreement(self, tmp_path, capsys, monkeypatch):
        # a wrong symbolic image at one selection, which no other check sees
        path = write_json(tmp_path, "rs.json", RS2)
        real = moment.symbolic_image
        wrong = MirabolicOrbitDatum(1, orbit("C", (3, [1])))
        monkeypatch.setattr(moment, "symbolic_image",
                            lambda o, s: wrong if s.to_json() == {"1": {"0": 1}} else real(o, s))
        code, out, _ = run(capsys, "moment", path, "--geometry")
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert [r["agree"] for r in payload["records"]].count(False) == 1
        assert payload["injective"] and payload["dense_minimal"] and payload["fiber_singleton"]

    def test_moment_geometry_fails_on_a_changed_law(self, tmp_path, capsys, monkeypatch):
        # every image stabilizer one too large, which only the ranks at the
        # dense point see
        path = write_json(tmp_path, "rs.json", RS2)
        real = moment.gl_centralizer_dim
        monkeypatch.setattr(moment, "gl_centralizer_dim", lambda head: real(head) + 1)
        code, out, _ = run(capsys, "moment", path, "--geometry")
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["failures"] == ["stabilizer dimension changed under conjugation: 0 vs 1"]
        assert payload["injective"] and payload["dense_minimal"] and payload["fiber_singleton"]

    def test_moment_geometry_with_a_selection_flag_is_an_input_error(self, tmp_path, capsys):
        # --geometry checks every selection with the oracle, so these would be ignored
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        for flags in (["--all"], ["--dense"], ["--oracle"], ["--all", "--oracle"]):
            code, out, err = run(capsys, "moment", path, "--geometry", *flags)
            assert (code, out) == (2, "")
            assert err == ("error: %s: --geometry checks all selections with the oracle\n"
                           % flags[0])


class TestAttachAndRestrict:
    def test_attach_complex(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        code, out, _ = run(capsys, "attach", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["label"] == [
            {"kind": "char", "t": 2, "twist": "0", "w": 0},
            {"kind": "char", "t": 1, "twist": "0", "w": 0},
        ]

    def test_attach_with_signs(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "r.json",
            {"field": "R", "classes": [{"re": "0", "partition": [2, 1]}]},
        )
        code, out, _ = run(capsys, "attach", path, "--signs", "1,0")
        payload = json.loads(out)
        assert code == 0
        ws = sorted(f["w"] for f in payload["label"])
        assert ws == [0, 1]

    @pytest.mark.parametrize("spec, signs", [
        (REAL_21, "0,0;1"),  # two groups for one real class
        (REAL_21, "0"),  # one sign where the dual partition [2, 1] needs two
        (REAL_21, "0,1,1"),
        (REAL_21, ""),
        (UNIPOTENT_21, "0"),  # a complex-field orbit takes no signs
    ])
    def test_signs_of_the_wrong_shape_are_an_input_error(self, tmp_path, capsys, spec, signs):
        path = write_json(tmp_path, "o.json", spec)
        for command in ("attach", "restrict"):
            code, out, err = run(capsys, command, path, "--signs", signs)
            assert code == 2
            assert out == ""
            assert err.startswith("error: --signs: expected groups of sizes ")
            assert err.count("\n") == 1

    def test_restrict(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        code, out, _ = run(capsys, "restrict", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["restricted"]["depth"] == 2
        assert payload["restricted"]["factors"] == [
            {"kind": "char", "t": 1, "twist": "0", "w": 0}
        ]


class TestVerify:
    def test_single_orbit_passes(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        code, out, _ = run(capsys, "verify", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["summary"] == {"pass": 1, "fail": 0, "skipped": 0}

    def test_unsupported_shape_is_skipped(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "bad.json",
            {"field": "R", "classes": [{"re": "0", "im": "1/3", "partition": [1]}]},
        )
        code, out, _ = run(capsys, "verify", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["orbits"][0]["status"] == "skipped:UnsupportedOrbitShape"

    def test_corpus_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--corpus", "3", "--field", "C")
        payload = json.loads(out)
        assert code == 0
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["pass"] == payload["total"]

    def test_corpus_with_conjugations(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--corpus", "2", "--field", "R",
            "--conjugations", "5", "--seed", "7",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["summary"]["fail"] == 0

    def test_field_with_a_spec_is_an_input_error(self, tmp_path, capsys):
        # the spec names its field, so --field would have no effect
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        for field in ("R", "C"):
            code, out, err = run(capsys, "verify", path, "--field", field)
            assert (code, out) == (2, "")
            assert err == ("error: --field chooses the corpus; "
                           "an orbit spec names its own field\n")

    def test_corpus_field_defaults_to_complex(self, capsys):
        assert run(capsys, "verify", "--corpus", "3") == run(
            capsys, "verify", "--corpus", "3", "--field", "C")

    def test_spec_and_corpus_together_are_an_input_error(self, tmp_path, capsys):
        # a spec, even one that cannot be read, is not silently ignored
        for path in (write_json(tmp_path, "u.json", UNIPOTENT_21),
                     str(tmp_path / "missing.json")):
            code, out, err = run(capsys, "verify", path, "--corpus", "1")
            assert (code, out) == (2, "")
            assert err == "error: verify takes an orbit spec or --corpus N, not both\n"


class TestDeterminismAndErrors:
    def test_byte_identical_output(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        _, first, _ = run(capsys, "moment", path, "--all", "--oracle")
        _, second, _ = run(capsys, "moment", path, "--all", "--oracle")
        assert first == second

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "enumerate", path, "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text(encoding="utf-8"))["count"] == 3

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, target):
        # a path under a missing directory, and a directory
        path = write_json(tmp_path, "u.json", UNIPOTENT_21)
        out_path = str(tmp_path / target)
        code, out, err = run(capsys, "enumerate", path, "--out", out_path)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write %s: " % out_path)
        assert err.count("\n") == 1

    def test_input_that_is_not_utf8_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "enumerate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read %s: " % path)
        assert err.count("\n") == 1
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"),
                                                          encoding="utf-8"))
        code, out, err = run(capsys, "enumerate", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read -: ")

    def test_bad_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "error" in err

    def test_bad_field_diagnostic(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"field": "Q", "classes": []})
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "field" in err

    def test_empty_orbit_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "empty.json", {"field": "C", "classes": []})
        code, _, err = run(capsys, "enumerate", str(path))
        assert code == 2
        assert "eigenvalue class" in err

    def test_pair_hint_without_imaginary_part_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {"matrix": [["0"]], "pairs": [["1"]]})
        code, out, err = run(capsys, "classify", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: pairs") and err.count("\n") == 1

    def test_non_list_pairs_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {"matrix": [["0"]], "pairs": "1:1"})
        code, _, err = run(capsys, "classify", path)
        assert code == 2
        assert "pairs" in err

    @pytest.mark.parametrize("part", [2.5, True])
    def test_non_integer_partition_part_rejected(self, tmp_path, capsys, part):
        spec = {"field": "C", "classes": [{"re": "0", "partition": [part]}]}
        path = write_json(tmp_path, "p.json", spec)
        code, out, err = run(capsys, "enumerate", path)
        assert code == 2
        assert out == ""
        assert "partition parts must be integers" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--corpus", "2", "--field", "Q"),
        ("classify", "-", "--field", "Q"),
    ])
    def test_unknown_field_flag_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: argument --field: invalid choice: 'Q'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("matrix, message", [
        (5, "expected a list of rows"),
        (["12", "30"], "expected a list of rows"),
        ([[0, 0, 0], [1, 0, 0]], "expected a square matrix"),
    ])
    def test_malformed_matrix_is_an_input_error(self, tmp_path, capsys, matrix, message):
        path = write_json(tmp_path, "m.json", {"matrix": matrix})
        code, out, err = run(capsys, "classify", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrix: " + message) and err.count("\n") == 1

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"classes": ' + "[" * 100000, encoding="utf-8")
        for command in ("classify", "attach"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2
            assert out == "" and err.startswith("error: invalid JSON")

    @pytest.mark.parametrize("name, content, flags, where", [
        ("m.json", {"matrix": [["0", HUGE], ["0", "0"]]}, (), "matrix row 1"),
        ("m.txt", "0 0\n0 " + HUGE + "\n", ("--field", "R"), "matrix row 2"),
        ("m.txt", "0 0\n0 0\n", ("--eigenvalues=0," + HUGE,), "--eigenvalues"),
        ("m.txt", "0 0\n0 0\n", ("--pairs=" + HUGE + ":1",), "--pairs"),
        ("m.json", {"matrix": [["0"]], "eigenvalues": [HUGE]}, (), "eigenvalues"),
        ("m.json", {"matrix": [["0"]], "pairs": [["0", HUGE]]}, (), "pairs"),
        ("o.json", {"field": "R", "classes": [{"re": HUGE, "partition": [1]}]}, (),
         "classes[0].re"),
        ("o.json", {"field": "R", "classes": [{"re": "0", "im": HUGE, "partition": [1]}]}, (),
         "classes[0].im"),
    ])
    def test_huge_decimal_exponent_is_an_input_error(self, tmp_path, capsys, monkeypatch,
                                                     name, content, flags, where):
        fraction = orbit_model.Fraction

        def guarded(*args):
            assert not any(HUGE in str(a) for a in args), "Fraction was handed %r" % (args,)
            return fraction(*args)

        monkeypatch.setattr(orbit_model, "Fraction", guarded)
        path = tmp_path / name
        path.write_text(content if isinstance(content, str) else json.dumps(content),
                        encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s: decimal exponent beyond" % where)
        assert err.count("\n") == 1

    def test_long_token_is_not_echoed_whole(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("0 0\n0 " + "x" * 10 ** 6 + "\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrix row 2: not a rational number: 'xxx")
        assert err.count("\n") == 1 and len(err) < 200
        assert "(1000002 characters)" in err

    @pytest.mark.parametrize("site", ["pairs_flag", "json_list", "json_pairs_entry",
                                      "signs_flag", "count_flag", "seed_flag",
                                      "field_flag", "subcommand", "extra_argument"])
    def test_long_token_is_cut_at_every_echo_site(self, tmp_path, capsys, site):
        token = "y" * 10 ** 6
        matrix = tmp_path / "m.txt"
        matrix.write_text("0 0\n1 0\n", encoding="utf-8")
        spec = write_json(tmp_path, "o.json", REAL_21)
        argv = {
            "pairs_flag": ["classify", str(matrix), "--pairs", token],
            "json_list": ["classify", write_json(tmp_path, "l.json", {
                "matrix": [["0", "0"], ["1", "0"]], "eigenvalues": token})],
            "json_pairs_entry": ["classify", write_json(tmp_path, "p.json", {
                "matrix": [["0", "0"], ["1", "0"]], "pairs": [token]})],
            "signs_flag": ["attach", spec, "--signs", token],
            "count_flag": ["verify", "--corpus", token],
            "seed_flag": ["verify", "--corpus", "1", "--seed", token],
            "field_flag": ["verify", "--corpus", "1", "--field", token],
            "subcommand": [token],
            "extra_argument": ["enumerate", spec, token],
        }[site]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        if site in ("seed_flag", "field_flag", "subcommand", "extra_argument"):
            # argparse's own message, cut and followed by its length
            assert err.endswith(" characters)\n")
        else:
            assert "(1000002 characters)" in err

    def test_json_integer_beyond_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"matrix": [[' + "9" * 5000 + "]]}", encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == "" and err.startswith("error: invalid JSON") and err.count("\n") == 1

    def test_json_number_keeps_digits_beyond_float_precision(self, tmp_path, capsys):
        # through a float, 1.00000000000000000001 would be 1 and the classes equal
        path = tmp_path / "o.json"
        path.write_text('{"field": "C", "classes": [{"re": 1.00000000000000000001, '
                        '"partition": [1]}, {"re": 1, "partition": [1]}]}', encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 0, err
        assert '"100000000000000000001/100000000000000000000"' in out

    def test_json_number_exponent_is_bounded(self, tmp_path, capsys):
        # through a float, 1e-1001 would silently be 0
        path = tmp_path / "m.json"
        path.write_text('{"matrix": [[1e-1001]]}', encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == "" and err == "error: matrix row 1: decimal exponent beyond 1000 in '1e-1001'\n"

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: mirabolic") and captured.err == ""

    @pytest.mark.parametrize("argv", [
        ("verify", "--corpus", "-3"),
        ("verify", "SPEC", "--conjugations", "-5"),
    ])
    def test_negative_count_rejected(self, tmp_path, capsys, argv):
        spec = write_json(tmp_path, "spec.json", UNIPOTENT_21)
        code, out, err = run(capsys, *[spec if a == "SPEC" else a for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: argument --") and err.count("\n") == 1
        assert "expected a nonnegative integer" in err


# ---------------------------------------------------------------- fuzzing
# Arbitrary input must end in exit 0, 1 or 2, never in a traceback.  Orbits
# stay at size <= 6 and matrices at 4x4, so every run is quick.

_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)
_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str)


@st.composite
def _mostly(draw, good):
    """A value from good, or about one time in eight a junk value."""
    # hypothesis favours the ends of a range, so junk sits in the middle
    return draw(_junk) if draw(st.integers(0, 7)) == 5 else draw(good)


_entry = _mostly(st.one_of(_rational, st.integers(-3, 3)))


@st.composite
def _orbit_specs(draw):
    """Mostly well-formed orbit specs of size <= 6, with junk mixed in."""
    field = draw(st.sampled_from(["R", "C"]))
    budget = 6
    classes = []
    for _ in range(draw(st.integers(1, 3))):
        pair = field == "R" and budget >= 2 and draw(st.booleans())
        if not budget:
            break
        parts = []
        while budget >= (2 if pair else 1) and (not parts or draw(st.booleans())):
            part = draw(st.integers(1, budget // (2 if pair else 1)))
            budget -= part * (2 if pair else 1)
            parts.append(part)
        cls = {"re": draw(_entry), "partition": draw(_mostly(st.just(parts)))}
        if pair:
            cls["im"] = draw(_entry)
        classes.append(draw(_mostly(st.just(cls))))
    spec = {"field": draw(_mostly(st.just(field))), "classes": draw(_mostly(st.just(classes)))}
    return draw(_mostly(st.just(spec)))


@st.composite
def _matrix_specs(draw):
    n = draw(st.integers(1, 4))
    width = n - 1 if draw(st.integers(0, 7)) == 5 else n
    cell = _mostly(st.one_of(_rational, st.integers(-3, 3), st.floats(-3, 3)))
    rows = [[draw(cell) for _ in range(width)] for _ in range(n)]
    spec = {"matrix": draw(st.one_of(st.just(rows), _junk))}
    if draw(st.booleans()):
        spec["field"] = draw(_mostly(st.sampled_from(["R", "C"])))
    if draw(st.booleans()):
        spec["eigenvalues"] = draw(_mostly(st.lists(_entry, max_size=3)))
    if draw(st.booleans()):
        spec["pairs"] = draw(_mostly(st.lists(st.lists(_entry, min_size=2, max_size=2),
                                              max_size=2)))
    return spec


def _text_matrices(n):
    return st.lists(st.lists(st.one_of(_rational, st.text(max_size=3)), min_size=n,
                             max_size=n), min_size=n, max_size=n).map(
        lambda rows: "\n".join(" ".join(row) for row in rows))


_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def _conjugation_counts(draw):
    """A count of 0-3, or about one time in eight a token that is no
    nonnegative integer (it has no digits, so no large count is drawn)."""
    if draw(st.integers(0, 7)) == 5:
        return draw(st.sampled_from(["-1", "1.5", "3e0", "0x2", "--1"])
                    | st.text("-+. xe", max_size=3))
    return str(draw(st.integers(0, 3)))


def _run_in_process(path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path)] + list(argv[1:]))
    message = err.getvalue()
    assert code in (0, 1, 2), (code, message)
    if code == 2:
        assert message.startswith("error: ") and message.count("\n") == 1
        assert out.getvalue() == ""
    return code


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(_orbit_specs().map(json.dumps), _matrix_specs().map(json.dumps),
                  st.integers(1, 4).flatmap(_text_matrices), _texts),
        st.sampled_from([[], ["--field", "R"], ["--certificate"]]),
        st.one_of(st.just([]), _rational.map(lambda v: ["--eigenvalues=" + v]),
                  _texts.map(lambda v: ["--pairs=" + v])),
    )
    def test_classify(self, fuzz_path, text, flags, hints):
        fuzz_path.write_text(text, encoding="utf-8")
        _run_in_process(fuzz_path, ["classify"] + flags + hints)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(_orbit_specs().map(json.dumps), _texts),
        st.sampled_from(["attach", "restrict"]),
        st.one_of(st.just([]), st.text("01,; x", max_size=8).map(lambda v: ["--signs=" + v])),
    )
    def test_attach_and_restrict(self, fuzz_path, text, command, signs):
        fuzz_path.write_text(text, encoding="utf-8")
        _run_in_process(fuzz_path, [command] + signs)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(_orbit_specs().map(json.dumps), _texts),
        st.sampled_from([["enumerate"], ["moment"], ["moment", "--all", "--oracle"],
                         ["moment", "--geometry"]]),
    )
    def test_enumerate_and_moment(self, fuzz_path, text, argv):
        fuzz_path.write_text(text, encoding="utf-8")
        _run_in_process(fuzz_path, argv)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(_orbit_specs().map(json.dumps), _texts),
        _conjugation_counts(),
        st.integers(-2 ** 70, 2 ** 70),
    )
    def test_verify(self, fuzz_path, text, conjugations, seed):
        fuzz_path.write_text(text, encoding="utf-8")
        _run_in_process(fuzz_path, ["verify", "--conjugations=" + conjugations,
                                    "--seed=%d" % seed])
