import json

import pytest

from mirabolic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


UNIPOTENT_21 = {"field": "C", "classes": [{"re": "0", "partition": [2, 1]}]}
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
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'Q'" in captured.err
