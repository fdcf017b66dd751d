"""Golden CLI outputs: stdout bytes, exit code and stderr of fast commands.

Each case runs cli.main in-process and compares against the files recorded
under tests/golden/: <name>.stdout holds the exact stdout, results.json the
exit code and stderr of every case.  After an intended change of output,
re-record with

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirabolic.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# name -> argv; an entry "@file" is the path of tests/golden/inputs/file
CASES = {
    "classify_json_hints": ["classify", "@pair_conjugate.json", "--certificate"],
    "classify_orbit_spec": ["classify", "@mixed_real.json", "--certificate"],
    "classify_pairs_0_1": ["classify", "@rotation.txt", "--field", "R",
                           "--eigenvalues", "0", "--pairs", "0:1", "--certificate"],
    "classify_pairs_0_minus_1": ["classify", "@rotation.txt", "--field", "R",
                                 "--eigenvalues", "0", "--pairs", "0:-1"],
    "classify_pairs_0_0": ["classify", "@rotation.txt", "--field", "R",
                           "--pairs", "0:0,0:1"],
    "classify_pairs_0_0_alone": ["classify", "@rotation.txt", "--field", "R",
                                 "--pairs", "0:0"],
    "classify_complex_field_pair": ["classify", "@rotation.txt", "--field", "C",
                                    "--eigenvalues", "0", "--pairs", "0:1"],
    "enumerate": ["enumerate", "@mixed_real.json"],
    "enumerate_three_classes": ["enumerate", "@three_classes.json"],
    "moment_all_oracle": ["moment", "@complex_21.json", "--all", "--oracle"],
    "moment_geometry": ["moment", "@mixed_real.json", "--geometry"],
    "attach": ["attach", "@real_classes.json", "--signs", "1,0;1"],
    "restrict": ["restrict", "@real_classes.json", "--signs", "0,1;0"],
    "verify_corpus": ["verify", "--corpus", "3", "--field", "R", "--conjugations", "5"],
    "classify_mixed_denominators": ["classify", "@mixed_denominators.json", "--certificate"],
    "verify_corpus_complex": ["verify", "--corpus", "4", "--field", "C", "--conjugations", "5"],
    "moment_geometry_north_star": ["moment", "@north_star.json", "--geometry"],
    "moment_geometry_repeated_parts": ["moment", "@repeated_parts.json", "--geometry"],
    "classify_north_star_dense": ["classify", "@north_star_dense.json", "--certificate"],
}


def _run(argv):
    argv = [str(INPUTS / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _results():
    return json.loads((GOLDEN / "results.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = _run(CASES[name])
    expected = _results()[name]
    assert (code, err) == (expected["exit"], expected["stderr"])
    assert out == (GOLDEN / (name + ".stdout")).read_text(encoding="utf-8")


def test_module_entry_point():
    # python -m mirabolic runs __main__.py, which the in-process cases never reach
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mirabolic", "enumerate", str(INPUTS / "mixed_real.json")],
        capture_output=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "enumerate.stdout").read_text(encoding="utf-8")


def _record():
    results = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = _run(argv)
        (GOLDEN / (name + ".stdout")).write_text(out, encoding="utf-8")
        results[name] = {"exit": code, "stderr": err}
    (GOLDEN / "results.json").write_text(json.dumps(results, indent=2) + "\n",
                                         encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_cli.py --record")
    _record()
