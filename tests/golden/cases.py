"""Golden CLI cases: stdout bytes, exit code and stderr of fast commands.

Each case runs mirabolic.cli.main in-process and compares against the files
recorded beside this module: <name>.stdout holds the exact stdout,
results.json the exit code and stderr of every case.  Only the standard
library is used, so the table is checked without pytest:

    PYTHONPATH=src python tests/golden/cases.py            # check every case
    PYTHONPATH=src python tests/golden/cases.py --record   # re-record them

A check prints one line per mismatch and exits 1 if any case differs.
Re-record only after an intended change of output.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

from mirabolic.cli import main

GOLDEN = Path(__file__).resolve().parent
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


def run(argv):
    """(exit code, stdout, stderr) of the CLI on argv, run in-process."""
    argv = [str(INPUTS / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def recorded(name):
    """(exit code, stdout, stderr) recorded for the case name."""
    result = json.loads((GOLDEN / "results.json").read_text(encoding="utf-8"))[name]
    stdout = (GOLDEN / (name + ".stdout")).read_text(encoding="utf-8")
    return result["exit"], stdout, result["stderr"]


def mismatches():
    """One line per case and stream that differs from its recording."""
    lines = []
    for name, argv in sorted(CASES.items()):
        for stream, got, want in zip(("exit code", "stdout", "stderr"),
                                     run(argv), recorded(name)):
            if got != want:
                lines.append("%s: %s differs from the recording" % (name, stream))
    return lines


def record():
    results = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = run(argv)
        (GOLDEN / (name + ".stdout")).write_text(out, encoding="utf-8")
        results[name] = {"exit": code, "stderr": err}
    (GOLDEN / "results.json").write_text(json.dumps(results, indent=2) + "\n",
                                         encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif sys.argv[1:]:
        sys.exit("usage: python tests/golden/cases.py [--record]")
    else:
        failed = mismatches()
        print("\n".join(failed) if failed else "all %d golden cases match" % len(CASES))
        sys.exit(1 if failed else 0)
