"""Golden CLI outputs: stdout bytes, exit code and stderr of fast commands.

The cases, their runner and the recorder live in tests/golden/cases.py,
which needs no pytest; this module replays the same table under pytest.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.cases import CASES, GOLDEN, INPUTS, recorded, run

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = run(CASES[name])
    expected_code, expected_out, expected_err = recorded(name)
    assert (code, err) == (expected_code, expected_err)
    assert out == expected_out


def test_module_entry_point():
    # python -m mirabolic runs __main__.py, which the in-process cases never reach
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mirabolic", "enumerate", str(INPUTS / "mixed_real.json")],
        capture_output=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "enumerate.stdout").read_text(encoding="utf-8")

