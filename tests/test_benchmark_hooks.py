"""The benchmark's hooks into the package still work.

perfbench/child.py runs one CLI call in a fresh interpreter and, in its
traced mode, wraps package functions by name; in its probe mode it times
the derivation ladder and replays an error-table grid row by row.  A
rename or removal that breaks either shows here, in the regular suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"

VERIFY = ["verify-series", "--order", "8", "--format", "tsv"]
# rows at 0.3 and 0.35 take the exact path, the row at 0.4 the float path
SWEEP = ["error-table", "--lambda-min", "0.3", "--lambda-max", "0.4", "--steps", "2"]


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv", [VERIFY, SWEEP], ids=["verify-series", "error-table"])
def test_traced_child_prints_what_the_cli_prints(tmp_path, argv):
    report = tmp_path / "spans"
    traced = _python(str(CHILD), str(report), "traced", *argv)
    cli = _python("-m", "invarc", *argv)
    assert (traced.returncode, traced.stdout) == (cli.returncode, cli.stdout)
    assert cli.returncode == 0
    with open(report, "rb") as handle:
        names = json.loads(handle.readline())["names"]
    assert "cli.run" in names
    if argv is VERIFY:
        assert {
            "derivation.full_report", "derivation.true_inverse", "derivation.closed_form"
        } <= set(names)
    else:
        assert "numeric.sweep" in names


@pytest.mark.parametrize("argv", [VERIFY, SWEEP], ids=["verify-series", "error-table"])
def test_probe_child_times_the_ladder_and_each_sweep_row(tmp_path, argv):
    report = tmp_path / "probe.json"
    probe = _python(str(CHILD), str(report), "probe", *argv)
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "", "")
    timings = json.loads(report.read_text())
    assert set(timings["ladder"]) == {
        "true_inverse.o12", "true_inverse.o24", "true_inverse.o36", "true_inverse.o40",
        "cfrac_expand.o36",
    }
    paths = [exact for exact, _ in timings["rows"]]
    assert paths == ([1, 1, 0] if argv is SWEEP else [])
