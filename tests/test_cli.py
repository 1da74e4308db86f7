"""CLI behavior: exit codes, output formats, atomic writes, determinism."""

import pathlib

import pytest

from invarc.cli import run

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    code, _, err = invoke(capsys)
    assert code == 1
    assert "usage error" in err


def test_unknown_command(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_verify_series_text(capsys):
    code, out, err = invoke(capsys, "verify-series")
    assert code == 0
    assert err == ""
    assert out.startswith("working order: 12\n")
    assert "reference check: 52 coefficients match" in out
    assert "31/36" in out  # fourth partial numerator
    assert out.endswith("\n")


def test_verify_series_rejects_low_order(capsys):
    code, _, err = invoke(capsys, "verify-series", "--order", "6")
    assert code == 1
    assert "at least 8" in err


def test_verify_series_tsv_golden(capsys):
    code, out, _ = invoke(capsys, "verify-series", "--format", "tsv")
    assert code == 0
    expected = (FIXTURES / "verify_series_order12.tsv").read_text()
    assert out == expected


def test_verify_series_out_file(tmp_path, capsys):
    target = tmp_path / "sub" / "table.tsv"
    target.parent.mkdir()
    code, out, _ = invoke(
        capsys, "verify-series", "--format", "tsv", "--out", str(target)
    )
    assert code == 0
    assert out == ""  # everything went to the file
    assert target.read_text() == (FIXTURES / "verify_series_order12.tsv").read_text()
    # no temp files left behind
    assert [p.name for p in target.parent.iterdir()] == ["table.tsv"]


def test_cfrac_default(capsys):
    code, out, _ = invoke(capsys, "cfrac")
    assert code == 0
    assert "partial numerators: 1/2, 3/4, 3/4, 31/36, 911/1116" in out
    assert "frozen" not in out


def test_cfrac_freeze_collapses(capsys):
    code, out, _ = invoke(capsys, "cfrac", "--freeze", "3/4")
    assert code == 0
    assert "frozen from a_2: 1/2, 3/4, 3/4, 3/4, 3/4 (periodic)" in out
    assert "tail closed form: (1 + sqrt(1 - 3h))/2" in out
    assert "closed form: 4h - 3h^2/(2 + sqrt(1 - 3h))" in out


def test_cfrac_freeze_wrong_value_reports_no_collapse(capsys):
    code, out, _ = invoke(capsys, "cfrac", "--freeze", "2/3")
    assert code == 0
    assert "closed form: none" in out


def test_cfrac_bad_fraction(capsys):
    code, _, err = invoke(capsys, "cfrac", "--freeze", "abc")
    assert code == 1
    assert "not a fraction" in err


def test_cfrac_freeze_from_out_of_range(capsys):
    code, _, err = invoke(capsys, "cfrac", "--depth", "3", "--freeze", "3/4",
                          "--freeze-from", "9")
    assert code == 2
    assert err != ""


def test_error_table_default_grid(capsys):
    code, out, err = invoke(capsys, "error-table")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "lambda\th\tlambda_sq_true\tlambda_sq_approx\tdiff\tnormalized"
    assert len(lines) == 22  # header + 21 grid rows
    first = lines[1].split("\t")
    assert first[0] == "0" and first[5] == "-1"


def test_error_table_is_deterministic(capsys):
    code1, out1, _ = invoke(capsys, "error-table", "--steps", "8")
    code2, out2, _ = invoke(capsys, "error-table", "--steps", "8")
    assert code1 == code2 == 0
    assert out1 == out2


def test_error_table_bad_range(capsys):
    code, _, err = invoke(capsys, "error-table", "--lambda-min", "0.5",
                          "--lambda-max", "0.1")
    assert code == 1
    assert "usage error" in err


def test_error_table_out_of_domain(capsys):
    code, _, err = invoke(capsys, "error-table", "--lambda-max", "1.0")
    assert code == 1  # rejected before the sweep: max must stay below 1
    assert "usage error" in err


def test_error_table_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "rows.tsv"
    target.write_text("stale\n")
    code, _, _ = invoke(capsys, "error-table", "--steps", "4", "--out", str(target))
    assert code == 0
    content = target.read_text()
    assert content.startswith("lambda\t")
    assert "stale" not in content
    assert [p.name for p in tmp_path.iterdir()] == ["rows.tsv"]


def test_invert_output(capsys):
    code, out, _ = invoke(
        capsys, "invert", "--perimeter", "9.688448220547675", "--sum", "3.0"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("a: 2.000000000")
    assert lines[1].startswith("b: 0.99999999")
    assert lines[2].startswith("lambda: 0.3333333333")
    assert lines[3].startswith("h: 0.027976283460026")


def test_invert_out_of_range(capsys):
    code, _, err = invoke(capsys, "invert", "--perimeter", "3.0", "--sum", "1.0")
    assert code == 2
    assert "below the circle bound" in err


def test_invert_requires_arguments(capsys):
    code, _, err = invoke(capsys, "invert", "--perimeter", "5.0")
    assert code == 1
    assert "required" in err


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "invarc", "cfrac", "--depth", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "31/36" in proc.stdout


ERROR_TABLE_ARGS = ("error-table", "--lambda-min", "0.36", "--lambda-max", "0.4", "--steps", "1")
INVERT_ARGS = ("invert", "--perimeter", "7", "--sum", "2")
FLOAT_FLAGS = {
    "--lambda-min": ERROR_TABLE_ARGS,
    "--lambda-max": ERROR_TABLE_ARGS,
    "--abs-tol": ERROR_TABLE_ARGS,
    "--perimeter": INVERT_ARGS,
    "--sum": INVERT_ARGS,
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", list(FLOAT_FLAGS))
def test_non_finite_float_flags_are_rejected(capsys, flag, value):
    # the later occurrence of a flag wins; "--flag=-inf" keeps argparse
    # from reading the value as an option
    code, out, err = invoke(capsys, *FLOAT_FLAGS[flag], f"{flag}={value}")
    assert code in (1, 2), err
    assert out == ""


@pytest.mark.parametrize("value", ["1", "1e300", "1e-3"])
def test_abs_tol_above_the_ceiling_is_rejected(capsys, value):
    # a loose AGM stop printed a wrong table with exit 0 (at 1 the AGM ran
    # no iteration and normalized came out near -2.5e6)
    code, out, err = invoke(capsys, *ERROR_TABLE_ARGS, "--abs-tol", value)
    assert code == 2
    assert out == ""
    assert "abs_tol must be at most 1e-08" in err


def test_abs_tol_at_the_ceiling_matches_the_default(capsys):
    default = invoke(capsys, *ERROR_TABLE_ARGS)
    assert invoke(capsys, *ERROR_TABLE_ARGS, "--abs-tol", "1e-8") == default
    assert default[0] == 0


def test_abs_tol_below_float_resolution_still_reports_no_convergence(capsys):
    code, out, err = invoke(
        capsys, "error-table", "--lambda-min", "0.3501", "--lambda-max", "0.3501",
        "--steps", "1", "--abs-tol", "1e-16",
    )
    assert code == 2
    assert out == ""
    assert err == "error: AGM did not converge in 64 iterations\n"


def test_runtime_imports_only_the_standard_library():
    import subprocess
    import sys

    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import invarc, invarc.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "invarc.cli" in loaded
    foreign = {"scipy", "mpmath", "sympy", "hypothesis", "numpy"}
    assert [m for m in loaded if m.split(".")[0] in foreign] == []
