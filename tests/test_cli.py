"""CLI behavior: exit codes, output formats, atomic writes, determinism."""

import contextlib
import io
import math
import os
import pathlib
import shlex
import stat
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invarc import cli, numeric
from invarc.cli import run
from invarc.reference import CFRAC_PARTIALS, REFERENCE_SERIES

from series_helpers import FINITE, measurements, rows

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


def test_help_exits_zero(capsys, monkeypatch):
    # argparse prints every help text: the top level's and each command's
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
    for argv, shown in [((), parser), *(((name,), sub) for name, sub in commands.items())]:
        assert invoke(capsys, *argv, "--help") == (0, shown.format_help(), "")
    assert list(commands) == ["verify-series", "cfrac", "error-table", "invert"]
    # the program's name and, under the usage line, the docstring's first line
    assert parser.format_help().startswith("usage: invarc [-h]")
    assert parser.format_help().split("\n\n")[1] == "Command-line front end."
    assert commands["invert"].format_help().startswith("usage: invarc invert [-h]")


@pytest.mark.parametrize("argv, flag", [
    (("error-table", "--lambda-min", "x"), "--lambda-min"),
    (("invert", "--perimeter", "x", "--sum", "2"), "--perimeter"),
])
def test_a_float_flag_that_does_not_convert_names_its_type(capsys, argv, flag):
    # argparse names the converter it was given, float, not a wrapper
    assert invoke(capsys, *argv) == (
        1, "", f"usage error: argument {flag}: invalid float value: 'x'\n"
    )


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
    code, _, err = invoke(capsys, "verify-series", "--order", "8.5")
    assert code == 1
    assert err == "usage error: argument --order: not an integer: '8.5'\n"


def test_verify_series_tsv_golden(capsys):
    code, out, err = invoke(capsys, "verify-series", "--format", "tsv")
    assert (code, err) == (0, "")
    expected = (FIXTURES / "verify_series_order12.tsv").read_text()
    assert out == expected


def test_verify_series_order_40_tsv_golden(capsys):
    # the benchmark's derive argv, byte for byte
    code, out, err = invoke(capsys, "verify-series", "--order", "40", "--format", "tsv")
    assert (code, err) == (0, "")
    assert out.encode() == (FIXTURES / "verify_series_order40.tsv").read_bytes()


def test_verify_series_text_golden(capsys):
    code, out, err = invoke(capsys, "verify-series", "--order", "12")
    assert (code, err) == (0, "")
    expected = (FIXTURES / "report_order12.txt").read_text()
    assert out == expected + "reference check: 52 coefficients match\n"


@pytest.mark.parametrize("argv", [("--order=12",), ("--ord", "12")], ids=["flag=value", "abbrev"])
def test_verify_series_text_golden_through_argparse(capsys, argv):
    # spellings the plain reader declines, so argparse reads them
    assert cli._read_plain(["verify-series", *argv]) is None
    code, out, err = invoke(capsys, "verify-series", *argv)
    expected = (FIXTURES / "report_order12.txt").read_bytes()
    assert (code, out.encode(), err) == (0, expected + b"reference check: 52 coefficients match\n", "")


def test_verify_series_order_80_tsv_begins_with_the_order_40_table(capsys):
    # a higher order changes no coefficient it shares with a lower one: the
    # header, the series rows through h^40 and the partials through a_38
    code, out, err = invoke(capsys, "verify-series", "--order", "80", "--format", "tsv")
    assert (code, err) == (0, "")
    header, *lines = out.splitlines(keepends=True)
    kept = [line for line in lines
            if int(line.split("\t")[1]) <= (38 if line.startswith("cfrac-partials\t") else 40)]
    assert (header + "".join(kept)).encode() == (FIXTURES / "verify_series_order40.tsv").read_bytes()


def test_verify_series_reports_a_reference_mismatch(monkeypatch, capsys):
    # three wrong references, in table order: two series, then a partial
    monkeypatch.setitem(REFERENCE_SERIES["true"], 6, Fraction(-1))
    monkeypatch.setitem(REFERENCE_SERIES["difference"], 6, Fraction(1))
    partials = (Fraction(1, 2), Fraction(9, 4), *CFRAC_PARTIALS[2:])
    # cli reads the table from invarc.reference when verify-series runs
    monkeypatch.setattr("invarc.reference.CFRAC_PARTIALS", partials)
    code, out, err = invoke(capsys, "verify-series")
    assert (code, err) == (2, "")
    assert out == (FIXTURES / "report_order12.txt").read_text() + (
        "MISMATCH true [6]: computed -273/128, reference -1\n"
        "MISMATCH difference [6]: computed -1/32, reference 1\n"
        "MISMATCH cfrac-partials [2]: computed 3/4, reference 9/4\n"
        "reference check: 3 of 52 mismatch\n"
    )
    code, out, err = invoke(capsys, "verify-series", "--format", "tsv")
    assert (code, err) == (2, "")
    expected = (FIXTURES / "verify_series_order12.tsv").read_text()
    for row, reference in (
        ("true\t6\t-273/128", "-1"),
        ("difference\t6\t-1/32", "1"),
        ("cfrac-partials\t2\t3/4", "9/4"),
    ):
        line = f"\n{row}\treference\n"
        assert expected.count(line) == 1
        expected = expected.replace(line, f"\n{row}\tmismatch(expected {reference})\n")
    assert out == expected


def test_usage_errors_from_parsing_and_from_a_handler_print_alike(capsys):
    code, out, err = invoke(capsys, "cfrac", "--depth", "0")
    assert (code, out) == (1, "")
    assert err == "usage error: argument --depth: must be at least 1, got 0\n"
    code, out, err = invoke(capsys, "error-table", "--lambda-min", "0.3", "--lambda-max", "0.1")
    assert (code, out) == (1, "")
    assert err == "usage error: need 0 <= lambda-min <= lambda-max < 1, got 0.3 and 0.1\n"


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


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_out_file_gets_the_mode_of_a_plain_write(tmp_path, capsys, umask):
    # a new file gets what open() gives it, 0666 less the umask; a file
    # that exists keeps its permission bits, as a plain write leaves them
    modes = {tmp_path / "table.tsv": 0o666 & ~umask}
    for mode in (0o600, 0o640):
        target = tmp_path / f"existing-{mode:o}.tsv"
        target.write_text("stale\n")
        target.chmod(mode)
        modes[target] = mode
    previous = os.umask(umask)
    try:
        codes = [invoke(capsys, "verify-series", "--out", str(target))[0] for target in modes]
    finally:
        os.umask(previous)
    assert codes == [0] * len(modes)
    assert {target: target.stat().st_mode & 0o777 for target in modes} == modes


@pytest.mark.parametrize("name", ["missing/table.tsv", "a_directory"])
def test_out_unwritable_target_is_one_error_line(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    target = tmp_path / name
    code, out, err = invoke(capsys, "verify-series", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1
    # no temp file left behind, in the target's directory or next to it
    assert [p.name for p in tmp_path.iterdir()] == ["a_directory"]
    assert list((tmp_path / "a_directory").iterdir()) == []


def test_out_failed_rename_is_one_error_line(tmp_path, capsys, monkeypatch):
    target = tmp_path / "table.tsv"
    target.write_text("stale\n")

    def refuse(src, dst):
        raise OSError(13, "rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = invoke(capsys, "verify-series", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: rename refused\n"
    # the old file is kept and the .invarc-* temp file removed
    assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]
    assert target.read_text() == "stale\n"


def test_out_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "table.tsv"
    target.write_text("stale\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    code, _, _ = invoke(capsys, "verify-series", "--format", "tsv", "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert target.read_text() == (FIXTURES / "verify_series_order12.tsv").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "table.tsv"]


def test_out_writes_into_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a non-blocking reader lets the writer open the FIFO without a second
    # thread; the output is far smaller than the pipe buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = invoke(capsys, "cfrac", "--depth", "2", "--out", str(fifo))
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert code == 0
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == invoke(capsys, "cfrac", "--depth", "2")[1]
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


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


def test_cfrac_depth_30_freeze_golden(capsys):
    code, out, err = invoke(capsys, "cfrac", "--depth", "30", "--freeze", "3/4")
    assert (code, err) == (0, "")
    assert out.encode() == (FIXTURES / "cfrac_depth30_freeze.txt").read_bytes()


def test_cfrac_one_partial_is_refused_at_the_repeated_tail(capsys):
    # the one partial is the required 1/2, but frozen from a_1 it repeats,
    # and the closed form's second partial is 3/4
    code, out, err = invoke(capsys, "cfrac", "--depth", "1", "--freeze", "1/2",
                            "--freeze-from", "1")
    assert (code, err) == (0, "")
    assert out == (
        "source: true inverse series through x^3\n"
        "leading coefficient: 4\n"
        "head numerator coefficient: 1\n"
        "partial numerators: 1/2\n"
        "frozen from a_1: 1/2 (periodic)\n"
        "tail closed form: (1 + sqrt(1 - 2h))/2\n"
        "closed form: none (partial numerator 2 is 1/2, need 3/4)\n"
    )


DEPTH_6_HEAD = (
    "source: true inverse series through x^8\n"
    "leading coefficient: 4\n"
    "head numerator coefficient: 1\n"
    "partial numerators: 1/2, 3/4, 3/4, 31/36, 911/1116, 25323/28241\n"
)


def test_cfrac_freeze_from_3_collapses(capsys):
    # a2 = a3 = 3/4 already, so freezing from a_3 gives the same fraction
    code, out, err = invoke(capsys, "cfrac", "--depth", "6", "--freeze", "3/4",
                            "--freeze-from", "3")
    assert (code, err) == (0, "")
    assert out == DEPTH_6_HEAD + (
        "frozen from a_3: 1/2, 3/4, 3/4, 3/4, 3/4, 3/4 (periodic)\n"
        "tail closed form: (1 + sqrt(1 - 3h))/2\n"
        "closed form: 4h - 3h^2/(2 + sqrt(1 - 3h))\n"
    )


def test_cfrac_freeze_from_5_keeps_a4_and_is_refused(capsys):
    code, out, err = invoke(capsys, "cfrac", "--depth", "6", "--freeze", "3/4",
                            "--freeze-from", "5")
    assert (code, err) == (0, "")
    assert out == DEPTH_6_HEAD + (
        "frozen from a_5: 1/2, 3/4, 3/4, 31/36, 3/4, 3/4 (periodic)\n"
        "tail closed form: (1 + sqrt(1 - 3h))/2\n"
        "closed form: none (partial numerator 4 is 31/36, need 3/4)\n"
    )


def test_cfrac_bad_fraction(capsys):
    code, _, err = invoke(capsys, "cfrac", "--freeze", "abc")
    assert code == 1
    assert "not a fraction" in err


def test_cfrac_freeze_from_out_of_range(capsys):
    # a freeze index past the depth is refused with one error line and no output
    for depth, start in (("3", "9"), ("6", "7")):
        assert invoke(capsys, "cfrac", "--depth", depth, "--freeze", "3/4",
                      "--freeze-from", start) == (
            2, "", f"error: freeze index {start} outside 1..{depth}\n"
        )


def test_cfrac_freeze_from_needs_freeze(capsys):
    # without --freeze it used to print the plain expansion and exit 0
    assert invoke(capsys, "cfrac", "--depth", "3", "--freeze-from", "2") == (
        1, "", "usage error: --freeze-from needs --freeze\n"
    )


def test_cfrac_expands_the_source_it_names(capsys, monkeypatch):
    # the first line's order is the order of the series expanded
    from invarc import derivation

    orders = []
    real = derivation.true_inverse_series

    def recording(order):
        orders.append(order)
        return real(order)

    monkeypatch.setattr(derivation, "true_inverse_series", recording)
    code, out, _ = invoke(capsys, "cfrac", "--depth", "4")
    assert (code, orders) == (0, [6])
    assert out.startswith("source: true inverse series through x^6\n")


def test_error_table_default_grid(capsys):
    code, out, err = invoke(capsys, "error-table")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "lambda\th\tlambda_sq_true\tlambda_sq_approx\tdiff\tnormalized"
    assert len(lines) == 22  # header + 21 grid rows
    first = lines[1].split("\t")
    assert first[0] == "0" and first[5] == "-1"


# the first two grids keep every row on the exact path: an ordinary one, and
# one where lambda^2 underflows, so h, lambda^2, approx and diff print as 0
# or -0 while normalized, a ratio of integers of thousands of bits, prints as
# -1; the third has one exact row at the cutoff and 320 float (AGM) rows
@pytest.mark.parametrize(
    "fixture, lo, hi, steps",
    [
        ("error_table_exact.tsv", "0", "0.35", "350"),
        ("error_table_tiny.tsv", "5e-324", "1e-300", "20"),
        ("error_table_float.tsv", "0.35", "0.99", "320"),
    ],
)
def test_error_table_golden(capsys, monkeypatch, fixture, lo, hi, steps):
    # each exact-path row is computed once: none needs a Ziv retry
    tried = []
    fixed_point_row = numeric._fixed_point_row

    def recording(lam, X, s, P):
        tried.append(lam)
        return fixed_point_row(lam, X, s, P)

    monkeypatch.setattr(numeric, "_fixed_point_row", recording)
    code, out, err = invoke(
        capsys, "error-table", "--lambda-min", lo, "--lambda-max", hi, "--steps", steps
    )
    assert (code, err) == (0, "")
    assert out.encode() == (FIXTURES / fixture).read_bytes()
    lams = [float(line.split("\t", 1)[0]) for line in out.splitlines()[1:]]
    assert tried == [lam for lam in lams if 0 < lam <= numeric.EXACT_SWEEP_CUTOFF]


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


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_a_stray_builtin_arithmetic_error_is_one_error_line(capsys, monkeypatch, error):
    # run() catches ArithmeticError, the base of every layer's refusal, so a
    # builtin one exits 2 with its message rather than as a traceback
    def sweep(grid, cfg):
        raise error("x")

    monkeypatch.setattr(cli, "error_sweep", sweep)
    assert invoke(capsys, "error-table") == (2, "", "error: x\n")


def test_error_table_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "rows.tsv"
    target.write_text("stale\n")
    code, _, _ = invoke(capsys, "error-table", "--steps", "4", "--out", str(target))
    assert code == 0
    content = target.read_text()
    assert content.startswith("lambda\t")
    assert "stale" not in content
    assert [p.name for p in tmp_path.iterdir()] == ["rows.tsv"]


@pytest.mark.parametrize("gone", [False, True], ids=["present", "gone"])
def test_out_interrupted_write_removes_its_temp_file_and_reraises(tmp_path, gone):
    # not only an Exception: an interrupt part way removes the temp file
    # too, and an unlink that fails as well (the temp file already gone)
    # does not hide what interrupted the write
    def pieces():
        yield "lambda\n"
        if gone:
            for stray in tmp_path.glob(".invarc-*"):
                stray.unlink()
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cli._write_out(pieces(), str(tmp_path / "rows.tsv"))
    assert list(tmp_path.iterdir()) == []


def test_out_temp_file_names_are_fresh(tmp_path, capsys, monkeypatch):
    # each --out write renames its own .invarc-* file, never a fixed name
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append(os.path.basename(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    argv = ("error-table", "--steps", "1", "--out", str(tmp_path / "rows.tsv"))
    assert [invoke(capsys, *argv) for _ in range(2)] == [(0, "", "")] * 2
    assert len(set(renamed)) == 2, renamed
    assert all(name.startswith(".invarc-") for name in renamed), renamed


def _one_shot_error_table(lo, hi, steps):
    # the rendering error-table had before it swept in blocks: one sweep over
    # the whole grid and one join
    span = hi - lo
    grid = [lo + span * i / steps for i in range(steps + 1)]
    table = rows(cli.error_sweep(grid, numeric.DEFAULT_CONFIG))
    header = "\t".join(numeric.ERROR_TABLE_COLUMNS)
    lines = ["\t".join(f"{v:.17g}" for v in row) for row in table]
    return "\n".join([header, *lines, ""])


@given(st.tuples(*[st.floats()] * 6))
@example((math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324))
@example((1.7976931348623157e308, -5e-324, -math.nan, 1.0, -1.0, 0.1))
def test_error_row_format_prints_every_float_as_17g(values):
    # the bytes format error-table renders with gives str's digits for any float
    assert (cli._ERROR_ROW_FORMAT % values).decode() == "\t".join(f"{v:.17g}" for v in values)


def _error_table_argv(lo, hi, steps):
    return ["error-table", "--lambda-min", repr(lo), "--lambda-max", repr(hi),
            "--steps", str(steps)]


# rows per block; the row counts and calls below follow it
B = cli._SWEEP_BLOCK


# --steps is at least 1, so 2 rows is the smallest table; the grids on
# 0.3..0.4 cross the exact/float cutoff at 0.35, so blocks mix both row
# paths, and their row counts straddle the ends of the first, second,
# fourth and eighth blocks; the last two are 3,001 rows (12 blocks, the
# last one partial) and the benchmark's 50,001-row float table (196
# blocks); each id is the row count
@pytest.mark.parametrize("lo, hi, steps", [
    *(pytest.param(0.3, 0.4, rows - 1, id=str(rows))
      for rows in (2, B - 1, B, B + 1, 2 * B, 2 * B + 1, 4 * B - 1, 4 * B, 4 * B + 1,
                   8 * B, 8 * B + 1)),
    pytest.param(0.3, 0.99, 3000, id="3001"),
    pytest.param(0.36, 0.99, 50000, id="50001"),
])
def test_error_table_blocks_match_the_one_shot_rendering(tmp_path, capsys, lo, hi, steps):
    # the size test_error_table_peak_with_the_real_sweep_is_one_block measured
    assert cli._SWEEP_BLOCK == 256
    argv = _error_table_argv(lo, hi, steps)
    expected = _one_shot_error_table(lo, hi, steps)
    assert expected.count("\n") == steps + 2
    assert invoke(capsys, *argv) == (0, expected, "")
    target = tmp_path / "rows.tsv"
    assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode()


@pytest.mark.parametrize("rows, blocks", [(4 * B, [B] * 4), (8 * B, [B] * 8),
                                          (8 * B + 1, [B] * 8 + [1]), (B, [B]),
                                          (2 * B, [B, B]), (2 * B + 1, [B, B, 1])])
def test_error_table_sweeps_full_blocks_and_no_empty_one(capsys, monkeypatch, rows, blocks):
    calls = []

    def sweep(grid, cfg):
        calls.append(len(grid))
        return [value for lam in grid for value in (lam, 0.0, 0.0, 0.0, 0.0, -1.25)]

    monkeypatch.setattr(cli, "error_sweep", sweep)
    code, out, _ = invoke(capsys, *_error_table_argv(0.3, 0.4, rows - 1))
    assert (code, out.count("\n"), calls) == (0, rows + 1, blocks)


def _target_argv(argv, tmp_path, target):
    # argv writing to stdout (None) or to --out rows.tsv, absent or existing
    out = tmp_path / "rows.tsv"
    if target == "existing":
        out.write_text("stale\n")
    return argv if target is None else [*argv, "--out", str(out)]


def _assert_target_untouched(tmp_path, target):
    # no table, no .invarc-* temp file, and an existing target as it was
    expected = ["rows.tsv"] if target == "existing" else []
    assert [p.name for p in tmp_path.iterdir()] == expected
    if target == "existing":
        assert (tmp_path / "rows.tsv").read_text() == "stale\n"


# the block the fake sweep fails in: the second (ids None, absent and
# existing) or the first
@pytest.mark.parametrize("target, failing", [
    *(pytest.param(target, 2, id=str(target)) for target in (None, "absent", "existing")),
    *(pytest.param(target, 1, id=f"{target}-first") for target in (None, "absent", "existing")),
])
def test_error_table_refusal_in_a_later_block_writes_nothing(
    tmp_path, capsys, monkeypatch, target, failing
):
    # a failure no check before the sweep can foresee (a fake sweep's) comes
    # after every earlier block is written: in the second, a partial one,
    # stdout keeps the header and the first B rows, in the first it keeps nothing,
    # then the one error line; --out writes nothing, though its temp file
    # is open while the first block is swept
    calls = []

    def sweep(grid, cfg):
        calls.append(len(grid))
        if len(calls) == failing:
            raise numeric.NumericError("refused in a block")
        return [value for lam in grid for value in (lam, 0.0, 0.0, 0.0, 0.0, -1.25)]

    monkeypatch.setattr(cli, "error_sweep", sweep)
    steps = B + B // 2  # a full block, then one of B // 2 + 1 rows
    written = ""
    if target is None and failing == 2:  # the header and the first block
        table = _one_shot_error_table(0.0, 0.2, steps)
        written = "".join(table.splitlines(keepends=True)[:B + 1])
        calls.clear()
    argv = _target_argv(_error_table_argv(0.0, 0.2, steps), tmp_path, target)
    code, stdout, err = invoke(capsys, *argv)
    assert (code, stdout, err) == (2, written, "error: refused in a block\n")
    assert calls == [B, B // 2 + 1][:failing]
    _assert_target_untouched(tmp_path, target)


# 0.3 + (0.9999999999999999 - 0.3) * 2049 / 2049 rounds up to 1.0
OVERSHOOT = ("error-table", "--lambda-min", "0.3", "--lambda-max", "0.9999999999999999",
             "--steps", "2049")


@pytest.mark.parametrize("target", [None, "absent", "existing"])
def test_error_table_overshoot_is_refused_before_any_row(tmp_path, capsys, monkeypatch, target):
    # the last grid point is the only one that can leave [0, 1): it is
    # refused with the sweep's own message before any row is swept
    calls = []
    real_sweep = cli.error_sweep

    def sweep(grid, cfg):
        calls.append(len(grid))
        return real_sweep(grid, cfg)

    monkeypatch.setattr(cli, "error_sweep", sweep)
    argv = _target_argv(list(OVERSHOOT), tmp_path, target)
    assert invoke(capsys, *argv) == (2, "", "error: lambda = 1.0 outside [0, 1)\n")
    assert calls == []
    _assert_target_untouched(tmp_path, target)


@pytest.mark.parametrize("argv, expected", [
    (("--freeze-from", "3"), (1, "usage error: --freeze-from needs --freeze\n")),
    (("--freeze", "3/4", "--freeze-from", "7"), (2, "error: freeze index 7 outside 1..5\n")),
], ids=["freeze-from-alone", "freeze-from-past-depth"])
@pytest.mark.parametrize("target", ["absent", "existing"])
def test_cfrac_refusal_with_out_writes_nothing(tmp_path, capsys, target, argv, expected):
    # cfrac refuses in its handler before run() opens the --out temp file
    argv = _target_argv(["cfrac", *argv], tmp_path, target)
    code, stdout, err = invoke(capsys, *argv)
    assert (code, err) == expected
    assert stdout == ""
    _assert_target_untouched(tmp_path, target)


UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@given(UNIT, UNIT, st.integers(1, 3000))
@example(0.3, 0.9999999999999999, 2049)
@example(0.04071112986544844, 0.12499999999999999, 1)
@settings(max_examples=100, deadline=None)
def test_error_table_grid_never_decreases(a, b, steps):
    # what lets error-table decide its refusals before the first byte: the
    # grid low + span * i / steps never decreases in i, so its last point
    # is its maximum, and the CLI sweeps exactly that grid unless the last
    # point rounds up to 1
    low, high = sorted((a, b))
    grid = [low + (high - low) * i / steps for i in range(steps + 1)]
    assert grid == sorted(grid)
    assert grid[-1] == max(grid)
    swept = []

    def sweep(block, cfg):
        swept.extend(block)
        return [value for lam in block for value in (lam, 0.0, 0.0, 0.0, 0.0, -1.0)]

    with mock.patch.object(cli, "error_sweep", sweep):
        code, out = invoke_extreme(_error_table_argv(low, high, steps))
    if grid[-1] < 1.0:
        assert (code, swept) == (0, grid)
    else:
        assert (code, swept, out) == (2, [], "")


def _stand_in_sweep(grid, cfg):
    # six distinct floats a row, as the real sweep gives, many times faster
    # under tracing than the float AGM
    return [v for lam in grid for v in (lam, lam / 3, lam * lam, lam + 1, -lam, -1 - lam)]


def _error_table_peak(steps, sweep=_stand_in_sweep):
    # traced allocations over a whole error-table run on the float grid
    # 0.36..0.99, its table written to a sink that keeps only the length
    import tracemalloc

    class Sink:
        length = 0

        def write(self, text):
            self.length += len(text)

        def flush(self):  # run() flushes stdout after the last piece
            pass

    sink = Sink()
    with mock.patch.object(cli, "error_sweep", sweep), contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run(_error_table_argv(0.36, 0.99, steps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak, sink.length


def test_error_table_memory_stays_below_its_text():
    # the table keeps no row between blocks, so the peak is one block's and
    # is the same for 80,001 rows as for 20,001; held as packed doubles
    # (48 bytes a row) it grew by about 2.9 MB between the two
    small, _ = _error_table_peak(20000)
    large, text_length = _error_table_peak(80000)
    assert large <= 1.1 * small, (small, large)
    assert large < 0.1 * text_length, (large, text_length)


def test_error_table_peak_with_the_real_sweep_is_one_block():
    # the real float sweep, not a stand-in: the peak is one block's, the
    # same for 50,001 rows as for 5,001.  With 256-row blocks it measured
    # 141,000 bytes (CPython 3.11), so the bound is twice that; rendered
    # with the bytes row format it measures 149,000, the bytes writer's
    # over-allocation; 1,024-row blocks measured 553,000 and fail it
    small, _ = _error_table_peak(5000, numeric.error_sweep)
    large, _ = _error_table_peak(50000, numeric.error_sweep)
    assert max(small, large) <= 1.1 * min(small, large), (small, large)
    assert max(small, large) < 2 * 141_000, (small, large)


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


def test_invert_keeps_the_float_pi_as_a_circle(capsys):
    # math.pi lies below the true pi, yet a perimeter of math.pi times the
    # sum is the circle: h = 0, so lambda = 0 and a = b = sum/2, exactly
    assert invoke(capsys, "invert", "--perimeter", "3.141592653589793", "--sum", "1") == (
        0, "a: 0.5\nb: 0.5\nlambda: 0\nh: 0\n", ""
    )


def test_invert_out_of_range(capsys):
    code, _, err = invoke(capsys, "invert", "--perimeter", "3.0", "--sum", "1.0")
    assert code == 2
    assert "below the circle bound" in err


def test_invert_subnormal_sum(capsys):
    # 71 and 20 units of 2^-1074: pi*sum is subnormal and used to round to
    # 63 units, printing h 0.12698412698412698 and lambda 0.69999999999999996
    code, out, _ = invoke(capsys, "invert", "--perimeter", "3.5e-322", "--sum", "1e-322")
    assert code == 0
    printed = dict(line.split(": ") for line in out.splitlines())
    h = 71 / (20 * math.pi) - 1
    lam = math.sqrt(4 * h - 3 * h * h / (2 + math.sqrt(1 - 3 * h)))
    assert float(printed["h"]) == pytest.approx(h, rel=1e-15)
    assert float(printed["lambda"]) == pytest.approx(lam, rel=1e-15)


@pytest.mark.parametrize(
    "perimeter, axis_sum, bound",
    [
        # pi*sum is subnormal and rounds to a few bits, in the first case to
        # the perimeter itself; the bound printed is the unit-scale pi*sum
        # rescaled exactly, to 17 significant digits
        ("1.5e-323", "5e-324", "1.5521530033659567e-323"),
        ("3e-322", "1e-322", "3.1043060067319133e-322"),
        # pi*sum overflows and used to print as inf; it is rescaled the
        # same way, with a negative shift
        ("1", "1e308", "3.1415926535897932e+308"),
        ("1e308", "1.7976931348623157e308", "5.6476195458922561e+308"),
        # a normal pi*sum prints as the float, as it always has
        ("6", "2", "6.283185307179586"),
    ],
)
def test_invert_circle_bound_message(capsys, perimeter, axis_sum, bound):
    code, out, err = invoke(capsys, "invert", "--perimeter", perimeter, "--sum", axis_sum)
    assert (code, out) == (2, "")
    assert err == (
        f"error: perimeter {float(perimeter)} below the circle bound pi*sum = {bound}\n"
    )


def test_invert_requires_arguments(capsys):
    code, _, err = invoke(capsys, "invert", "--perimeter", "5.0")
    assert code == 1
    assert "required" in err


def _readme_commands():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("invarc ")]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line)[1] for line in _readme_commands()}
    assert shown == {"verify-series", "cfrac", "error-table", "invert"}


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # one example writes --out table.tsv
    code, _, err = invoke(capsys, *shlex.split(line)[1:])
    assert (code, err) == (0, "")


def test_module_entry_point(capsys):
    # python -m invarc prints what run() prints in-process, byte for byte
    import subprocess
    import sys

    argv = ("cfrac", "--depth", "4")
    proc = subprocess.run([sys.executable, "-m", "invarc", *argv], capture_output=True,
                          text=True)
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert "31/36" in out
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


ERROR_TABLE_ARGS = ("error-table", "--lambda-min", "0.36", "--lambda-max", "0.4", "--steps", "1")
INVERT_ARGS = ("invert", "--perimeter", "7", "--sum", "2")
FLOAT_FLAGS = {
    "--lambda-min": ERROR_TABLE_ARGS,
    "--lambda-max": ERROR_TABLE_ARGS,
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


# a value that changed no byte, one that stalled the float AGM part way
# through a table, and one that was refused above the 1e-8 ceiling
@pytest.mark.parametrize("value", ["1e-10", "1e-16", "1"])
def test_abs_tol_is_not_an_option(capsys, value):
    assert invoke(capsys, *ERROR_TABLE_ARGS, "--abs-tol", value) == (
        1, "", f"usage error: unrecognized arguments: --abs-tol {value}\n"
    )
    # the parser still carries the default, which the benchmark's probe reads
    args = cli.build_parser().parse_args(list(ERROR_TABLE_ARGS))
    assert args.abs_tol == numeric.DEFAULT_CONFIG.abs_tol


# A failed write to stdout is exit 2 and one error: line.  Each case runs
# in a fresh interpreter and checks its whole stderr, which leaves room for
# neither a traceback nor the "Exception ignored" report of an interpreter
# whose last flush of stdout fails again.
FLOAT_TABLE_ARGS = ("error-table", "--lambda-min", "0.36", "--lambda-max", "0.99", "--steps", "50000")


def _invarc(*argv, **kwargs):
    import subprocess
    import sys

    # stdout block-buffered, as by default, so that a write can fail late
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.Popen(
        [sys.executable, "-m", "invarc", *argv], text=True, env=env,
        **{"stderr": subprocess.PIPE, **kwargs},
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [INVERT_ARGS, FLOAT_TABLE_ARGS], ids=["invert", "error-table"])
def test_a_full_stdout_is_one_error_line(argv):
    with open("/dev/full", "w") as full, _invarc(*argv, stdout=full) as proc:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (2, "error: cannot write stdout: No space left on device\n")


def test_a_pipe_closed_after_one_line_is_one_error_line():
    import subprocess

    with _invarc(*FLOAT_TABLE_ARGS, stdout=subprocess.PIPE) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert header == "\t".join(numeric.ERROR_TABLE_COLUMNS) + "\n"
    assert (proc.wait(), err) == (2, "error: cannot write stdout: Broken pipe\n")


def test_a_pipe_without_a_reader_is_one_error_line():
    # the whole output sits in stdout's buffer until the flush fails
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as pipe, _invarc(*INVERT_ARGS, stdout=pipe) as proc:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (2, "error: cannot write stdout: Broken pipe\n")


def test_a_closed_stdout_is_one_error_line():
    # the interpreter starts with fd 1 closed, so sys.stdout is None
    with _invarc("verify-series", preexec_fn=lambda: os.close(1)) as proc:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (2, "error: cannot write stdout: Bad file descriptor\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, stdout, code",
    [
        (("invert", "--perimeter", "3", "--sum", "1"), os.devnull, 2),
        (INVERT_ARGS, "/dev/full", 2),
        (("verify-series", "--order", "5"), os.devnull, 1),
    ],
    ids=["refusal", "failed-write", "usage-error"],
)
def test_a_full_stderr_keeps_the_exit_code(argv, stdout, code):
    # the error: or usage error: line is lost, and so is no exit code
    with open(stdout, "w") as out, open("/dev/full", "w") as err:
        with _invarc(*argv, stdout=out, stderr=err) as proc:
            pass
    assert proc.wait() == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_writes_leave_no_descriptor_open(capsys, monkeypatch):
    import sys

    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert run(list(INVERT_ARGS)) == 2
            with open("/dev/full", "w") as full_err:
                monkeypatch.setattr(sys, "stderr", full_err)
                assert run(["invert", "--perimeter", "3", "--sum", "1"]) == 2
            monkeypatch.undo()
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n" * 5
    assert len(os.listdir("/proc/self/fd")) == before


# every command's flags, each also offered to the other commands, and
# values from valid through refused to unparsable
ARGV_FLAGS = {
    "verify-series": ("--order", "--format"),
    "cfrac": ("--depth", "--freeze", "--freeze-from"),
    "error-table": ("--lambda-min", "--lambda-max", "--steps"),
    "invert": ("--perimeter", "--sum"),
}
ARGV_VALUES = (
    "nan", "inf", "-inf", "1e400", "-1e400", "5e-324", "-5e-324", "1/0", "", "x",
    "0", "1", "-1", "2", "8", "12", "0.35", "0.99", "3/4", "7/8", "text", "tsv",
)


@given(
    st.sampled_from(sorted(ARGV_FLAGS)),
    st.lists(st.tuples(st.sampled_from(sorted(chain(*ARGV_FLAGS.values()))),
                       st.sampled_from(ARGV_VALUES)), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_random_argv_exits_0_1_or_2_and_never_raises(command, flags):
    invoke_extreme([command, *(f"{flag}={value}" for flag, value in flags)])


# Tokens for argv that the plain reader must read as argparse does, or
# decline: commands and flags, spellings only argparse reads, and values
# from valid through signed, odd (sign, underscore, fullwidth digit, empty,
# leading space), non-finite and unparsable
ORACLE_COMMANDS = (*ARGV_FLAGS, "bogus", "--help", "--order")
ORACLE_FLAGS = (*chain(*ARGV_FLAGS.values()), "--out", "--ord", "--lambda-m", "--", "-h", "--help")
ORACLE_VALUES = (
    "40", "+5", "1_0", "\uff18", "", " 3", "-0.5", "-1e-3", "nan", "inf", "1e400", "5e-324",
    "3/4", "1/0", "x", "12", "0.3", "tsv",
)
# the benchmark's argv, each of which must be read without argparse
BENCHMARK_ARGV = [
    ["verify-series", "--order", "40", "--format", "tsv"],
    ["error-table", "--lambda-min", "1.2345e-05", "--lambda-max", "0.345", "--steps", "1000"],
    ["error-table", "--lambda-min", "0.3612345", "--lambda-max", "0.99", "--steps", "50000"],
]


@st.composite
def oracle_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)) | st.sampled_from(ORACLE_COMMANDS))
    # mostly the command's own flags, each with a value, so that many argv
    # are plain and the reader's every check is reached
    own = st.sampled_from((*ARGV_FLAGS.get(command, ()), "--out"))
    flags = st.one_of(own, own, own, st.sampled_from(ORACLE_FLAGS))
    values = st.sampled_from(ORACLE_VALUES)
    pair = st.tuples(flags, values)
    joined = st.builds("{}={}".format, flags, values).map(lambda token: (token,))
    items = draw(st.lists(st.one_of(pair, pair, pair, joined, st.tuples(flags | values)), max_size=5))
    return [command, *chain(*items)]


@given(oracle_argv())
@example(BENCHMARK_ARGV[0])
@example(BENCHMARK_ARGV[1])
@example(BENCHMARK_ARGV[2])
@example(["cfrac", "--depth", "4", "--freeze", "3/4", "--freeze-from", "2", "--out", "x"])
@example(list(INVERT_ARGS))
@example([])
# one argv that argparse refuses for each check of the reader: a value it
# takes for an option, a choice, a floor, a required flag, a missing value
@example(["error-table", "--lambda-min", "-1e-3"])
@example(["verify-series", "--format", "xml"])
@example(["verify-series", "--order", "5"])
@example(["invert", "--perimeter", "7"])
@example(["cfrac", "--depth", "4", "--freeze"])
@settings(max_examples=400, deadline=None)
def test_plain_reader_reads_as_argparse_or_declines(argv):
    read = cli._read_plain(argv)
    if read is None:
        assert argv not in BENCHMARK_ARGV
        return
    parsed = cli.build_parser().parse_args(argv)  # raises on a usage error or --help
    # key for key and value for value, nan included, types by their repr
    assert {k: repr(v) for k, v in vars(read).items()} == {k: repr(v) for k, v in vars(parsed).items()}


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
    # the records derive from numeric._Record: dataclasses and the inspect
    # machinery it pulls in would more than double the import time
    # (typing.NamedTuple costs typing, collections.namedtuple compiles
    # source; see the cold-start tests below); argparse loads only when a
    # run needs it
    assert [m for m in loaded if m in ("dataclasses", "inspect", *ARGPARSE_MODULES)] == []


# What every command would pay for at start and needs none of: typing,
# __future__, threading and contextlib, and what they pull in (re, enum,
# functools, warnings); --out names and creates its own temp file, so no
# tempfile either; and collections, with the keyword and reprlib it loads,
# since no record is a namedtuple.
COLD_START_EXCLUDED = (
    "typing", "re", "enum", "functools", "contextlib", "threading", "warnings", "__future__",
    "tempfile", "collections", "keyword", "reprlib",
)


@pytest.mark.parametrize(
    "argv, code, excluded",
    [
        ((), 0, COLD_START_EXCLUDED),
        # rows at 0.3 and 0.35 take the exact path, the row at 0.4 the float path
        (("error-table", "--lambda-min", "0.3", "--lambda-max", "0.4", "--steps", "2"), 0,
         COLD_START_EXCLUDED),
        (INVERT_ARGS, 0, COLD_START_EXCLUDED),
        (("invert", "--perimeter", "3", "--sum", "1"), 2, COLD_START_EXCLUDED),
        # fractions loads re and what it pulls in, and decimal collections,
        # but no symbolic layer needs typing or a __future__ import
        (("verify-series", "--order", "12"), 0, ("typing", "__future__")),
        (("cfrac", "--depth", "5"), 0, ("typing", "__future__")),
    ],
    ids=["import", "error-table", "invert", "invert-refused", "verify-series", "cfrac"],
)
def test_cold_start_loads_only_what_it_needs(argv, code, excluded):
    # -S keeps out what site loads, which may import any of these first;
    # what the interpreter loaded before the import (warnings, under
    # PYTHONWARNINGS or development mode) does not count
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import invarc.cli\n"
        "code = invarc.cli.run(sys.argv[1:]) if sys.argv[1:] else 0\n"
        f"added = set({excluded!r}) & (set(sys.modules) - before)\n"
        "print('loaded:', *sorted(added), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stderr.splitlines()[-1]) == (code, "loaded:"), proc.stderr


@pytest.mark.parametrize(
    "argv, code, preload",
    [
        ((), 0, ""),
        (("error-table", "--lambda-min", "0.3", "--lambda-max", "0.4", "--steps", "2"), 0, ""),
        (INVERT_ARGS, 0, ""),
        (("invert", "--perimeter", "3", "--sum", "1"), 2, ""),
        # decimal, which fractions loads, makes its DecimalTuple a namedtuple
        (("verify-series", "--order", "12"), 0, "import fractions"),
        (("cfrac", "--depth", "5"), 0, "import fractions"),
    ],
    ids=["import", "error-table", "invert", "invert-refused", "verify-series", "cfrac"],
)
def test_cold_start_compiles_no_source(argv, code, preload):
    # collections.namedtuple compiles each record's __new__ from source,
    # about 0.1 ms a class at start; an import that finds no cached
    # bytecode compiles the module's file, which is not counted
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    script = (
        "import sys\n"
        f"{preload}\n"
        "compiled = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and not str(args[1]).endswith('.py'):\n"
        "        compiled.append(args[1])\n"
        "sys.addaudithook(hook)\n"
        "import invarc.cli\n"
        "code = invarc.cli.run(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print('compiled:', *compiled, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stderr.splitlines()[-1]) == (code, "compiled:"), proc.stderr


# What only verify-series and cfrac need; the float commands load none of it.
SYMBOLIC_MODULES = (
    "fractions", "decimal", "invarc.series", "invarc.cfrac", "invarc.derivation", "invarc.reference",
)
# What only --help and an argv that is not plain (a usage error, --flag=value,
# an abbreviation) need; a plain argv is read without them.
ARGPARSE_MODULES = ("argparse", "gettext", "locale")
# one run of the CLI in a fresh interpreter; a last stderr line names the
# symbolic and argparse modules it loaded
COLD_RUN = (
    "import sys\n"
    "from invarc.cli import run\n"
    "code = run(sys.argv[1:])\n"
    f"watched = {SYMBOLIC_MODULES + ARGPARSE_MODULES!r}\n"
    "print('loaded:', *sorted(set(watched) & set(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _cold_run(*argv):
    import subprocess
    import sys

    env = {**os.environ, "COLUMNS": "80"}  # as in-process help is formatted
    return subprocess.run([sys.executable, "-c", COLD_RUN, *argv], capture_output=True, text=True,
                          env=env)


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        # rows at 0.3 and 0.35 take the exact path, the row at 0.4 the float path
        (("error-table", "--lambda-min", "0.3", "--lambda-max", "0.4", "--steps", "2"), 0, ()),
        (INVERT_ARGS, 0, ()),
        # refusals: run() catches them as ArithmeticError or ValueError, so
        # catching one loads nothing (the subnormal invert refusal is left
        # out: its circle bound loads decimal to rescale pi*sum exactly)
        (OVERSHOOT, 2, ()),
        (("invert", "--perimeter", "3", "--sum", "1"), 2, ()),
        # argparse reads every argv that is not plain and prints every help
        (("--help",), 0, ARGPARSE_MODULES),
        (("invert", "--help"), 0, ARGPARSE_MODULES),
        (("invert", "--perimeter=7", "--sum", "2"), 0, ARGPARSE_MODULES),
    ],
    ids=["error-table", "invert", "error-table-refused", "invert-refused",
         "help", "invert-help", "flag=value"],
)
def test_float_commands_load_no_symbolic_module(capsys, monkeypatch, argv, code, loaded):
    proc = _cold_run(*argv)
    monkeypatch.setenv("COLUMNS", "80")
    expected = invoke(capsys, *argv)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout) == (code, expected[1])
    assert proc.stderr == expected[2] + " ".join(["loaded:", *sorted(loaded)]) + "\n"


def test_run_without_argv_reads_sys_argv_without_argparse(capsys):
    # the console script and python -m invarc call run() with no argv
    import subprocess
    import sys

    script = COLD_RUN.replace("run(sys.argv[1:])", "run()")
    assert script != COLD_RUN
    proc = subprocess.run([sys.executable, "-c", script, *INVERT_ARGS], capture_output=True,
                          text=True)
    code, out, _ = invoke(capsys, *INVERT_ARGS)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "loaded:\n")


# what cfrac loads: every symbolic module but the reference tables
CFRAC_MODULES = set(SYMBOLIC_MODULES) - {"invarc.reference"}


@pytest.mark.parametrize(
    "argv, code, out, err, loaded",
    [
        (("verify-series", "--order", "12"), 0,
         (FIXTURES / "report_order12.txt").read_text() + "reference check: 52 coefficients match\n",
         "", SYMBOLIC_MODULES),
        (("cfrac", "--depth", "30", "--freeze", "3/4"), 0,
         (FIXTURES / "cfrac_depth30_freeze.txt").read_text(), "", CFRAC_MODULES),
        # a symbolic layer's refusal reaches run()'s one clause, which names
        # no layer's error type
        (("cfrac", "--depth", "6", "--freeze", "3/4", "--freeze-from", "7"), 2, "",
         "error: freeze index 7 outside 1..6\n", CFRAC_MODULES),
        # argparse prints the usage error, and no layer loads
        (("verify-series", "--order", "5"), 1, "",
         "usage error: argument --order: must be at least 8, got 5\n", ARGPARSE_MODULES),
    ],
    ids=["verify-series", "cfrac", "cfrac-refused", "usage-error"],
)
def test_symbolic_commands_load_their_layers_when_they_run(argv, code, out, err, loaded):
    proc = _cold_run(*argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr == f"{err}loaded: {' '.join(sorted(loaded))}\n"


# Extreme finite values for every float flag (FINITE), subnormals included;
# integer flags stay small so that no case builds a huge grid or a deep
# expansion.


def flag(name, value):
    # "--flag=-1e-300" keeps argparse from reading the value as an option
    return f"{name}={value!r}"


def invoke_extreme(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # any exception escaping run() fails the test
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    if code:
        # a refusal writes nothing to stdout and one line to stderr
        assert out == "", (argv, out)
        assert err.startswith(("usage error: ", "error: ")), (argv, err)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    if code == 0 and argv[0] == "error-table":
        # the header and steps + 1 rows of six columns, each printed as .17g
        header, *table = out.splitlines()
        assert header == "\t".join(numeric.ERROR_TABLE_COLUMNS)
        assert len(table) == cli.build_parser().parse_args(argv).steps + 1, argv
        for row in table:
            fields = row.split("\t")
            assert len(fields) == 6, (argv, row)
            assert all(format(float(t), ".17g") == t for t in fields), (argv, row)
    return code, out


@given(st.one_of(FINITE, UNIT), st.one_of(FINITE, UNIT), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_extreme_error_table_flags(lo, hi, steps):
    invoke_extreme([
        "error-table", flag("--lambda-min", lo), flag("--lambda-max", hi),
        "--steps", str(steps),
    ])


HUGE = 10**400
FRACTION_TEXT = st.one_of(
    st.builds("{}/{}".format, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
    st.builds("{}e{}".format, st.integers(-HUGE, HUGE), st.integers(-400, 400)),
)


@given(st.integers(1, 12), FRACTION_TEXT, st.integers(1, 14), st.integers(8, 16))
@settings(max_examples=60, deadline=None)
def test_extreme_cfrac_and_order_flags(depth, freeze, freeze_from, order):
    invoke_extreme([
        "cfrac", "--depth", str(depth), f"--freeze={freeze}",
        "--freeze-from", str(freeze_from),
    ])
    invoke_extreme(["verify-series", "--order", str(order)])


@given(measurements())
@settings(max_examples=300, deadline=None)
def test_extreme_invert_flags_match_mpmath(pair):
    mpmath = pytest.importorskip("mpmath")
    perimeter, axis_sum = pair
    code, out = invoke_extreme(
        ["invert", flag("--perimeter", perimeter), flag("--sum", axis_sum)]
    )
    if code != 0:
        return
    printed = {key: float(value) for key, value in (line.split(": ") for line in out.splitlines())}

    def closed_form_lambda(h):
        h = min(max(h, 0), mpmath.mpf(1) / 3)
        return min(1, mpmath.sqrt(4 * h - 3 * h**2 / (2 + mpmath.sqrt(1 - 3 * h))))

    ulp = 2.0**-52
    with mpmath.workdps(50):
        h = mpmath.mpf(perimeter) / (mpmath.pi * mpmath.mpf(axis_sum)) - 1
        # h is 1+h less 1, so a few ulps of 1 is its float resolution; lambda
        # may then lie anywhere between the closed form's values at those ends
        assert abs(printed["h"] - h) <= 4 * ulp, (pair, out)
        low = closed_form_lambda(h - 4 * ulp) - 8 * ulp
        high = closed_form_lambda(h + 4 * ulp) + 8 * ulp
        assert low <= printed["lambda"] <= high, (pair, out)
        # a and b are s(1 +- lambda)/2 over the same band, within a unit in
        # their last place (math.ulp gives the subnormal unit there)
        s = mpmath.mpf(axis_sum)
        for key, least, most in (("a", 1 + low, 1 + high), ("b", 1 - high, 1 - low)):
            slack = math.ulp(printed[key])
            assert s * least / 2 - slack <= printed[key] <= s * most / 2 + slack, (pair, out)
