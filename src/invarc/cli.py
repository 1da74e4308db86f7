"""Command-line front end.

Subcommands:

    verify-series   run the derivation pipeline and check every coefficient
                    that has a built-in reference value
    cfrac           expand the true inverse as a continued fraction, with
                    optional tail freezing and closed-form collapse
    error-table     sweep the closed-form error over a lambda grid (TSV)
    invert          recover semiaxes from perimeter and axis-sum

A plain argv, the command and then "--flag value" pairs, each flag spelled
as declared, no value starting with "-", every value accepted and every
required flag given, is read from the option table without argparse.
Any other argv (--help, --flag=value, an abbreviation, a negative value,
a usage error) goes to argparse, built from the same table.

Every command is a short-lived process, so importing this module loads
little: numeric, and from the standard library os, stat, errno, types,
math and operator, and it compiles no source.  Its annotations are
evaluated at import (there is no __future__ import), so those naming a
type it does not import are strings.  argparse loads only for an argv
that is not plain, and the symbolic layers only in the handlers that run
them.

Exit codes: 0 success, 1 usage error, 2 a verify-series reference
mismatch, a domain refusal or output that cannot be written (an --out
file, or stdout: a full device, a pipe with no reader, a closed
descriptor).  Every layer's refusal type derives from ArithmeticError;
run() reports any ArithmeticError or ValueError, or a failed write, as
one "error:" line and exit 2.  If stderr cannot take that line or a
"usage error:" line either, fd 2 is pointed at os.devnull and run()
returns the same code with no message.
Output uses LF line endings and is byte-identical across runs for a given
invocation.  Each handler raises every refusal in its own body, so
before the first byte, and then returns (exit code, pieces of text),
which run() writes in order.  verify-series, cfrac and invert return one
piece; error-table returns a lazy map over its 256-row blocks, each
swept only when it is written, and keeps no row, so its memory does not
grow with --steps.  A crash or a failed write part way (not a
refusal) can leave a partial table on stdout but never a partial --out
file.  --out follows symlinks, writes a regular file atomically (temp file
in the target directory, then rename) with the permission bits a plain
write would leave, the old file's or else 0666 less the umask (not its
owner or ACLs), and writes straight to a FIFO or a device.
"""

import errno
import os
import stat
import sys
from types import SimpleNamespace

# the symbolic layers load inside the handlers that run them, so
# error-table and invert import only this module and numeric
from .numeric import (
    DEFAULT_CONFIG,
    ERROR_TABLE_COLUMNS,
    error_sweep,
    invert_from_measurements,
    lambda_refusal,
)


class UsageError(Exception):
    """Bad arguments; mapped to exit code 1."""


class _BadValue(ValueError):
    """A converter's refusal, which argparse prints as it stands."""


def _positive_int(floor: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _BadValue(f"not an integer: {text!r}")
        if value < floor:
            raise _BadValue(f"must be at least {floor}, got {value}")
        return value

    return parse


def _fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _BadValue(f"not a fraction: {text!r}")


def _drain(pieces: "Iterable[str]", handle) -> None:
    """Write each piece, then flush, so that a failed buffered write raises
    here and not at exit."""
    for piece in pieces:
        handle.write(piece)
    handle.flush()


def _write_out(pieces: "Iterable[str]", out: str) -> None:
    target = os.path.realpath(out)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        # a FIFO or a device is written to, not replaced (a directory fails)
        with open(target, "w", newline="\n") as handle:
            _drain(pieces, handle)
        return
    # an unpredictable name that O_EXCL creates only if nothing, a symlink
    # included, has it yet; a new file gets what open() would give it
    tmp = os.path.join(os.path.dirname(target), f".invarc-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            if mode is not None:  # a plain write keeps the target's permission bits
                os.fchmod(fd, mode & 0o777)
            _drain(pieces, handle)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# the verify-series tables in print order with their text-format labels,
# keyed by tsv series name; the first five follow DerivationReport's fields
_TABLE_LABELS = {
    "ivory": "ivory (powers of lambda^2)",
    "h-series": "h-series (powers of lambda^2)",
    "true": "true inverse (powers of h)",
    "approx": "closed-form expansion (powers of h)",
    "difference": "difference, true - approx (powers of h)",
    "cfrac-partials": "continued-fraction partial numerators",
}


def _cmd_verify_series(args) -> "tuple[int, Iterable[str]]":
    from .derivation import full_report
    from .reference import CFRAC_PARTIALS, REFERENCE_SERIES

    report = full_report(args.order)
    # the partials are one more table, keyed by their 1-based index
    tables = {name: dict(enumerate(s.coeffs)) for name, s in zip(_TABLE_LABELS, report[:5])}
    tables["cfrac-partials"] = dict(enumerate(report.cfrac_true.partials, start=1))
    references = {**REFERENCE_SERIES, "cfrac-partials": dict(enumerate(CFRAC_PARTIALS, start=1))}
    tsv = args.format == "tsv"
    lines = ["series\tpower\tcoefficient\tstatus" if tsv else f"working order: {args.order}"]
    mismatches, checked = [], 0
    for name, table in tables.items():
        if not tsv:
            lines.append(f"{_TABLE_LABELS[name]}: " + ", ".join(map(str, table.values())))
        for power, coeff in table.items():
            expected = references[name].get(power)
            checked += expected is not None
            if expected is None:
                status = "derived"
            elif coeff == expected:
                status = "reference"
            else:
                status = f"mismatch(expected {expected})"
                mismatches.append(
                    f"MISMATCH {name} [{power}]: computed {coeff}, reference {expected}"
                )
            if tsv:
                lines.append(f"{name}\t{power}\t{coeff}\t{status}")
    if not tsv:
        verdict = (f"{len(mismatches)} of {checked} mismatch" if mismatches
                   else f"{checked} coefficients match")
        lines += [*mismatches, f"reference check: {verdict}"]
    return (2 if mismatches else 0), ["\n".join(lines) + "\n"]


def _cmd_cfrac(args) -> "tuple[int, Iterable[str]]":
    if args.freeze is None and args.freeze_from is not None:
        raise UsageError("--freeze-from needs --freeze")
    from .cfrac import (
        NotInRamanujanShape,
        cfrac_expand,
        collapse_to_closed_form,
        freeze_tail,
        tail_closed_form,
    )
    from .derivation import true_inverse_series

    source = true_inverse_series(args.depth + 2)
    cf = cfrac_expand(source, args.depth)
    lines = [
        f"source: true inverse series through x^{args.depth + 2}",
        f"leading coefficient: {cf.leading}",
        f"head numerator coefficient: {cf.head}",
        "partial numerators: " + ", ".join(map(str, cf.partials)),
    ]
    if args.freeze is not None:
        frozen = freeze_tail(cf, args.freeze_from or 2, args.freeze)
        partials = ", ".join(map(str, frozen.partials))
        lines.append(f"frozen from a_{frozen.periodic_from}: {partials} (periodic)")
        lines.append(f"tail closed form: {tail_closed_form(args.freeze)}")
        try:
            closed = collapse_to_closed_form(frozen)
        except NotInRamanujanShape as exc:
            lines.append(f"closed form: none ({exc})")
        else:
            lines.append(f"closed form: {closed}")
    return 0, ["\n".join(lines) + "\n"]


# one %-format per row prints each column as f"{value:.17g}" would.  It is
# bytes because bytes %-formatting makes the same ASCII digits 5-8% faster
# than str's (CPython 3.11); block decodes them, since run writes str, which
# any text stdout takes, io.StringIO included
_ERROR_ROW_FORMAT = b"\t".join([b"%.17g"] * len(ERROR_TABLE_COLUMNS))

# rows per error_sweep call: a block is swept, formatted and written before
# the next one starts, and nothing of it is kept
_SWEEP_BLOCK = 256


def _cmd_error_table(args) -> "tuple[int, Iterable[str]]":
    low, high, steps = args.lambda_min, args.lambda_max, args.steps
    if not (0.0 <= low <= high < 1.0):
        raise UsageError(f"need 0 <= lambda-min <= lambda-max < 1, got {low} and {high}")
    span = high - low
    # the grid never decreases, so only its last point can be refused
    last = low + span * steps / steps
    if last >= 1.0:
        raise lambda_refusal(last)

    def block(first: int) -> str:
        # the header goes with the first block; the values die with the call
        rows = range(first, min(first + _SWEEP_BLOCK, steps + 1))
        values = error_sweep([low + span * i / steps for i in rows], DEFAULT_CONFIG)
        head = "\t".join(ERROR_TABLE_COLUMNS) + "\n" if first == 0 else ""
        return head + (((_ERROR_ROW_FORMAT + b"\n") * len(rows)) % tuple(values)).decode()

    return 0, map(block, range(0, steps + 1, _SWEEP_BLOCK))


def _cmd_invert(args) -> "tuple[int, Iterable[str]]":
    a, b, lam, h = invert_from_measurements(args.perimeter, args.axis_sum)
    return 0, [f"a: {a:.17g}\nb: {b:.17g}\nlambda: {lam:.17g}\nh: {h:.17g}\n"]


# Each command's handler, help line, options (flag -> add_argument's
# keywords) and the defaults no option sets.  _read_plain reads "type"
# (none keeps the text), "choices", "default", "required" and "dest"
# (else the flag less its "--", with "_" for "-") as argparse does.
_COMMANDS = {
    "verify-series": (_cmd_verify_series, "derive and check the series pipeline", {
        "--order": {"type": _positive_int(8), "default": 12,
                    "help": "working truncation order (default 12, minimum 8)"},
        "--format": {"choices": ("text", "tsv"), "default": "text"},
        "--out": {"help": "write output to this file atomically"},
    }, {}),
    "cfrac": (_cmd_cfrac, "continued-fraction view of the true inverse", {
        "--depth": {"type": _positive_int(1), "default": 5,
                    "help": "number of partial numerators to extract (default 5)"},
        "--freeze": {"type": _fraction, "metavar": "P/Q",
                     "help": "freeze the tail at this value and solve it in closed form"},
        "--freeze-from": {"type": _positive_int(1), "metavar": "K",
                          "help": "1-based index the freeze starts at (default 2; needs --freeze)"},
        "--out": {"help": "write output to this file atomically"},
    }, {}),
    "error-table": (_cmd_error_table, "TSV error sweep over a lambda grid", {
        "--lambda-min": {"type": float, "default": 0.0},
        "--lambda-max": {"type": float, "default": 0.2},
        "--steps": {"type": _positive_int(1), "default": 20,
                    "help": "number of grid intervals; the table has steps+1 rows"},
        "--out": {"help": "write output to this file atomically"},
    }, {"abs_tol": DEFAULT_CONFIG.abs_tol}),  # no option; the benchmark's probe reads it
    "invert": (_cmd_invert, "semiaxes from perimeter and axis-sum", {
        "--perimeter": {"type": float, "required": True},
        "--sum": {"type": float, "required": True, "dest": "axis_sum",
                  "help": "a + b, the axis sum the shape parameter is relative to"},
    }, {}),
}


def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); route through run()
            raise UsageError(message)

    def typed(convert):
        # argparse prints an ArgumentTypeError as it stands, a ValueError as "invalid float value"
        def parse(text):
            try:
                return convert(text)
            except _BadValue as exc:
                raise argparse.ArgumentTypeError(str(exc))

        parse.__name__ = convert.__name__
        return parse

    parser = Parser(prog="invarc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, keywords in options.items():
            p.add_argument(flag, **{**keywords, "type": typed(keywords.get("type", str))})
        p.set_defaults(**defaults)
    return parser


def _read_plain(argv) -> SimpleNamespace | None:
    """build_parser().parse_args(argv), without argparse, or None if argv is not plain."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    _, _, options, defaults = _COMMANDS[argv[0]]
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = options.get(flag)
        if keywords is None or text.startswith("-"):
            return None
        try:
            given[flag] = keywords.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in keywords and given[flag] not in keywords["choices"]:
            return None
    values = {"command": argv[0], **defaults}
    for flag, keywords in options.items():
        if keywords.get("required") and flag not in given:
            return None
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        values[dest] = given.get(flag, keywords.get("default"))
    return SimpleNamespace(**values)


def _to_devnull(fd: int) -> None:
    """Point fd at os.devnull, so that what its stream still buffers cannot
    fail again at the interpreter's last flush (status 120)."""
    with open(os.devnull, "wb") as null:
        os.dup2(null.fileno(), fd)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_plain(argv) or build_parser().parse_args(argv)
        # a handler refuses, if at all, before it returns
        code, pieces = _COMMANDS[args.command][0](args)
        out = getattr(args, "out", None)
        try:
            if out is not None:
                _write_out(pieces, out)
            elif sys.stdout is None:  # the interpreter started with fd 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            else:
                _drain(pieces, sys.stdout)
            return code
        except OSError as exc:
            if out is None and sys.stdout is not None:
                _to_devnull(sys.stdout.fileno())
            name = "stdout" if out is None else out
            code, line = 2, f"error: cannot write {name}: {exc.strerror or exc}"
    except UsageError as exc:
        code, line = 1, f"usage error: {exc}"
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ArithmeticError, ValueError) as exc:
        code, line = 2, f"error: {exc}"
    try:  # the code stands even when stderr cannot take the line
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr.fileno())
    return code
