"""Benchmark of the invarc command line, one fresh interpreter per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` (pure Python, so there is nothing to compile beyond the byte-code
the first import writes).  Each operation spawns ``perfbench/child.py``,
which calls ``invarc.cli.run(argv)`` exactly as the ``invarc`` console
script does, in a closed loop with one client: the next operation starts
only after the previous one has exited and its output has been checked.

Workloads (the seed picks the CLI arguments; the CLI sees only the argv):

    derive       verify-series --order 40 --format tsv   (fixed argv)
    sweep-exact  error-table --lambda-min U --lambda-max 0.345 --steps 1000,
                 U drawn from the seed in [0, 0.001): every row takes the
                 exact-rational path (lambda <= EXACT_SWEEP_CUTOFF = 0.35)
    sweep-float  error-table --lambda-min V --lambda-max 0.99 --steps 50000,
                 V drawn from the seed in [0.36, 0.365): every row takes the
                 float path

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time of
``import invarc.cli`` in a fresh interpreter), and per operation the median
``wall_s`` (spawn to exit), ``cpu_s`` (the child's user + sys time from
``os.wait4``) and ``peak_rss_mb`` (the child's own ``VmHWM``).  Times are
scaled to a reference host speed measured next to each of them (see
CALIBRATION_CODE); the raw times are in the run record.

``--trace 1`` alternates untraced and traced operations.  A traced child
wraps the public invarc functions at run time (see child.py) and writes its
spans at exit; this script turns them into per-layer metrics (see
PER_LAYER), in raw seconds.  One extra untraced ``probe`` child times the
order ladder and replays the sweep grid one row at a time.  Counts depend
only on the CLI argv, so they repeat exactly for a given seed, and on every
seed for derive.

Every operation is checked outside its timed region; a failed check counts
in ``failed``.  derive: exit 0 and every line of
tests/fixtures/verify_series_order12.tsv present in the output.  Sweeps:
exit 0, exactly steps + 1 rows on the expected lambda grid, and a seeded
sample of rows agreeing with a 50-digit mpmath oracle.

The last line of stdout is the result object; the line before it is a
``perfbench-record`` JSON line (Python, CPU count, commit, source digest,
seed, load average at start and end, tail latency) that identifies a noisy
run afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
FIXTURE = ROOT / "tests" / "fixtures" / "verify_series_order12.tsv"
SCRATCH = ROOT / ".bench_build"

SETUP_REPS = 15
OP_TIMEOUT_S = 120
ORACLE_ROWS = 8
ORACLE_DPS = 50
# A sweep row must match the oracle to these relative tolerances.  h,
# lambda_sq_true and lambda_sq_approx are float roundings of
# well-conditioned values; diff and normalized are certified to 1e-4 (the
# accuracy numeric._exact_row documents).
ROW_RTOL = (0.0, 1e-12, 1e-15, 1e-12, 1e-4, 1e-4)
# Rows above numeric.EXACT_SWEEP_CUTOFF take the float path, where diff =
# lambda^2 - approx also carries the float64 rounding of h (about 2e-15,
# measured against the oracle over the whole sweep-float grid).
EXACT_SWEEP_CUTOFF = 0.35
FLOAT_DIFF_ATOL = 1e-14
ERROR_TABLE_HEADER = "lambda\th\tlambda_sq_true\tlambda_sq_approx\tdiff\tnormalized"

# Host-speed calibration.  The benchmark was written on a 2-vCPU VM whose
# speed drifts by up to 40% over minutes as neighbours load the host; the
# same CLI call took 0.53 s in one minute and 0.89 s in the next.  So every
# timed step is followed by a fresh interpreter running CALIBRATION_CODE, a
# fixed stdlib-only mix of what the CLI does (big-integer Fraction sums,
# float math, .17g formatting) that never imports invarc.  A time is
# reported multiplied by CALIBRATION_REF_S over the mean of the calibration
# times measured just before and just after it: seconds at the host speed
# where the calibration takes CALIBRATION_REF_S.  That speed is this VM's
# fast phase, so reported times read close to a quiet host's raw times.
# The raw times and the factors are kept in the run record.
CALIBRATION_CODE = (
    "import math\n"
    "from fractions import Fraction\n"
    "acc = Fraction(0)\n"
    "for k in range(1, 700):\n"
    "    acc += Fraction(1, k * k)\n"
    "text = '\\t'.join(f'{math.sqrt(k) / 7:.17g}' for k in range(30000))\n"
)
CALIBRATION_REF_S = 0.063

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import invarc.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


def derive_argv(rng: random.Random) -> list[str]:
    return ["verify-series", "--order", "40", "--format", "tsv"]


def sweep_exact_argv(rng: random.Random) -> list[str]:
    low = 0.001 * rng.random()
    return ["error-table", "--lambda-min", repr(low), "--lambda-max", "0.345",
            "--steps", "1000"]


def sweep_float_argv(rng: random.Random) -> list[str]:
    low = 0.36 + 0.005 * rng.random()
    return ["error-table", "--lambda-min", repr(low), "--lambda-max", "0.99",
            "--steps", "50000"]


END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# name, unit, better, the end-to-end metric (workload.metric) it should
# move, or None for a diagnostic of the benchmark itself.
PER_LAYER = [
    ("series.revert.s", "s", "lower", "derive.wall_s"),
    ("series.compose.calls", "count", "lower", "derive.wall_s"),
    ("series.compose.s", "s", "lower", "derive.wall_s"),
    ("series.mul.calls", "count", "lower", "derive.wall_s"),
    ("series.mul.s", "s", "lower", "derive.wall_s"),
    # computed, not counted: (n+1)(n+2)/2 per series x series product of
    # certified order n, the multiply-adds of the schoolbook loop
    ("series.mul.madds", "count", "lower", "derive.wall_s"),
    ("series.divide.calls", "count", "lower", "derive.wall_s"),
    ("series.divide.s", "s", "lower", "derive.wall_s"),
    ("series.sqrt.calls", "count", "lower", "derive.wall_s"),
    ("series.sqrt.s", "s", "lower", "derive.wall_s"),
    ("series.max_coeff_bits", "bits", "lower", "derive.wall_s"),
    ("series.revert.order_exp", "ratio", "lower", "derive.wall_s"),
    ("cfrac.expand.s", "s", "lower", "derive.wall_s"),
    ("cfrac.expand.divides", "count", "lower", "derive.wall_s"),
    ("cfrac.expand.o36.s", "s", "lower", "derive.wall_s"),
    ("derivation.full_report.s", "s", "lower", "derive.wall_s"),
    ("derivation.true_inverse.s", "s", "lower", "derive.wall_s"),
    ("derivation.closed_form.s", "s", "lower", "derive.wall_s"),
    ("derivation.ivory.s", "s", "lower", "derive.wall_s"),
    ("derivation.self_s", "s", "lower", "derive.wall_s"),
    ("derivation.true_inverse.o12.s", "s", "lower", "derive.wall_s"),
    ("derivation.true_inverse.o24.s", "s", "lower", "derive.wall_s"),
    ("derivation.true_inverse.o36.s", "s", "lower", "derive.wall_s"),
    ("numeric.exact_row.s", "s", "lower", "sweep-exact.wall_s"),
    ("numeric.exact_share", "frac", "lower", "sweep-exact.wall_s"),
    ("numeric.ivory_coefficient.calls", "count", "lower", "sweep-exact.wall_s"),
    ("numeric.float_row.s", "s", "lower", "sweep-float.wall_s"),
    ("numeric.agm.calls", "count", "lower", "sweep-float.wall_s"),
    ("numeric.agm.s", "s", "lower", "sweep-float.wall_s"),
    ("numeric.sweep.s", "s", "lower", "sweep-float.wall_s"),
    # cli.run minus its children: the part of an operation no module span
    # covers, mostly argument parsing and the .17g table formatting
    ("cli.self_s", "s", "lower", "sweep-float.wall_s"),
    ("cli.out_bytes", "bytes", "lower", "sweep-float.wall_s"),
    # traced wall_s / untraced wall_s - 1: the cost of the wrappers, which
    # no change to the program is meant to move
    ("trace.overhead_frac", "frac", "lower", None),
]


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# -- spans -----------------------------------------------------------------


def read_spans(path: Path):
    """Spans written by a traced child: ([(name, start, end, parent)], counts)."""
    from array import array

    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        columns = []
        for typecode in "qddq":
            column = array(typecode)
            column.fromfile(handle, n)
            columns.append(column)
    names = [header["names"][i] for i in columns[0]]
    return list(zip(names, *columns[1:])), header["counts"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_accounting(spans, tol: float = 1e-6) -> str | None:
    """Self times must sum to the one root span and none may be negative."""
    own = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    if len(roots) != 1:
        return f"expected one root span, found {len(roots)}"
    _, start, end, _ = spans[roots[0]]
    total = math.fsum(own)
    if abs(total - (end - start)) > tol:
        return f"self times sum to {total}, root span lasts {end - start}"
    if own and min(own) < -tol:
        return f"negative self time {min(own)}: a child outlasts its parent"
    return None


def span_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    own = self_times(spans)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_module: dict[str, float] = {}
    expand_divides = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        module = name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + own[i]
        ancestors = []
        while parent >= 0:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        if name not in ancestors:  # count recursion once
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if name == "series.divide" and "cfrac.expand" in ancestors:
            expand_divides += 1

    def s(name):
        return inclusive.get(name, 0.0)

    return {
        "series.revert.s": s("series.revert"),
        "series.compose.calls": calls.get("series.compose", 0),
        "series.compose.s": s("series.compose"),
        "series.mul.calls": calls.get("series.mul", 0),
        "series.mul.s": s("series.mul"),
        "series.mul.madds": counts.get("series.mul.madds", 0),
        "series.divide.calls": calls.get("series.divide", 0),
        "series.divide.s": s("series.divide"),
        "series.sqrt.calls": calls.get("series.sqrt", 0),
        "series.sqrt.s": s("series.sqrt"),
        "cfrac.expand.s": s("cfrac.expand"),
        "cfrac.expand.divides": expand_divides,
        "derivation.full_report.s": s("derivation.full_report"),
        "derivation.true_inverse.s": s("derivation.true_inverse"),
        "derivation.closed_form.s": s("derivation.closed_form"),
        "derivation.ivory.s": s("derivation.ivory_series") + s("derivation.h_series"),
        "derivation.self_s": self_by_module.get("derivation", 0.0),
        "numeric.ivory_coefficient.calls": calls.get("numeric.ivory_coefficient", 0),
        "numeric.agm.calls": calls.get("numeric.agm", 0),
        "numeric.agm.s": s("numeric.agm"),
        "numeric.sweep.s": s("numeric.sweep"),
        "cli.self_s": self_by_module.get("cli", 0.0),
    }


def probe_metrics(report) -> dict[str, float]:
    ladder = report["ladder"]
    exact = [t for is_exact, t in report["rows"] if is_exact]
    floats = [t for is_exact, t in report["rows"] if not is_exact]
    rows = len(report["rows"])
    return {
        "derivation.true_inverse.o12.s": ladder["true_inverse.o12"],
        "derivation.true_inverse.o24.s": ladder["true_inverse.o24"],
        "derivation.true_inverse.o36.s": ladder["true_inverse.o36"],
        "cfrac.expand.o36.s": ladder["cfrac_expand.o36"],
        # true_inverse_series is h_series + revert, and revert is nearly all of it
        "series.revert.order_exp": math.log(
            ladder["true_inverse.o40"] / ladder["true_inverse.o24"]
        ) / math.log(40 / 24),
        "numeric.exact_row.s": statistics.median(exact) if exact else 0.0,
        "numeric.float_row.s": statistics.median(floats) if floats else 0.0,
        "numeric.exact_share": len(exact) / rows if rows else 0.0,
    }


def max_coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length in a verify-series TSV."""
    bits = 0
    for line in text.splitlines()[1:]:
        coeff = line.split("\t")[2]
        for part in coeff.lstrip("-").split("/"):
            bits = max(bits, int(part).bit_length())
    return bits


# -- checks ----------------------------------------------------------------


def sweep_grid(argv: list[str]) -> list[float]:
    low = float(argv[argv.index("--lambda-min") + 1])
    high = float(argv[argv.index("--lambda-max") + 1])
    steps = int(argv[argv.index("--steps") + 1])
    return [low + (high - low) * i / steps for i in range(steps + 1)]


def oracle_row(lam: float):
    """(lambda, h, lambda^2, approx, diff, normalized) to 50 digits.

    diff cancels about 10 digits per decade of lambda below 1 (it is about
    lambda^12 / 2^17 against lambda^2) and h = ... - 1 cancels about 2
    more, so the working precision grows as lambda shrinks.
    """
    import mpmath

    with mpmath.workdps(ORACLE_DPS + 10 + math.ceil(-12 * math.log10(lam))):
        x = mpmath.mpf(lam)
        a, b = 1 + x, 1 - x
        h = 4 * a * mpmath.ellipe(1 - (b / a) ** 2) / (2 * mpmath.pi) - 1
        approx = 4 * h - 3 * h * h / (2 + mpmath.sqrt(1 - 3 * h))
        diff = x * x - approx
        return (x, h, x * x, approx, diff, 32 * diff / h**6)


def check_sweep(argv: list[str], text: str, rng: random.Random) -> str | None:
    grid = sweep_grid(argv)
    lines = text.split("\n")
    if lines[0] != ERROR_TABLE_HEADER or lines[-1] != "":
        return "missing header or trailing newline"
    rows = lines[1:-1]
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    for lam, row in zip(grid, rows):
        if not row.startswith(f"{lam:.17g}\t"):
            return f"row {row[:40]!r} is not at grid lambda {lam:.17g}"
    picks = {0, len(rows) - 1, *rng.sample(range(len(rows)), ORACLE_ROWS)}
    for i in sorted(picks):
        got = [float(field) for field in rows[i].split("\t")]
        if len(got) != 6:
            return f"row {i} has {len(got)} fields"
        if got[0] == 0.0:
            want = (0, 0, 0, 0, 0, -1)
        else:
            want = oracle_row(grid[i])
        atol = [0.0] * 6
        if got[0] > EXACT_SWEEP_CUTOFF:
            atol[4] = FLOAT_DIFF_ATOL
            atol[5] = 32 * FLOAT_DIFF_ATOL / want[1] ** 6
        columns = ERROR_TABLE_HEADER.split("\t")
        for column, g, w, rtol, tol in zip(columns, got, want, ROW_RTOL, atol):
            if abs(g - w) > rtol * abs(w) + tol:
                return f"row {i} {column} = {g!r}, oracle {float(w)!r}"
    return None


def check_derive(argv: list[str], text: str, rng: random.Random) -> str | None:
    present = set(text.split("\n"))
    missing = [line for line in FIXTURE.read_text().split("\n")[:-1] if line not in present]
    if missing:
        return f"{len(missing)} fixture lines missing, first {missing[0]!r}"
    return None


# workload -> (CLI argv from the seeded generator, output check)
WORKLOADS = {
    "derive": (derive_argv, check_derive),
    "sweep-exact": (sweep_exact_argv, check_sweep),
    "sweep-float": (sweep_float_argv, check_sweep),
}


# -- processes ---------------------------------------------------------------


def _timeout(signum, frame):
    raise TimeoutError(f"operation exceeded {OP_TIMEOUT_S} s")


def spawn(args: list[str], env: dict, workdir: Path):
    """Run sys.executable with args to completion, stdout and stderr to files.

    Returns (wall seconds, exit code, child user+sys seconds, stdout bytes,
    stderr bytes).  The child is killed and reaped if anything interrupts
    the wait, so no process outlives the call.
    """
    out, err = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o600),
    ]
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return (wall, os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,
            out.read_bytes(), err.read_bytes())


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        make_argv, self.check = WORKLOADS[workload]
        self.argv = make_argv(self.rng)
        self.workdir = workdir
        # Children see none of the caller's PYTHON* settings (byte-code,
        # buffering, paths).  Byte-code goes to this run's scratch directory,
        # never into src/, and the untimed warm-up import writes it, as
        # installing a package would.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        self.attempted = 0
        self.failures: list[str] = []
        self.factors: list[float] = []
        self.last_calibration = math.nan

    def warm_up(self) -> None:
        """Write the byte-code of invarc and of the calibration's modules,
        then take the calibration that opens the first timed step."""
        self.import_seconds()
        self.calibrate()
        self.last_calibration = self.calibrate()

    def calibrate(self) -> float:
        wall, code, _, _, err = spawn(["-c", CALIBRATION_CODE], self.env, self.workdir)
        if code != 0:
            raise BenchError(f"calibration failed: {err.decode(errors='replace')}")
        return wall

    def speed_factor(self) -> float:
        """CALIBRATION_REF_S over the mean of the calibrations around the
        step just timed; the next step's opening calibration is this one's
        closing one."""
        now = self.calibrate()
        factor = 2 * CALIBRATION_REF_S / (self.last_calibration + now)
        self.last_calibration = now
        self.factors.append(factor)
        return factor

    def import_seconds(self) -> float:
        """Raw seconds of ``import invarc.cli`` in a fresh interpreter."""
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"import invarc.cli failed: {done.stderr.strip()}")
        return float(done.stdout)

    def op(self, mode: str):
        """One CLI invocation in a fresh interpreter, checked after timing.

        Returns (raw wall, raw cpu, speed factor, report path, stdout), or
        None if it failed.
        """
        report = self.workdir / "report"
        report.unlink(missing_ok=True)
        self.attempted += 1
        wall, code, cpu, out, err = spawn([str(CHILD), str(report), mode, *self.argv],
                                          self.env, self.workdir)
        factor = self.speed_factor()
        if code != 0:
            problem = f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
        else:
            problem = self.check(self.argv, out.decode(), self.rng)
        if problem is not None:
            self.failures.append(f"{mode}: {problem}")
            return None
        return wall, cpu, factor, report, out

    def probe(self) -> dict:
        report = self.workdir / "probe"
        self.attempted += 1
        _, code, _, _, err = spawn([str(CHILD), str(report), "probe", *self.argv],
                                   self.env, self.workdir)
        if code != 0:
            self.failures.append(f"probe exit {code}: {err.decode(errors='replace')[-300:]}")
            return {}
        return probe_metrics(json.loads(report.read_text()))


def tail(values: list[float]):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ranked = sorted(values)
    return {"value": ranked[n - 11], "percentile": round(100 * (n - 10) / n, 1), "n": n}


def measure_plain(runner: Runner, seconds: float, record: dict) -> dict:
    setup = []
    for _ in range(SETUP_REPS):
        raw = runner.import_seconds()
        setup.append(raw * runner.speed_factor())
    walls, cpus, rss, raw_walls = [], [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        done = runner.op("plain")
        if done is None:
            continue
        wall, cpu, factor, report, _ = done
        raw_walls.append(wall)
        walls.append(wall * factor)
        cpus.append(cpu * factor)
        rss.append(int(report.read_text()) / 1024)
    record["wall_s_tail"] = tail(walls)
    record["raw_wall_samples_s"] = raw_walls
    record["setup_samples_s"] = setup
    if not walls:
        return {}
    record["raw_wall_s"] = statistics.median(raw_walls)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_traced(runner: Runner, seconds: float, record: dict) -> dict:
    plain_walls, traced_walls, per_op = [], [], []
    deadline = perf_counter() + seconds
    turn = 0
    while perf_counter() < deadline or turn < 2:
        mode = ("plain", "traced")[turn % 2]
        turn += 1
        done = runner.op(mode)
        if done is None:
            continue
        wall, _, factor, report, out = done
        if mode == "plain":
            plain_walls.append(wall * factor)
            continue
        traced_walls.append(wall * factor)
        spans, counts = read_spans(report)
        problem = check_accounting(spans)
        if problem is not None:
            runner.failures.append(f"traced: {problem}")
            continue
        metrics = span_metrics(spans, counts)
        metrics["cli.out_bytes"] = len(out)
        text = out.decode()
        metrics["series.max_coeff_bits"] = (
            max_coeff_bits(text) if runner.workload == "derive" else 0
        )
        per_op.append(metrics)
    record["traced_ops"] = len(traced_walls)
    probe = runner.probe()
    if not (per_op and plain_walls and probe):
        return {}
    # median_low keeps the counts whole; they are equal in every op anyway
    metrics = {name: statistics.median_low(op[name] for op in per_op) for name in per_op[0]}
    metrics.update(probe)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    )
    return metrics


# -- main --------------------------------------------------------------------


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "invarc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or None


def preflight() -> None:
    if not (SRC / "invarc" / "cli.py").is_file():
        raise BenchError(f"no invarc sources under {SRC}")
    if not FIXTURE.is_file():
        raise BenchError(f"missing fixture {FIXTURE}")
    try:
        import mpmath  # noqa: F401  (the sweep oracle)
    except ImportError as exc:
        raise BenchError(f"the sweep oracle needs mpmath: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        preflight()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
        "loadavg_start": loadavg(),
    }
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix="perfbench-") as tmp:
        runner = Runner(args.workload, args.seed, Path(tmp))
        record["argv"] = runner.argv
        try:
            runner.warm_up()
            measure = measure_traced if args.trace else measure_plain
            values = measure(runner, args.seconds, record)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    record["loadavg_end"] = loadavg()
    record["attempted"] = runner.attempted
    record["fail_frac"] = len(runner.failures) / runner.attempted
    record["speed_factors"] = runner.factors
    record["failures"] = runner.failures[:5]
    print("perfbench-record " + json.dumps(record))

    if args.trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    result = {
        "correct": not runner.failures and len(metrics) == len(units),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
