"""One benchmark operation, run in a fresh interpreter.

    python3 child.py REPORT MODE [CLI ARGS...]

MODE is one of

    plain   run ``invarc.cli.run(args)`` exactly as the ``invarc`` console
            script does, then write the process's own peak RSS (``VmHWM``
            from /proc/self/status, in kB) to REPORT.
    traced  the same, but first wrap the public functions of every invarc
            module so that each call records a span (name, start, end,
            parent index).  Spans stay in memory and are written to REPORT
            at exit, with the counters kept at the same boundaries; run.py's
            read_spans reads them back.
    probe   untraced timings that do not come from the CLI: the
            order ladder of ``true_inverse_series`` and ``cfrac_expand``,
            and, when the arguments are an ``error-table`` call, a replay
            of its lambda grid through ``error_sweep([lam], cfg)`` one row
            at a time.  Writes JSON to REPORT.

Nothing here changes a source file: all wrapping happens at run time, in
this process only.  Stdout carries only what the CLI itself prints.
"""

import sys


def _vmhwm_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _plain(report, argv):
    from invarc.cli import run

    code = run(argv)
    sys.stdout.flush()
    with open(report, "w") as handle:
        handle.write(f"{_vmhwm_kb()}\n")
    return code


def _install_tracer():
    """Wrap the public invarc functions; return (run, spans, counts)."""
    from array import array
    from time import perf_counter

    from invarc import cfrac, cli, derivation, numeric, series

    # one span per call, in call order, as parallel columns
    spans = {"name": [], "start": array("d"), "end": array("d"), "parent": array("q")}
    names, starts, ends, parents = spans.values()
    stack = [-1]
    counts = {"series.mul.madds": 0}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    mul = series.PowerSeries.__mul__

    def counted_mul(self, other):
        if isinstance(other, series.PowerSeries):
            n = min(self.order, other.order)
            counts["series.mul.madds"] += (n + 1) * (n + 2) // 2
        return mul(self, other)

    ps = series.PowerSeries
    # span name -> every (owner, attribute) through which the CLI reaches
    # the same function object; aliases and re-imports are wrapped too.
    targets = {
        "series.mul": (counted_mul, [(ps, "__mul__"), (ps, "__rmul__")]),
        "series.divide": (ps.divide, [(ps, "divide"), (ps, "__truediv__")]),
        "series.sqrt": (ps.sqrt, [(ps, "sqrt")]),
        "series.compose": (ps.compose, [(ps, "compose")]),
        "series.revert": (ps.revert, [(ps, "revert")]),
        "cfrac.expand": (
            cfrac.cfrac_expand,
            [(cfrac, "cfrac_expand"), (derivation, "cfrac_expand"), (cli, "cfrac_expand")],
        ),
        "derivation.full_report": (
            derivation.full_report,
            [(derivation, "full_report"), (cli, "full_report")],
        ),
        "derivation.true_inverse": (
            derivation.true_inverse_series,
            [(derivation, "true_inverse_series"), (cli, "true_inverse_series")],
        ),
        "derivation.closed_form": (
            derivation.ramanujan_series,
            [(derivation, "ramanujan_series")],
        ),
        "derivation.ivory_series": (
            derivation.ivory_series,
            [(derivation, "ivory_series")],
        ),
        "derivation.h_series": (derivation.h_series, [(derivation, "h_series")]),
        "numeric.sweep": (
            numeric.error_sweep,
            [(numeric, "error_sweep"), (cli, "error_sweep")],
        ),
        "numeric.h_of": (numeric.h_of, [(numeric, "h_of")]),
        "numeric.agm": (numeric.perimeter_agm, [(numeric, "perimeter_agm")]),
        "numeric.ivory_coefficient": (
            numeric.ivory_coefficient,
            [(numeric, "ivory_coefficient")],
        ),
    }
    for name, (fn, places) in targets.items():
        traced = wrap(name, fn)
        for owner, attr in places:
            setattr(owner, attr, traced)
    return wrap("cli.run", cli.run), spans, counts


def _traced(report, argv):
    import json
    from array import array

    run, spans, counts = _install_tracer()
    code = run(argv)
    sys.stdout.flush()
    # a JSON header line, then the columns as native int64 / float64 arrays
    table = sorted(set(spans["name"]))
    index = {name: i for i, name in enumerate(table)}
    header = {"names": table, "spans": len(spans["name"]), "counts": counts}
    with open(report, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        handle.write(array("q", [index[name] for name in spans["name"]]).tobytes())
        for column in ("start", "end", "parent"):
            handle.write(spans[column].tobytes())
    return code


def _probe(report, argv):
    import json
    from time import perf_counter

    from invarc.cfrac import cfrac_expand
    from invarc.cli import build_parser
    from invarc.derivation import true_inverse_series
    from invarc.numeric import EXACT_SWEEP_CUTOFF, PrecisionConfig, error_sweep

    ladder = {}
    source = {}
    for order in (12, 24, 36, 40):
        start = perf_counter()
        source[order] = true_inverse_series(order)
        ladder[f"true_inverse.o{order}"] = perf_counter() - start
    start = perf_counter()
    cfrac_expand(source[36], 34)
    ladder["cfrac_expand.o36"] = perf_counter() - start

    rows = []  # [1 if the exact path, seconds]
    args = build_parser().parse_args(argv)
    if args.command == "error-table":
        cfg = PrecisionConfig(abs_tol=args.abs_tol)
        span = args.lambda_max - args.lambda_min
        # the grid cli._cmd_error_table builds; run.py checks the printed
        # lambda column against the same formula
        for i in range(args.steps + 1):
            lam = args.lambda_min + span * i / args.steps
            start = perf_counter()
            error_sweep([lam], cfg)
            rows.append([int(lam <= EXACT_SWEEP_CUTOFF), perf_counter() - start])
    with open(report, "w") as handle:
        json.dump({"ladder": ladder, "rows": rows}, handle)
    return 0


def main():
    report, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    modes = {"plain": _plain, "traced": _traced, "probe": _probe}
    return modes[mode](report, argv)


if __name__ == "__main__":
    sys.exit(main())
