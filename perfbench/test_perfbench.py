"""Self-test of the benchmark: span arithmetic, metric catalogue, checks.

    python3 -m pytest perfbench
"""

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span_tree():
    # cli.run [0, 10] > numeric.sweep [1, 6] > two h_of calls, one with an agm
    return [
        ("cli.run", 0.0, 10.0, -1),
        ("numeric.sweep", 1.0, 6.0, 0),
        ("numeric.h_of", 2.0, 4.0, 1),
        ("numeric.agm", 2.5, 3.5, 2),
        ("numeric.h_of", 4.0, 5.0, 1),
    ]


def test_self_times_sum_to_the_root_span():
    spans = _span_tree()
    assert run.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.0])
    assert run.check_accounting(spans) is None


def test_accounting_rejects_orphans_and_escaping_children():
    orphan = _span_tree() + [("numeric.agm", 7.0, 8.0, -1)]
    assert "root" in run.check_accounting(orphan)
    escaping = _span_tree()
    escaping[4] = ("numeric.h_of", 4.0, 9.0, 1)
    assert "negative" in run.check_accounting(escaping)


def test_span_metrics_inclusive_time_calls_and_self_time():
    spans = [
        ("cli.run", 0.0, 10.0, -1),
        ("derivation.full_report", 1.0, 9.0, 0),
        ("series.revert", 1.0, 5.0, 1),
        ("series.revert", 2.0, 3.0, 2),  # recursion counts once in the time
        ("cfrac.expand", 5.0, 8.0, 1),
        ("series.divide", 5.5, 6.5, 4),
        ("series.divide", 8.0, 8.5, 1),  # not under cfrac.expand
    ]
    metrics = run.span_metrics(spans, {"series.mul.madds": 7})
    assert metrics["series.revert.s"] == pytest.approx(4.0)
    assert metrics["series.divide.calls"] == 2
    assert metrics["series.divide.s"] == pytest.approx(1.5)
    assert metrics["cfrac.expand.divides"] == 1
    assert metrics["derivation.self_s"] == pytest.approx(8.0 - 4.0 - 3.0 - 0.5)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["series.mul.madds"] == 7


def test_metric_and_workload_names():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(run.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


def test_emitted_metrics_match_the_benchmark_file():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [entry[:3] for entry in run.PER_LAYER]
    spans = [("cli.run", 0.0, 1.0, -1)]
    probe = {"ladder": {f"true_inverse.o{o}": 1.0 + o for o in (12, 24, 36, 40)}
             | {"cfrac_expand.o36": 1.0}, "rows": [[1, 1e-3], [0, 1e-5]]}
    emitted = set(run.span_metrics(spans, {})) | set(run.probe_metrics(probe))
    emitted |= {"cli.out_bytes", "series.max_coeff_bits", "trace.overhead_frac"}
    assert emitted == {name for name, _, _, _ in run.PER_LAYER}


def test_every_layer_metric_names_what_it_should_move():
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, _, _, moves in run.PER_LAYER:
        if moves is None:
            assert name.startswith("trace."), f"{name} names no end-to-end metric"
            continue
        workload, metric = moves.split(".", 1)
        assert workload in why and metric in end_to_end, name
        module = name.split(".", 1)[0]
        assert f"{module}." in why[workload], f"{workload}'s why omits {module}"


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(v) for v in range(40)]) == {"value": 29.0, "percentile": 75.0, "n": 40}


def _cli(*argv):
    env = {"PYTHONPATH": str(run.SRC)}
    done = subprocess.run([sys.executable, "-m", "invarc", *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_sweep_check_accepts_both_paths_and_catches_a_wrong_digit():
    argv = ["error-table", "--lambda-min", "0.3", "--lambda-max", "0.4", "--steps", "10"]
    text = _cli(*argv)
    assert run.check_sweep(argv, text, random.Random(1)) is None
    lines = text.split("\n")
    fields = lines[3].split("\t")
    fields[4] = repr(float(fields[4]) * (1 + 1e-3))
    lines[3] = "\t".join(fields)
    broken = "\n".join(lines)
    assert "diff" in run.check_sweep(argv, broken, random.Random(1))
    assert "rows" in run.check_sweep(argv, text.replace(lines[5] + "\n", ""), random.Random(1))


def test_max_coeff_bits_of_the_order_12_fixture():
    # the widest number there is the denominator of the tenth partial
    # numerator, 48187297016831738, which needs 56 bits
    assert run.max_coeff_bits(run.FIXTURE.read_text()) == 56


def test_traced_child_spans_account_for_the_whole_run(tmp_path):
    report = tmp_path / "report"
    env = {"PYTHONPATH": str(run.SRC)}
    subprocess.run([sys.executable, str(run.CHILD), str(report), "traced",
                    "verify-series", "--order", "8"], env=env, check=True,
                   capture_output=True)
    spans, counts = run.read_spans(report)
    assert spans[0][0] == "cli.run"
    assert run.check_accounting(spans) is None
    metrics = run.span_metrics(spans, counts)
    assert metrics["series.compose.calls"] == 7  # revert composes once per order 2..8
    assert metrics["series.mul.madds"] > 0
