"""Floating-point engines, the error sweep, and inversion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from invarc import cli, numeric
from invarc.derivation import ivory_coefficient
from invarc.numeric import (
    ABS_TOL_CEILING,
    AGM_MAX_ITER,
    EXACT_SWEEP_CUTOFF,
    Ellipse,
    ErrorRow,
    NumericError,
    PrecisionConfig,
    SERIES_MAX_TERMS,
    error_sweep,
    h_of,
    invert_from_measurements,
    lambda_of,
    measured_excess,
    perimeter_agm,
    perimeter_series,
    ramanujan_lambda_sq,
)

from series_helpers import whole


def arc_length_quadrature(a, b):
    """Independent perimeter oracle: direct quadrature of the arc length."""
    f = lambda t: math.hypot(a * math.sin(t), b * math.cos(t))
    value, _ = quad(f, 0.0, math.pi / 2.0, limit=200)
    return 4.0 * value


def test_ellipse_validation():
    with pytest.raises(
        NumericError, match=whole("semimajor axis must be positive and finite, got 0.0")
    ):
        Ellipse(0.0, 0.0)
    with pytest.raises(NumericError, match=whole("need a >= b >= 0, got a=1.0, b=2.0")):
        Ellipse(1.0, 2.0)
    with pytest.raises(NumericError, match=whole("need a >= b >= 0, got a=1.0, b=-0.5")):
        Ellipse(1.0, -0.5)
    Ellipse(1.0, 1.0)
    Ellipse(1.0, 0.0)


def test_lambda_of():
    assert lambda_of(Ellipse(2.0, 1.0)) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert lambda_of(Ellipse(1.0, 1.0)) == 0.0
    assert lambda_of(Ellipse(3.0, 0.0)) == 1.0


def test_perimeter_engines_on_2_by_1():
    e = Ellipse(2.0, 1.0)
    assert perimeter_agm(e) == pytest.approx(9.688448220547675, abs=1e-14)
    assert perimeter_series(e) == pytest.approx(9.688448220547656, abs=1e-13)


def test_perimeter_against_quadrature():
    for a, b in [(1.0, 1.0), (2.0, 1.0), (1.0, 0.25), (5.0, 4.0)]:
        oracle = arc_length_quadrature(a, b)
        assert perimeter_agm(Ellipse(a, b)) == pytest.approx(oracle, rel=1e-10)


def test_circle_is_exact():
    r = 1.5
    assert perimeter_agm(Ellipse(r, r)) == 2.0 * math.pi * r
    assert perimeter_series(Ellipse(r, r)) == pytest.approx(
        2.0 * math.pi * r, abs=1e-14
    )


def test_degenerate_segment():
    assert perimeter_agm(Ellipse(2.5, 0.0)) == 10.0


def test_engines_agree_up_to_lambda_09():
    worst = 0.0
    for i in range(1, 91):
        lam = i / 100.0
        e = Ellipse(1.0 + lam, 1.0 - lam)
        gap = abs(perimeter_agm(e) - perimeter_series(e)) / perimeter_agm(e)
        worst = max(worst, gap)
    assert worst < 1e-12


def test_series_engine_gives_up_near_degenerate():
    # lambda -> 1 makes the series converge too slowly for any sane cap
    with pytest.raises(NumericError, match=whole("series did not reach tol 1e-14 in 10000 terms")):
        perimeter_series(Ellipse(1.999999, 1e-6))


def test_series_engine_may_use_its_last_term():
    # at lambda = 1 the terms only fall below a tol just above the last
    # allowed term's coefficient, so the cap is reached and not exceeded
    tol = math.nextafter(float(ivory_coefficient(SERIES_MAX_TERMS)), math.inf)
    total = perimeter_series(Ellipse(1.0, 0.0), PrecisionConfig(abs_tol=tol))
    assert abs(total - 4.0) < 1e-6


def test_agm_iteration_cap():
    with pytest.raises(NumericError, match=whole("AGM did not converge in 64 iterations")):
        perimeter_agm(Ellipse(1.3501, 0.6499), PrecisionConfig(abs_tol=1e-16))


def test_agm_cap_allows_exactly_agm_max_iter_iterations(monkeypatch):
    # the AGM from (1, 1/3) gets |x - y| down to 1e-15 in five steps
    uncapped = numeric._agm_perimeter(1.5, 0.5, 1e-15)
    monkeypatch.setattr(numeric, "AGM_MAX_ITER", 5)
    assert numeric._agm_perimeter(1.5, 0.5, 1e-15) == uncapped
    monkeypatch.setattr(numeric, "AGM_MAX_ITER", 4)
    with pytest.raises(NumericError, match=whole("AGM did not converge in 4 iterations")):
        numeric._agm_perimeter(1.5, 0.5, 1e-15)


def test_precision_config_validation():
    with pytest.raises(NumericError, match=whole("abs_tol must be positive and finite, got 0.0")):
        PrecisionConfig(abs_tol=0.0)
    assert AGM_MAX_ITER == 64
    assert SERIES_MAX_TERMS == 10000


def test_h_of_2_by_1():
    assert h_of(Ellipse(2.0, 1.0)) == pytest.approx(
        0.027976283460026563, abs=1e-17
    )


def test_h_of_circle_is_zero():
    assert abs(h_of(Ellipse(1.0, 1.0))) < 1e-15


def test_ramanujan_lambda_sq_values():
    assert ramanujan_lambda_sq(0.0) == 0.0
    assert ramanujan_lambda_sq(0.01) == pytest.approx(
        0.03989949364160194, abs=1e-17
    )
    # endpoint: 4/3 - (3/9)/2 = 7/6
    assert ramanujan_lambda_sq(1.0 / 3.0) == pytest.approx(7.0 / 6.0, abs=1e-15)


def test_ramanujan_lambda_sq_domain():
    with pytest.raises(NumericError, match=whole("h = -0.01 outside [0, 1/3]")):
        ramanujan_lambda_sq(-0.01)
    with pytest.raises(NumericError, match=whole("h = 0.34 outside [0, 1/3]")):
        ramanujan_lambda_sq(0.34)


def test_sweep_row_at_zero():
    row = error_sweep([0.0])[0]
    assert row == ErrorRow(0.0, 0.0, 0.0, 0.0, 0.0, -1.0)


def test_sweep_normalized_pins():
    rows = error_sweep([0.05, 0.2, 0.9])
    assert rows[0].normalized == pytest.approx(-1.004310258203722, abs=1e-12)
    assert rows[1].normalized == pytest.approx(-1.072322889326707, abs=1e-12)
    assert rows[2].normalized == pytest.approx(-9.494997033534705, rel=1e-9)


def test_sweep_diff_is_negative_overestimate():
    for row in error_sweep([0.01, 0.1, 0.3, 0.5, 0.8]):
        assert row.diff < 0.0


def test_sweep_paths_agree_at_the_cutoff():
    # the exact and float paths must tell the same story near the switch
    lam = EXACT_SWEEP_CUTOFF
    exact_row = error_sweep([lam])[0]
    e = Ellipse(1.0 + lam, 1.0 - lam)
    float_h = h_of(e)
    assert exact_row.h == pytest.approx(float_h, rel=1e-12)
    float_diff = lam * lam - ramanujan_lambda_sq(float_h)
    assert exact_row.diff == pytest.approx(float_diff, rel=1e-4)


def test_sweep_rejects_out_of_range():
    with pytest.raises(NumericError, match=whole("lambda = 1.0 outside [0, 1)")):
        error_sweep([1.0])
    with pytest.raises(NumericError, match=whole("lambda = -0.1 outside [0, 1)")):
        error_sweep([-0.1])


def test_sweep_preserves_input_order():
    rows = error_sweep([0.2, 0.05, 0.1])
    assert [r.lam for r in rows] == [0.2, 0.05, 0.1]


def test_normalized_tends_to_minus_one():
    rows = error_sweep([0.2, 0.1, 0.05, 0.02, 0.01])
    gaps = [abs(r.normalized + 1.0) for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    # the gap scales like lambda^2: ~1.7e-4 at lambda = 0.01
    assert gaps[-1] < 2e-4


def test_invert_round_trip():
    for lam in (0.05, 0.1, 0.2, 0.35, 0.5):
        src = Ellipse(1.0 + lam, 1.0 - lam)
        got = invert_from_measurements(perimeter_agm(src), src.a + src.b)
        assert got.a == pytest.approx(src.a, rel=1e-6)
        assert got.b == pytest.approx(src.b, rel=1e-6)


def test_invert_matches_root_finding():
    # cross-check against solving perimeter_agm(lam) = L with brentq
    src = Ellipse(1.3, 0.7)
    L = perimeter_agm(src)
    f = lambda lam: perimeter_agm(Ellipse(1.0 + lam, 1.0 - lam)) - L
    lam_exact = brentq(f, 0.0, 0.999999, xtol=1e-13)
    got = invert_from_measurements(L, 2.0)
    assert lambda_of(got) == pytest.approx(lam_exact, abs=1e-7)


def test_invert_circle():
    e = invert_from_measurements(2.0 * math.pi, 2.0)
    assert e.a == pytest.approx(1.0, abs=1e-9)
    assert e.b == pytest.approx(1.0, abs=1e-9)


def test_invert_degenerate_end_clamps():
    # at L = 4s the closed form overshoots lambda^2 = 1 slightly; the
    # clamp keeps the result a valid (degenerate) ellipse
    e = invert_from_measurements(4.0, 1.0)
    assert e.a == 1.0
    assert e.b == 0.0


def test_invert_bracket_violations():
    with pytest.raises(
        NumericError, match=whole(f"perimeter 3.0 below the circle bound pi*sum = {math.pi}")
    ):
        invert_from_measurements(3.0, 1.0)
    with pytest.raises(
        NumericError, match=whole("perimeter 4.01 above the degenerate bound 4*sum = 4.0")
    ):
        invert_from_measurements(4.01, 1.0)
    with pytest.raises(NumericError, match=whole("axis sum must be positive, got 0.0")):
        invert_from_measurements(3.5, 0.0)


def test_invert_depends_only_on_the_ratio():
    unit = 2.0**-1074
    # pi*sum is subnormal: 3 units of perimeter against pi units was taken
    # for a circle, and 71 against 20*pi units gave h 0.127 instead of 0.130
    with pytest.raises(
        NumericError,
        match=whole("perimeter 1.5e-323 below the circle bound pi*sum = 1.5521530033659567e-323"),
    ):
        invert_from_measurements(3 * unit, unit)
    assert measured_excess(71 * unit, 20 * unit) == measured_excess(71.0, 20.0)
    # a huge negative perimeter is below the circle bound, not an overflow
    with pytest.raises(
        NumericError,
        match=whole(
            "perimeter -8.98846567431158e+307 below the circle bound pi*sum = 0.7853981633974483"
        ),
    ):
        invert_from_measurements(-8.98846567431158e307, 0.25)


@given(st.floats(min_value=0.001, max_value=0.9))
@settings(max_examples=40, deadline=None)
def test_engine_agreement_property(lam):
    e = Ellipse(1.0 + lam, 1.0 - lam)
    assert perimeter_series(e) == pytest.approx(perimeter_agm(e), rel=1e-12)


@given(st.floats(min_value=1e-9, max_value=4.0 / math.pi - 1.0))
@settings(max_examples=60)
def test_closed_form_monotone_on_physical_range(h):
    # monotone over every h an actual ellipse can produce; very close to
    # the mathematical endpoint 1/3 the root's infinite slope breaks this
    assert ramanujan_lambda_sq(h) > ramanujan_lambda_sq(h - 1e-9)


def test_non_finite_inputs_are_rejected():
    for a, b, message in [
        (math.inf, 1.0, "semimajor axis must be positive and finite, got inf"),
        (math.nan, 1.0, "semimajor axis must be positive and finite, got nan"),
        (1.0, math.nan, "need a >= b >= 0, got a=1.0, b=nan"),
        (math.inf, math.inf, "semimajor axis must be positive and finite, got inf"),
    ]:
        with pytest.raises(NumericError, match=whole(message)):
            Ellipse(a, b)
    for tol in (math.inf, math.nan):
        with pytest.raises(
            NumericError, match=whole(f"abs_tol must be positive and finite, got {tol}")
        ):
            PrecisionConfig(abs_tol=tol)
    finite = "perimeter and axis sum must be finite, got "
    for perimeter, axis_sum in [(math.nan, 3.0), (7.0, math.nan), (math.inf, math.inf)]:
        with pytest.raises(NumericError, match=whole(f"{finite}{perimeter} and {axis_sum}")):
            invert_from_measurements(perimeter, axis_sum)
    with pytest.raises(NumericError, match=whole("h = nan outside [0, 1/3]")):
        ramanujan_lambda_sq(math.nan)
    for perimeter, axis_sum in [(math.nan, 1.0), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(NumericError, match=whole(f"{finite}{perimeter} and {axis_sum}")):
            measured_excess(perimeter, axis_sum)
    with pytest.raises(NumericError, match=whole("axis sum must be positive, got 0.0")):
        measured_excess(1.0, 0.0)


# both sides of the exact/float hand-over at EXACT_SWEEP_CUTOFF = 0.35,
# and out towards the degenerate end
ORACLE_LAMBDAS = (1e-3, 0.05, 0.2, 0.3499, 0.35, 0.35000001, 0.3501, 0.5, 0.9, 0.999, 0.99999)


def test_sweep_matches_mpmath_oracle():
    # Independent 50-digit oracle: h = 4a E(m)/(pi (a+b)) - 1 for the
    # ellipse a = 1 + lambda, b = 1 - lambda, with E the complete elliptic
    # integral of the second kind at parameter m = 1 - (b/a)^2.
    mpmath = pytest.importorskip("mpmath")
    rows = error_sweep(ORACLE_LAMBDAS)
    with mpmath.workdps(50):
        for row in rows:
            lam = mpmath.mpf(row.lam)
            a, b = 1 + lam, 1 - lam
            h = 4 * a * mpmath.ellipe(1 - (b / a) ** 2) / (mpmath.pi * (a + b)) - 1
            approx = 4 * h - 3 * h**2 / (2 + mpmath.sqrt(1 - 3 * h))
            diff = lam**2 - approx
            normalized = 32 * diff / h**6
            assert row.h == pytest.approx(float(h), rel=1e-12), row
            assert row.lambda_sq_approx == pytest.approx(float(approx), rel=1e-12), row
            assert row.diff == pytest.approx(float(diff), rel=1e-4), row
            assert row.normalized == pytest.approx(float(normalized), rel=1e-4), row
            if row.lam > EXACT_SWEEP_CUTOFF:
                assert abs(row.diff - float(diff)) <= 1e-14, row


# seeded log-uniform lambdas over the exact path's range, its cutoff, and
# lambdas whose h, diff or lambda^2 underflow or are subnormal
WHOLE_RANGE_LAMBDAS = sorted(
    [10 ** random.Random(20260).uniform(-12, math.log10(EXACT_SWEEP_CUTOFF)) for _ in range(60)]
    + [EXACT_SWEEP_CUTOFF, 1e-150, 1e-200, 2.5e-310, 5e-324]
)


def test_exact_sweep_path_matches_mpmath_over_its_whole_range():
    # The oracle of test_sweep_matches_mpmath_oracle at digits set from
    # lambda: h ~ lambda^2/4 cancels 2|log10 lambda| digits in the "- 1"
    # and diff ~ -h^6/32 another 10|log10 lambda| against lambda^2.
    mpmath = pytest.importorskip("mpmath")
    for row in error_sweep(WHOLE_RANGE_LAMBDAS):
        with mpmath.workdps(int(60 - 12 * math.log10(row.lam))):
            lam = mpmath.mpf(row.lam)
            a, b = 1 + lam, 1 - lam
            h = 4 * a * mpmath.ellipe(1 - (b / a) ** 2) / (mpmath.pi * (a + b)) - 1
            approx = 4 * h - 3 * h**2 / (2 + mpmath.sqrt(1 - 3 * h))
            diff = lam**2 - approx
            normalized = 32 * diff / h**6
        assert abs(row.h - float(h)) <= math.ulp(float(h)), row
        assert abs(row.lambda_sq_approx - float(approx)) <= math.ulp(float(approx)), row
        assert row.diff == pytest.approx(float(diff), rel=1e-5, abs=0), row
        assert row.normalized == pytest.approx(float(normalized), rel=1e-5, abs=0), row


def test_abs_tol_ceiling():
    # past 1e-8 the float sweep path misses the 50-digit oracle's bounds
    assert PrecisionConfig(abs_tol=ABS_TOL_CEILING).abs_tol == 1e-8
    for tol in (1e-7, 1e-3, 1.0, 1e300):
        with pytest.raises(NumericError, match=whole(f"abs_tol must be at most 1e-08, got {tol}")):
            PrecisionConfig(abs_tol=tol)


def _oracle_exact_sqrt_floor(value: Fraction, bits: int) -> Fraction:
    """Lower bound for sqrt(value) with error below 2^-bits."""
    p, q = value.numerator, value.denominator
    return Fraction(math.isqrt((p * q) << (2 * bits)), q << bits)


def _oracle_exact_row(lam: float) -> ErrorRow:
    """The exact sweep row as it was first written, in Fraction arithmetic.

    The package's integer row must return the same ErrorRow, float for
    float, and raise the same NumericError at the term cap.
    """
    lam_exact = Fraction(lam)
    x = lam_exact * lam_exact
    target = (x / 4) ** 6 / 10**8
    h = Fraction(0)
    xpow = x
    for n in range(1, numeric.SERIES_MAX_TERMS + 1):
        term = ivory_coefficient(n) * xpow
        xpow *= x
        if n > 1 and 2 * term <= target:
            break
        h += term
    else:
        raise NumericError("exact series summation exceeded the iteration cap")
    radicand = 1 - 3 * h
    lead_gap = h.denominator.bit_length() - h.numerator.bit_length()
    bits = 4 * max(1, lead_gap + 1) + 48
    root = _oracle_exact_sqrt_floor(radicand, bits)
    approx = 4 * h - 3 * h * h / (2 + root)
    diff = x - approx
    normalized = 32 * diff / h**6
    return ErrorRow(lam, float(h), float(x), float(approx), float(diff), float(normalized))


@given(st.floats(min_value=0, max_value=EXACT_SWEEP_CUTOFF, exclude_min=True, allow_subnormal=True))
@example(EXACT_SWEEP_CUTOFF)
@example(math.nextafter(EXACT_SWEEP_CUTOFF, 0))
@example(5e-324)
@example(2.5e-310)
@example(1e-150)
# powers of two near 2^-7 leave the least room between K and 4 * lead_gap
@example(2.0**-2)
@example(2.0**-5)
@example(2.0**-7)
@example(2.0**-8)
@example(2.0**-12)
@settings(max_examples=150, deadline=None)
def test_exact_row_matches_the_fraction_oracle(lam):
    got = error_sweep([lam])[0]
    want = _oracle_exact_row(lam)
    assert got == want
    # == takes -0.0 for 0.0; the printed table does not
    assert [math.copysign(1, v) for v in got] == [math.copysign(1, v) for v in want]


def test_exact_row_term_cap_matches_the_fraction_oracle(monkeypatch):
    # no lambda on the exact path reaches the cap, so lower it
    monkeypatch.setattr(numeric, "SERIES_MAX_TERMS", 3)
    message = whole("exact series summation exceeded the iteration cap")
    with pytest.raises(NumericError, match=message):
        error_sweep([0.3])
    with pytest.raises(NumericError, match=message):
        _oracle_exact_row(0.3)


def _oracle_float_row(lam: float, cfg: PrecisionConfig) -> ErrorRow:
    """The float sweep row as it was first written, through h_of and an
    Ellipse.  The package's row must return the same ErrorRow, float for
    float, and raise the same NumericError where the AGM hits its cap."""
    h = h_of(Ellipse(1.0 + lam, 1.0 - lam), cfg)
    true = lam * lam
    approx = ramanujan_lambda_sq(h)
    diff = true - approx
    return ErrorRow(lam, h, true, approx, diff, 32.0 * diff / h**6)


def _row_or_error(compute):
    try:
        return compute()
    except NumericError as exc:
        return type(exc), str(exc)


@given(
    st.floats(min_value=EXACT_SWEEP_CUTOFF, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e-16, max_value=ABS_TOL_CEILING),
)
@example(math.nextafter(EXACT_SWEEP_CUTOFF, 1.0), 1e-14)
@example(0.99, 1e-14)
@example(math.nextafter(1.0, 0.0), 1e-14)
@example(0.3501, 1e-16)  # the AGM hits its cap
@example(0.99, ABS_TOL_CEILING)
@settings(max_examples=150, deadline=None)
def test_float_row_matches_the_ellipse_oracle(lam, abs_tol):
    cfg = PrecisionConfig(abs_tol=abs_tol)
    got = _row_or_error(lambda: error_sweep([lam], cfg)[0])
    want = _row_or_error(lambda: _oracle_float_row(lam, cfg))
    assert got == want
    if isinstance(got, ErrorRow):
        assert [math.copysign(1, v) for v in got] == [math.copysign(1, v) for v in want]
        assert cli._ERROR_ROW_FORMAT % got == "\t".join(f"{v:.17g}" for v in got)

