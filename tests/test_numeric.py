"""Floating-point engines, the error sweep, and inversion."""

import math
import random
import struct
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from invarc import cli, numeric
from invarc.numeric import (
    ABS_TOL_CEILING,
    AGM_MAX_ITER,
    DEFAULT_CONFIG,
    EXACT_SWEEP_CUTOFF,
    Ellipse,
    Inversion,
    NumericError,
    PrecisionConfig,
    SERIES_MAX_TERMS,
    error_sweep,
    h_of,
    invert_from_measurements,
    ivory_coefficient,
    lambda_of,
    perimeter_agm,
    perimeter_series,
    ramanujan_lambda_sq,
)

from series_helpers import ErrorRow, measurements, rows, whole

FIXTURES = Path(__file__).parent / "fixtures"


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
    assert rows(error_sweep([0.0])) == [ErrorRow(0.0, 0.0, 0.0, 0.0, 0.0, -1.0)]


def test_sweep_normalized_pins():
    # the exact-path pins are mpmath's correctly rounded values
    swept = rows(error_sweep([0.05, 0.2, 0.9]))
    assert swept[0].normalized == -1.0043102599660527
    assert swept[1].normalized == -1.0723229960222749
    assert swept[2].normalized == pytest.approx(-9.494997033534705, rel=1e-9)


def test_sweep_diff_is_negative_overestimate():
    for row in rows(error_sweep([0.01, 0.1, 0.3, 0.5, 0.8])):
        assert row.diff < 0.0


def test_sweep_paths_agree_at_the_cutoff():
    # the exact and float paths must tell the same story near the switch
    lam = EXACT_SWEEP_CUTOFF
    exact_row = rows(error_sweep([lam]))[0]
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


# lambdas in [0, 1): any of them, subnormals, the exact/float cutoff and
# its neighbours, and 1 - 2^-k up to the last float below 1
SWEEP_DOMAIN = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=2.0**-1022, exclude_max=True),
    st.integers(-4, 4).map(lambda k: EXACT_SWEEP_CUTOFF + k * math.ulp(EXACT_SWEEP_CUTOFF)),
    st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k),
)


@given(st.lists(SWEEP_DOMAIN, min_size=1, max_size=8))
@example([0.0, 5e-324, math.nextafter(EXACT_SWEEP_CUTOFF, 1.0), 1.0 - 2.0**-53])
@settings(max_examples=300, deadline=None)
def test_sweep_refuses_no_lambda_in_its_domain(grid):
    # error-table writes each block as soon as it is swept, which is safe
    # only because no row of a grid inside [0, 1) can be refused at the
    # default tolerance
    values = error_sweep(grid, DEFAULT_CONFIG)
    assert len(values) == 6 * len(grid)
    assert all(map(math.isfinite, values))


def test_sweep_preserves_input_order():
    assert [r.lam for r in rows(error_sweep([0.2, 0.05, 0.1]))] == [0.2, 0.05, 0.1]


def test_normalized_tends_to_minus_one():
    gaps = [abs(r.normalized + 1.0) for r in rows(error_sweep([0.2, 0.1, 0.05, 0.02, 0.01]))]
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
    assert got.lam == pytest.approx(lam_exact, abs=1e-7)


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
    tiny = invert_from_measurements(71 * unit, 20 * unit)
    plain = invert_from_measurements(71.0, 20.0)
    assert (tiny.lam, tiny.h) == (plain.lam, plain.h)
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
            invert_from_measurements(perimeter, axis_sum)
    with pytest.raises(NumericError, match=whole("axis sum must be positive, got 0.0")):
        invert_from_measurements(1.0, 0.0)


def _oracle_to_unit_sum(perimeter: float, axis_sum: float) -> tuple[float, float]:
    """Perimeter and axis sum times the power of two that puts the sum in
    [0.5, 1); a perimeter beyond the float range there becomes an infinity."""
    mantissa, exponent = math.frexp(axis_sum)
    try:
        return math.ldexp(perimeter, -exponent), mantissa
    except OverflowError:
        return math.copysign(math.inf, perimeter), mantissa


def _oracle_measured_excess(perimeter: float, axis_sum: float) -> float:
    """h = L/(pi*s) - 1 for a finite L and a finite positive s, floored at 0."""
    if not (math.isfinite(perimeter) and math.isfinite(axis_sum)):
        raise NumericError(f"perimeter and axis sum must be finite, got {perimeter} and {axis_sum}")
    if not (axis_sum > 0):
        raise NumericError(f"axis sum must be positive, got {axis_sum}")
    perimeter, axis_sum = _oracle_to_unit_sum(perimeter, axis_sum)
    return max(0.0, perimeter / (math.pi * axis_sum) - 1.0)


def _oracle_ellipse(perimeter: float, axis_sum: float) -> Ellipse:
    """The semiaxes as invert_from_measurements gave them before it
    returned lambda and h too."""
    h = _oracle_measured_excess(perimeter, axis_sum)
    if perimeter > 4.0 * axis_sum:
        raise NumericError(
            f"perimeter {perimeter} above the degenerate bound 4*sum = {4.0 * axis_sum}"
        )
    unit_perimeter, unit_sum = _oracle_to_unit_sum(perimeter, axis_sum)
    if unit_perimeter < math.pi * unit_sum:
        bound = numeric._circle_bound(*math.frexp(axis_sum))
        raise NumericError(f"perimeter {perimeter} below the circle bound pi*sum = {bound}")
    lam = min(1.0, math.sqrt(ramanujan_lambda_sq(h)))
    return Ellipse(axis_sum * (1.0 + lam) / 2.0, axis_sum * (1.0 - lam) / 2.0)


def _oracle_invert(perimeter: float, axis_sum: float) -> Inversion:
    """What `invert` printed when it inverted twice and took h a third time:
    the ellipse, lambda off the same inversion of the unit-scale pair, and
    h.  invert_from_measurements must return it float for float, or raise
    the same error with the same message."""
    ellipse = _oracle_ellipse(perimeter, axis_sum)
    unit = _oracle_ellipse(*_oracle_to_unit_sum(perimeter, axis_sum))
    return Inversion(*ellipse, lambda_of(unit), _oracle_measured_excess(perimeter, axis_sum))


def _inversion_or_error(compute, perimeter, axis_sum):
    try:
        got = compute(perimeter, axis_sum)
    except NumericError as exc:
        return type(exc), str(exc)
    return got, [math.copysign(1, v) for v in got]


@given(measurements())
@example((1.5e-323, 5e-324))
@example((1.0, 1e308))
@example((-8.98846567431158e307, 0.25))
@example((math.pi * 3, 3.0))
@example((3.141592653589793, 1.0))
@example((4.0, 1.0))
@settings(max_examples=500, deadline=None)
def test_invert_matches_the_three_call_oracle(pair):
    want = _inversion_or_error(_oracle_invert, *pair)
    assert _inversion_or_error(invert_from_measurements, *pair) == want


# both sides of the exact/float hand-over at EXACT_SWEEP_CUTOFF = 0.35,
# and out towards the degenerate end
ORACLE_LAMBDAS = (1e-3, 0.05, 0.2, 0.3499, 0.35, 0.35000001, 0.3501, 0.5, 0.9, 0.999, 0.99999)


def test_sweep_matches_mpmath_oracle():
    # Independent 50-digit oracle: h = 4a E(m)/(pi (a+b)) - 1 for the
    # ellipse a = 1 + lambda, b = 1 - lambda, with E the complete elliptic
    # integral of the second kind at parameter m = 1 - (b/a)^2.
    mpmath = pytest.importorskip("mpmath")
    swept = rows(error_sweep(ORACLE_LAMBDAS))
    with mpmath.workdps(50):
        for row in swept:
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


def _mpmath_row(lam: float) -> ErrorRow:
    """The sweep row from mpmath, each column correctly rounded.

    The oracle of test_sweep_matches_mpmath_oracle at digits set from
    lambda: h ~ lambda^2/4 cancels 2|log10 lambda| digits in the "- 1" and
    diff ~ -h^6/32 another 10|log10 lambda| against lambda^2.  Each value
    is rounded once, through its exact binary fraction; float() on an mpf
    rounds a subnormal twice.
    """
    mpmath = pytest.importorskip("mpmath")

    def rounded(value):
        sign, man, exp, _ = value._mpf_
        man = -man if sign else man
        return float(man << exp) if exp >= 0 else man / (1 << -exp)

    with mpmath.workdps(int(60 - 12 * math.log10(lam))):
        x = mpmath.mpf(lam) ** 2
        a, b = 1 + mpmath.mpf(lam), 1 - mpmath.mpf(lam)
        h = 4 * a * mpmath.ellipe(1 - (b / a) ** 2) / (mpmath.pi * (a + b)) - 1
        approx = 4 * h - 3 * h**2 / (2 + mpmath.sqrt(1 - 3 * h))
        diff = x - approx
        return ErrorRow(lam, *map(rounded, (h, x, approx, diff, 32 * diff / h**6)))


def _same_row(got: ErrorRow, want: ErrorRow) -> bool:
    """Equal float for float, with the sign of zero."""
    return got == want and [math.copysign(1, v) for v in got] == [
        math.copysign(1, v) for v in want
    ]


def test_exact_sweep_path_matches_mpmath_over_its_whole_range():
    for row in rows(error_sweep(WHOLE_RANGE_LAMBDAS)):
        assert _same_row(row, _mpmath_row(row.lam)), row


@given(st.floats(min_value=1e-30, max_value=EXACT_SWEEP_CUTOFF))
@settings(max_examples=200, deadline=None)
def test_exact_row_is_correctly_rounded(lam):
    assert _same_row(rows(error_sweep([lam]))[0], _mpmath_row(lam))


@pytest.mark.parametrize("fixture", ["error_table_exact.tsv", "error_table_float.tsv"])
def test_exact_path_fixture_rows_are_mpmath_values(fixture):
    # the exact-path bytes of the golden tables come from mpmath, not from
    # the row under test; %.17g round-trips each float
    checked = 0
    for line in (FIXTURES / fixture).read_text().splitlines()[1:]:
        row = ErrorRow(*map(float, line.split("\t")))
        if 0 < row.lam <= EXACT_SWEEP_CUTOFF:
            assert _same_row(row, _mpmath_row(row.lam)), line
            checked += 1
    assert checked == {"error_table_exact.tsv": 350, "error_table_float.tsv": 1}[fixture]


def _isqrt_near(S: int, T: int) -> int:
    """isqrt(S^2 - T) for 0 <= T <= S^2, by one division when T is small.

    The root is S - k for the least k with k (2S - k) >= T.  No k below
    k0 = ceil(T / 2S) qualifies, and if k0^2 < S then (k0 + 1)^2 <= 2S and
    k0 + 1 does.  The division is tried only when k0 can be that small.
    """
    if 2 * T.bit_length() < 3 * S.bit_length():
        k = -(-T // (2 * S))
        if k * k < S:
            return S - k - (k * (2 * S - k) < T)
    return math.isqrt(S * S - T)


@given(st.integers(min_value=1, max_value=2**300), st.data())
@settings(max_examples=300)
def test_isqrt_near_is_the_floor_root(S, data):
    # the oracle's own check: T = 2Sk - j with j < k^2 is where
    # ceil(T / 2S) = k falls one short; k up to sqrt(S) + 1 reaches the
    # edge of the one-division case
    k = data.draw(st.integers(min_value=1, max_value=math.isqrt(S) + 1))
    j = data.draw(st.integers(min_value=0, max_value=k * k))
    for T in (min(S * S, max(0, 2 * S * k - j)), data.draw(st.integers(0, S * S))):
        assert _isqrt_near(S, T) == math.isqrt(S * S - T), (S, T)


def _oracle_fixed_point_h(X: int, s: int, P: int) -> tuple[int, int]:
    """_fixed_point_h as it was before the plain step: each AGM step from
    S = A + B and T = (A - B)^2, with 4AB = S^2 - T, and its root by one
    division where _isqrt_near can, since isqrt(4n) >> 1 == isqrt(n)."""
    one = 1 << P
    A = one
    B = math.isqrt(((1 << s) - X) << (2 * P - s))
    N = one << (P + 1)
    weight = 1
    steps = 0
    while A != B:
        S, T = A + B, (A - B) ** 2
        N -= weight * T
        weight <<= 1
        A, B = S >> 1, _isqrt_near(S, T) >> 1
        steps += 1
    return N // (2 * A) - one, 2 * steps + 2


@given(st.floats(min_value=0, max_value=EXACT_SWEEP_CUTOFF, exclude_min=True, allow_subnormal=True))
@example(5e-324)
@example(EXACT_SWEEP_CUTOFF)
@settings(max_examples=150, deadline=None)
def test_fixed_point_h_matches_the_one_division_root_oracle(lam):
    # the oracle's steps that replace the root by one division floor
    # sqrt(AB) exactly, so both give the same H and E
    m, d = lam.as_integer_ratio()
    s = 2 * (d.bit_length() - 1)
    X = m * m
    g = s + 1 - X.bit_length()
    for P in (6 * g + 32, 6 * g + 96, 12 * g + 192):
        assert numeric._fixed_point_h(X, s, P) == _oracle_fixed_point_h(X, s, P)


@given(st.floats(min_value=0, max_value=EXACT_SWEEP_CUTOFF, exclude_min=True, allow_subnormal=True))
@example(5e-324)
@example(math.nextafter(2.0**-1021, 0))  # 53-bit mantissa, the largest s
@example(EXACT_SWEEP_CUTOFF)
@example(math.nextafter(EXACT_SWEEP_CUTOFF, 0))
@settings(max_examples=60, deadline=None)
def test_normalized_shift_is_positive_at_every_precision(lam):
    # normalized divides diff 2^(5P + 5 - s) by root h^6; a negative shift
    # would raise ValueError, which run() would print as an error: line.
    # 32 guard bits are the retry test's, and every retry doubles P.
    fixed_point_row = numeric._fixed_point_row
    shifts = []

    def recording(lam, X, s, P):
        shifts.append(5 * P + 5 - s)
        return fixed_point_row(lam, X, s, P)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "_fixed_point_row", recording)
        for guard_bits in (96, 32):
            patch.setattr(numeric, "_GUARD_BITS", guard_bits)
            error_sweep([lam])
    assert shifts and min(shifts) > 0, (lam, shifts)


def test_fixed_point_h_stays_within_its_bound():
    # the written bound E on the AGM's h, at the row's precision and at
    # the low ones a retry starts from, against mpmath (the errors seen are
    # about 3 units, E is 12 to 14)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(16)
    for lam in [10 ** rng.uniform(-12, math.log10(0.35)) for _ in range(30)] + [0.35, 2.0**-7]:
        m, d = lam.as_integer_ratio()
        s = 2 * (d.bit_length() - 1)
        X = m * m
        g = s + 1 - X.bit_length()
        for P in (6 * g + 32, 6 * g + 96, 12 * g + 64):
            H, E = numeric._fixed_point_h(X, s, P)
            with mpmath.workdps(P // 3 + 40):
                lam_mp = mpmath.mpf(lam)
                a, b = 1 + lam_mp, 1 - lam_mp
                h = 4 * a * mpmath.ellipe(1 - (b / a) ** 2) / (mpmath.pi * (a + b)) - 1
                assert abs(H - h * mpmath.mpf(2) ** P) <= E, (lam, P)


def test_exact_row_retries_at_twice_the_precision(monkeypatch):
    # with 32 guard bits no first pass can round normalized, so every row
    # is redone at 2P and must come out as the 96-bit pass gives it (32 bits
    # still keep 2P >= s, which the first root needs)
    lams = (5e-324, 1e-150, 1e-3, 2.0**-7, 0.2, EXACT_SWEEP_CUTOFF)
    want = rows(error_sweep(lams))
    precisions = {}
    fixed_point_row = numeric._fixed_point_row

    def recording(lam, X, s, P):
        precisions.setdefault(lam, []).append(P)
        return fixed_point_row(lam, X, s, P)

    monkeypatch.setattr(numeric, "_fixed_point_row", recording)
    monkeypatch.setattr(numeric, "_GUARD_BITS", 32)
    got = rows(error_sweep(lams))
    assert all(_same_row(g, w) for g, w in zip(got, want))
    for lam in lams:
        tried = precisions[lam]
        assert len(tried) > 1 and tried == [tried[0] << i for i in range(len(tried))], lam


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
    """The exact sweep row as it was first written, in Fraction arithmetic:
    the oracle of _oracle_series_row, its integer form."""
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


def _oracle_series_row(lam: float) -> ErrorRow:
    """The exact sweep row before the fixed-point AGM: Ivory's series summed
    in integers and truncated at (x/4)^6 / 2e8, which limits diff and
    normalized to about 1e-5 relative (h and lambda_sq_approx are within an
    ulp).  It returns _oracle_exact_row's ErrorRow float for float."""
    m, d = lam.as_integer_ratio()
    s = 2 * (d.bit_length() - 1)
    X = m * m
    X6 = X**6
    target_shift = 6 * s + 12
    H = K = 0
    xpow = 1
    for n in range(1, numeric.SERIES_MAX_TERMS + 1):
        coefficient = ivory_coefficient(n)
        xpow *= X
        t = coefficient.numerator * xpow
        k = coefficient.denominator.bit_length() - 1 + n * s
        if (2 * 10**8 * t) << target_shift <= X6 << k:
            break
        H = (H << (k - K)) + t
        K = k
    else:
        raise NumericError("exact series summation exceeded the iteration cap")
    J = K + 64
    R = math.isqrt(((1 << K) - 3 * H) << (K + 128))
    D = (2 << J) + R
    approx = H * ((D << (K + 2)) - (3 * H << J))
    diff = (X * D << 2 * K) - (approx << s)
    return ErrorRow(
        lam,
        H / (1 << K),
        X / (1 << s),
        approx / (D << 2 * K),
        diff / (D << (2 * K + s)),
        (diff << (4 * K + 5 - s)) / (D * H**6),
    )


@given(st.floats(min_value=0, max_value=EXACT_SWEEP_CUTOFF, exclude_min=True, allow_subnormal=True))
@example(EXACT_SWEEP_CUTOFF)
@example(math.nextafter(EXACT_SWEEP_CUTOFF, 0))
@example(5e-324)
@example(2.5e-310)
@example(1e-150)
@example(2.0**-2)
@example(2.0**-5)
@example(2.0**-7)
@example(2.0**-8)
@example(2.0**-12)
@settings(max_examples=150, deadline=None)
def test_exact_row_matches_the_fraction_oracle(lam):
    # the series row equals the Fraction row it replaced, and the AGM row
    # matches both to the series row's accuracy
    old = _oracle_series_row(lam)
    assert _same_row(old, _oracle_exact_row(lam))
    got = rows(error_sweep([lam]))[0]
    assert (got.lam, got.lambda_sq_true) == (old.lam, old.lambda_sq_true)
    for column in ("h", "lambda_sq_approx"):
        assert abs(getattr(got, column) - getattr(old, column)) <= 2 * math.ulp(getattr(old, column))
    for column in ("diff", "normalized"):
        assert getattr(got, column) == pytest.approx(getattr(old, column), rel=1e-5, abs=0)
    assert [math.copysign(1, v) for v in got] == [math.copysign(1, v) for v in old]


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
    got = _row_or_error(lambda: rows(error_sweep([lam], cfg))[0])
    want = _row_or_error(lambda: _oracle_float_row(lam, cfg))
    assert got == want
    if isinstance(got, ErrorRow):
        assert [math.copysign(1, v) for v in got] == [math.copysign(1, v) for v in want]
        assert (cli._ERROR_ROW_FORMAT % got).decode() == "\t".join(f"{v:.17g}" for v in got)



def _oracle_agm_perimeter(a: float, b: float, tol: float) -> float:
    """_agm_perimeter as it was, stopping on abs(x - y) > tol."""
    if b == 0:
        return 4.0 * a
    x = 1.0
    y = b / a
    csum = 0.5 * (1.0 - y * y)
    weight = 1.0
    iterations = 0
    while abs(x - y) > tol:
        iterations += 1
        if iterations > numeric.AGM_MAX_ITER:
            raise NumericError(f"AGM did not converge in {numeric.AGM_MAX_ITER} iterations")
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        csum += weight * c * c
        weight *= 2.0
    m = 0.5 * (x + y)
    return 2.0 * math.pi * a * (1.0 - csum) / m


def _oracle_sweep_float_row(lam: float, tol: float) -> ErrorRow:
    # h_of on the ellipse (1 + lam, 1 - lam), float for float, without
    # building an Ellipse: lam in (0, 1) always makes a valid one
    a = 1.0 + lam
    b = 1.0 - lam
    h = _oracle_agm_perimeter(a, b, tol) / (math.pi * (a + b)) - 1.0
    true = lam * lam
    approx = ramanujan_lambda_sq(h)
    diff = true - approx
    return ErrorRow(lam, h, true, approx, diff, 32.0 * diff / h**6)


def _oracle_error_sweep(lambda_grid, cfg=numeric.DEFAULT_CONFIG) -> list[ErrorRow]:
    """error_sweep as it was, one ErrorRow a row; the flat sweep must give
    the same floats, bit for bit, and the same refusals."""
    rows = []
    for lam in lambda_grid:
        if not (0.0 <= lam < 1.0):
            raise NumericError(f"lambda = {lam} outside [0, 1)")
        if lam == 0.0:
            rows.append(ErrorRow(0.0, 0.0, 0.0, 0.0, 0.0, -1.0))
        elif lam <= EXACT_SWEEP_CUTOFF:
            rows.append(numeric._exact_row(lam))
        else:
            rows.append(_oracle_sweep_float_row(lam, cfg.abs_tol))
    return rows


def _bits(values) -> bytes:
    # the sign of zero and every NaN payload count
    return struct.pack(f"{len(values)}d", *values)


def _cli_grid(lo: float, hi: float, steps: int) -> list[float]:
    # the lambdas cli._cmd_error_table sweeps
    return [lo + (hi - lo) * i / steps for i in range(steps + 1)]


@pytest.mark.parametrize(
    "grid",
    [
        _cli_grid(0.36, 0.99, 50000),
        _cli_grid(0.0, 0.99, 3000),
        [0.0, EXACT_SWEEP_CUTOFF, math.nextafter(EXACT_SWEEP_CUTOFF, 1.0), 5e-324, 1 - 2**-53],
    ],
    ids=["float-50000", "both-paths-3000", "edges"],
)
def test_flat_sweep_matches_the_record_oracle(grid):
    values = error_sweep(grid)
    assert len(values) == 6 * len(grid)
    assert _bits(values) == _bits(list(chain.from_iterable(_oracle_error_sweep(grid))))


@pytest.mark.parametrize(
    "grid, abs_tol",
    [([1.0], 1e-14), ([-0.1], 1e-14), ([math.nan], 1e-14), ([0.9], 1e-16), ([0.3501], 1e-16)],
)
def test_flat_sweep_refuses_as_the_record_oracle(grid, abs_tol):
    # 0.9 at 1e-16 converges within the cap; 0.3501 there is refused
    cfg = PrecisionConfig(abs_tol=abs_tol)
    got = _row_or_error(lambda: _bits(error_sweep(grid, cfg)))
    want = _row_or_error(lambda: _bits(list(chain.from_iterable(_oracle_error_sweep(grid, cfg)))))
    assert got == want
    assert isinstance(got, bytes) == (grid == [0.9])


def _agm_or_error(agm, a, b, tol):
    try:
        return _bits([agm(a, b, tol)])
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@given(st.floats(), st.floats(), st.floats())
@example(1.5, 0.5, 1e-15)
@example(1.3501, 0.6499, 1e-16)  # the cap
@example(1.0, 1.0, -1.0)  # x == y, yet every step passes a negative tol: the cap
@example(1.0, math.nan, 1e-14)
@example(math.inf, math.inf, 1e-14)
@example(1.0, 0.5, math.nan)
@example(0.0, 1.0, 1e-14)
@example(1.0, -1.0, 1e-14)
@settings(max_examples=500, deadline=None)
def test_agm_stop_rule_matches_the_abs_loop(a, b, tol):
    # x - y > tol or y - x > tol has abs(x - y) > tol's truth value for
    # every float, NaN included
    assert _agm_or_error(numeric._agm_perimeter, a, b, tol) == _agm_or_error(
        _oracle_agm_perimeter, a, b, tol
    )
