"""The full symbolic pipeline: perimeter series to closed-form error law."""

from fractions import Fraction as F

import pytest

from invarc.derivation import (
    DerivationReport,
    full_report,
    h_series,
    ivory_series,
    ramanujan_series,
    true_inverse_series,
)
from invarc.numeric import ivory_coefficient
from invarc.reference import CFRAC_PARTIALS, REFERENCE_SERIES
from invarc.series import PowerSeries

from series_helpers import polynomial, whole



def test_ivory_coefficients():
    # binom(1/2, n)^2: 1, 1/4, 1/64, 1/256, 25/16384, ...
    assert ivory_coefficient(0) == 1
    assert ivory_coefficient(1) == F(1, 4)
    assert ivory_coefficient(2) == F(1, 64)
    assert ivory_coefficient(4) == F(25, 16384)
    # squares of rationals, always positive
    for n in range(20):
        c = ivory_coefficient(n)
        assert c > 0
        assert F(c).limit_denominator(10**30) == c


def test_reference_tables_reproduced():
    report = full_report(12)
    names = ("ivory", "h-series", "true", "approx", "difference")
    for name, series in zip(names, report[:5]):
        for power, expected in REFERENCE_SERIES[name].items():
            assert series[power] == expected, (name, power)


def test_cfrac_partials_match_reference():
    report = full_report(12)
    assert report.cfrac_true.partials[: len(CFRAC_PARTIALS)] == CFRAC_PARTIALS


def test_h_series_is_shifted_ivory():
    ivory = ivory_series(9)
    h = h_series(9)
    assert h[0] == 0
    for n in range(1, 10):
        assert h[n] == ivory[n]


def test_reversion_inverts_h_series():
    h = h_series(10)
    g = true_inverse_series(10)
    ok, through = h.compose(g).agreement(PowerSeries.monomial(1, 1, 10))
    assert ok and through == 10
    ok, through = g.compose(h).agreement(PowerSeries.monomial(1, 1, 10))
    assert ok and through == 10


def test_true_inverse_leading_terms():
    g = true_inverse_series(8)
    assert g[0] == 0
    assert g[1] == 4
    assert g[2] == -1
    assert g[6] == F(-273, 128)


def test_closed_form_algebraic_identity():
    # (4h - approx) * (2 + sqrt(1 - 3h)) == 3h^2 exactly
    order = 12
    approx = ramanujan_series(order)
    four_h = PowerSeries.monomial(4, 1, order)
    root = polynomial([1, -3], order).sqrt()
    two_plus = PowerSeries.one(order) + PowerSeries.one(order) + root
    lhs = (four_h - approx) * two_plus
    rhs = PowerSeries.monomial(3, 2, order)
    assert lhs == rhs


def test_difference_starts_at_h6_over_32():
    d = full_report(12).difference
    for k in range(6):
        assert d[k] == 0
    assert d[6] == F(-1, 32)
    assert d[7] == F(-55, 256)


def test_difference_nonpositive_through_order_12():
    assert all(c <= 0 for c in full_report(12).difference.coeffs)


def test_full_report_requires_order_8():
    with pytest.raises(ValueError):
        full_report(7)


def test_full_report_depth_capped_by_order():
    report = full_report(10)
    assert report.cfrac_true.depth == 8
    assert isinstance(report, DerivationReport)


def test_series_validity_orders():
    with pytest.raises(ValueError, match=whole("coefficient index must be non-negative")):
        ivory_coefficient(-1)
    with pytest.raises(ValueError):
        ivory_series(-1)
    with pytest.raises(ValueError):
        h_series(0)
    with pytest.raises(ValueError):
        ramanujan_series(1)


def test_ivory_cache_is_thread_safe():
    # Threads that grow the shared coefficient cache at the same time must
    # leave it exactly as one thread would.  A tiny switch interval makes
    # the interpreter swap threads inside the growth loop.  Each round
    # starts from an empty cache, so the threads race for its first entry too.
    import sys
    import threading

    from invarc import numeric

    expected = [F(1)]
    binom = F(1)
    for k in range(400):
        binom *= (F(1, 2) - k) / (k + 1)
        expected.append(binom * binom)
    cache = numeric._IVORY_COEFFS
    saved = list(cache)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(30):
            cache.clear()
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(ivory_coefficient(400)))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [expected[400]] * 4
            assert cache == expected
    finally:
        sys.setswitchinterval(interval)
        cache[:] = saved


def test_true_inverse_does_not_compose(monkeypatch):
    # the per-order composition made the reversion O(n^4); guard against
    # its return without a timing test
    def refuse(self, inner):
        raise AssertionError("the reversion must not compose")

    monkeypatch.setattr(PowerSeries, "compose", refuse)
    true = true_inverse_series(12)
    assert {k: true[k] for k in REFERENCE_SERIES["true"]} == REFERENCE_SERIES["true"]


@pytest.mark.parametrize("order", [1, 2, 12, 40, 80, 160])
def test_true_inverse_matches_reversion(order):
    # PowerSeries.revert is the oracle; order 160 costs about 3 s of it
    assert true_inverse_series(order) == h_series(order).revert()


def test_true_inverse_refuses_order_0():
    with pytest.raises(ValueError, match=whole("order must be at least 1")):
        true_inverse_series(0)


def test_true_inverse_scaled_coefficients_are_integers():
    # g_k 4^(k-2) is the k-th coefficient of X(H) with X = x/16, H = h/4,
    # the inverse of a series with integer coefficients and unit linear term
    g = true_inverse_series(160)
    for k in range(2, 161):
        assert (g[k] * 4 ** (k - 2)).denominator == 1, k


@pytest.mark.parametrize("x", ["0.01", "0.05", "0.2"])
def test_true_inverse_sums_back_to_x(x):
    # hyp2f1 shares no code with Ivory's recurrence or with the reversion
    mpmath = pytest.importorskip("mpmath")
    g = true_inverse_series(160)
    with mpmath.workdps(100):
        x = mpmath.mpf(x)
        h = mpmath.hyp2f1(-0.5, -0.5, 1, x) - 1
        total = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * h**k for k, c in enumerate(g.coeffs)
        )
        assert abs(total - x) <= mpmath.mpf("1e-60") * x
