"""Truncated power series arithmetic over exact rationals."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invarc.derivation import h_series, true_inverse_series
from invarc.series import PowerSeries, SeriesError

from series_helpers import polynomial, scale, whole


def series(*coeffs):
    return PowerSeries([F(c) if not isinstance(c, F) else c for c in coeffs])


fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def series_st(min_order=0, max_order=8):
    return st.lists(
        fractions_st, min_size=min_order + 1, max_size=max_order + 1
    ).map(PowerSeries)


# construction and bookkeeping


def test_constructors():
    assert PowerSeries.zero(3).coeffs == (F(0),) * 4
    assert PowerSeries.one(2).coeffs == (F(1), F(0), F(0))
    assert PowerSeries.monomial(1, 1, 2).coeffs == (F(0), F(1), F(0))
    m = PowerSeries.monomial(F(3, 4), 2, 5)
    assert m[2] == F(3, 4) and m.order == 5 and m[5] == 0
    with pytest.raises(ValueError, match=whole("monomial power must lie within the order")):
        PowerSeries.monomial(1, 5, 3)


def test_attributes_cannot_be_set():
    s = series(1, 2)
    with pytest.raises(AttributeError, match=whole("PowerSeries is immutable")):
        s._coeffs = (F(0),)
    assert s.coeffs == (F(1), F(2))


def test_empty_rejected():
    with pytest.raises(ValueError):
        PowerSeries([])


def test_polynomial_pads_with_certified_zeros():
    # a polynomial is exact, so padding to a higher order is legitimate
    p = polynomial([1, 2], 4)
    assert p.coeffs == (F(1), F(2), F(0), F(0), F(0))
    with pytest.raises(ValueError):
        polynomial([1, 2, 3], 1)


def test_order_is_len_minus_one():
    s = series(1, 2, 3)
    assert s.order == 2
    with pytest.raises(IndexError):
        s[3]


def test_truncate_shrinks_only():
    s = series(1, 2, 3)
    assert s.truncate(1).coeffs == (F(1), F(2))
    with pytest.raises(ValueError):
        s.truncate(5)


def test_string_round_trip():
    s = series(F(1, 2), F(-3, 4), 0)
    assert repr(s) == "PowerSeries(['1/2', '-3/4', '0'])"
    assert PowerSeries(map(str, s.coeffs)) == s


def test_valuation():
    assert series(0, 0, 5).valuation() == 2
    assert series(3, 1).valuation() == 0
    assert PowerSeries.zero(4).valuation() is None


# ring operations


def test_add_sub_use_min_order():
    a = series(1, 1, 1, 1)
    b = series(2, 3)
    assert (a + b).coeffs == (F(3), F(4))
    assert (a - b).coeffs == (F(-1), F(-2))


def test_product_of_one_plus_and_one_minus():
    one_plus = series(1, 1, 0, 0)
    one_minus = series(1, -1, 0, 0)
    assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1), F(0))


def test_scalar_multiplication():
    # a series multiplies, adds and compares only with series; scaling is a
    # test helper
    s = series(1, 2)
    with pytest.raises(TypeError):
        s + 1
    with pytest.raises(TypeError):
        s - 1
    assert (s == 3) is False
    with pytest.raises(TypeError):
        s * 3
    with pytest.raises(TypeError):
        F(1, 2) * s
    assert scale(s, 3).coeffs == (F(3), F(6))
    assert scale(s, F(1, 2)).coeffs == (F(1, 2), F(1))


def test_geometric_division():
    # 1/(1 - x) = 1 + x + x^2 + ...
    num = PowerSeries.one(5)
    den = polynomial([1, -1], 5)
    assert (num / den).coeffs == (F(1),) * 6


def test_division_strips_shared_valuation():
    # x^2 / (x + x^2) = x / (1 + x) = x - x^2 + x^3 - ...
    num = PowerSeries.monomial(1, 2, 6)
    den = polynomial([0, 1, 1], 6)
    q = num / den
    assert q.order == 5
    assert q.coeffs == (F(0), F(1), F(-1), F(1), F(-1), F(1))


def test_division_errors():
    x = PowerSeries.monomial(1, 1, 4)
    with pytest.raises(SeriesError, match=whole("denominator is zero through its whole order")):
        x / PowerSeries.zero(4)
    with pytest.raises(
        SeriesError, match=whole("denominator valuation 1 exceeds numerator valuation 0")
    ):
        PowerSeries.one(4) / x  # numerator valuation too small
    with pytest.raises(
        SeriesError, match=whole("division result certifies no coefficients at these orders")
    ):
        PowerSeries.zero(1).divide(PowerSeries.monomial(1, 2, 3))


def test_sqrt_perfect_square():
    s = series(1, 2, 1, 0)  # (1 + x)^2
    assert s.sqrt().coeffs == (F(1), F(1), F(0), F(0))


def test_sqrt_one_minus_3h_matches_binomial():
    # sqrt(1 - 3h) has coefficients binom(1/2, k) (-3)^k
    s = polynomial([1, -3], 8).sqrt()
    coeff = F(1)
    half = F(1, 2)
    for k in range(1, 9):
        coeff *= (half - (k - 1)) / k
        assert s[k] == coeff * (-3) ** k


def test_sqrt_requires_unit_constant():
    with pytest.raises(SeriesError, match=whole("sqrt needs constant term 1, got 4")):
        series(4, 1).sqrt()
    with pytest.raises(SeriesError, match=whole("sqrt needs constant term 1, got -3/2")):
        series(F(-3, 2), 1, 5).sqrt()


def test_composition():
    outer = polynomial([0, 1, 1], 4)  # y + y^2
    inner = polynomial([0, 2], 4)  # 2x
    assert outer.compose(inner).coeffs == (F(0), F(2), F(4), F(0), F(0))
    with pytest.raises(SeriesError, match=whole("inner series must vanish at 0")):
        outer.compose(PowerSeries.one(4))


def test_revert_scaled_identity():
    s = PowerSeries.monomial(F(1, 4), 1, 5)
    assert s.revert().coeffs == (F(0), F(4), F(0), F(0), F(0), F(0))


def test_revert_errors():
    with pytest.raises(
        SeriesError, match=whole("can only revert a series with zero constant term")
    ):
        series(1, 1).revert()
    with pytest.raises(SeriesError, match=whole("reversion needs a nonzero linear coefficient")):
        series(0, 0, 1).revert()


def test_agreement_certifies_shared_prefix_only():
    a = series(1, 2, 3)
    b = series(1, 2)
    # nothing beyond the shared order 1 is claimed either way
    assert a.agreement(b) == (True, 1)
    c = series(1, 5)
    assert a.agreement(c) == (False, 1)


# properties


@given(series_st(), series_st())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(series_st(), series_st(), series_st())
def test_multiplication_distributes(a, b, c):
    n = min(a.order, b.order, c.order)
    lhs = (a * (b + c)).truncate(n)
    rhs = (a * b + a * c).truncate(n)
    assert lhs == rhs


@given(series_st(min_order=1))
def test_division_round_trip(s):
    if s[0] == 0:
        s = s + PowerSeries.one(s.order)
    q = PowerSeries.one(s.order) / s
    ok, through = (q * s).agreement(PowerSeries.one(s.order))
    assert ok and through == s.order


@given(
    st.lists(fractions_st, min_size=3, max_size=8),
    st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50),
)
def test_reversion_round_trip(rest, linear):
    s = PowerSeries([F(0), linear] + rest)
    g = s.revert()
    composed = s.compose(g)
    ok, through = composed.agreement(PowerSeries.monomial(1, 1, s.order))
    assert ok and through == s.order


@given(series_st(min_order=2))
@settings(max_examples=60)
def test_sqrt_squares_back(s):
    normalized = s - PowerSeries.monomial(s[0] - 1, 0, s.order)
    r = normalized.sqrt()
    ok, through = (r * r).agreement(normalized)
    assert ok and through == s.order


# the kernels against the algorithms they replaced, kept here as oracles


def _revert_by_compose(s):
    # the former reversion: one composition per order, O(n^4)
    if s.coeffs[0] != 0:
        raise SeriesError("can only revert a series with zero constant term")
    if s.order < 1 or s.coeffs[1] == 0:
        raise SeriesError("reversion needs a nonzero linear coefficient")
    s1 = s.coeffs[1]
    g = [F(0), 1 / s1]
    for m in range(2, s.order + 1):
        value = s.truncate(m).compose(PowerSeries(g + [F(0)]))
        g.append(-value[m] / s1)
    return PowerSeries(g)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


# zeros and non-dyadic denominators (1/3, 1/7, ...) both common
sparse_fractions_st = st.one_of(
    st.just(F(0)), st.fractions(min_value=-20, max_value=20, max_denominator=12)
)
nonzero_fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
    lambda f: f != 0
)


@given(
    st.one_of(st.just(F(0)), sparse_fractions_st),
    st.one_of(nonzero_fractions_st, sparse_fractions_st),
    st.lists(sparse_fractions_st, max_size=9),
)
@settings(max_examples=200)
def test_revert_matches_compose_oracle(constant, linear, rest):
    s = PowerSeries([constant, linear] + rest)
    assert _outcome(PowerSeries.revert, s) == _outcome(_revert_by_compose, s)


def test_true_inverse_24_matches_compose_reversion():
    assert true_inverse_series(24) == _revert_by_compose(h_series(24))


@given(
    st.lists(sparse_fractions_st, min_size=1, max_size=10),
    st.lists(sparse_fractions_st, min_size=1, max_size=10),
)
@settings(max_examples=200)
def test_mul_matches_naive_convolution(a, b):
    n = min(len(a), len(b)) - 1
    expected = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]
    product = PowerSeries(a) * PowerSeries(b)
    assert product.coeffs == tuple(expected)
    assert product.order == n


def _padded_st(max_zeros, max_size):
    # a run of leading zeros (valuation > 0), then sparse rationals that may
    # be zero throughout, negative or far from 1 in the lead
    return st.tuples(
        st.integers(min_value=0, max_value=max_zeros),
        st.lists(sparse_fractions_st, min_size=1, max_size=max_size),
    ).map(lambda t: PowerSeries([F(0)] * t[0] + t[1]))


@given(_padded_st(3, 9), _padded_st(3, 9))
@example(PowerSeries([1, 2]), PowerSeries.zero(3))  # zero denominator
@example(PowerSeries.one(4), PowerSeries([0, 1]))  # valuation not compensated
@example(PowerSeries.zero(1), PowerSeries([0, 0, 1, 0]))  # certifies nothing
@example(PowerSeries([F(1, 3), F(-2, 7), 5]), PowerSeries([F(-6, 5), F(3, 4), F(1, 9)]))
@settings(max_examples=300)
def test_divide_multiplies_back_or_names_its_refusal(num, den):
    # each refusal test_division_errors pins, read off the valuations; else
    # the quotient is the one series whose product with den, the common x^v
    # cancelled, agrees with num through the certified order
    v, nv = den.valuation(), num.valuation()
    outcome = _outcome(PowerSeries.divide, num, den)
    if v is None:
        assert outcome == (SeriesError, "denominator is zero through its whole order")
    elif nv is not None and nv < v:
        assert outcome == (
            SeriesError, f"denominator valuation {v} exceeds numerator valuation {nv}"
        )
    elif min(num.order, den.order) < v:
        assert outcome == (
            SeriesError, "division result certifies no coefficients at these orders"
        )
    else:
        n = min(num.order, den.order) - v
        assert outcome.order == n
        product = outcome * PowerSeries(den.coeffs[v:])
        assert product.agreement(PowerSeries(num.coeffs[v:])) == (True, n)


def test_true_inverse_80_composes_to_x():
    h = h_series(80)
    g = true_inverse_series(80)
    x = PowerSeries.monomial(1, 1, 80)
    assert h.compose(g) == x
    assert g.compose(h) == x
