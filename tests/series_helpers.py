"""Series builders, a message matcher and the invert measurement strategy
the tests share, and the kernels the package replaced.

The builders (`polynomial`, `scale`, `tail_series`) were once methods of
`PowerSeries` and of the former `TailClosedForm` record; no code under src/
needs them any more.
The oracles are the Fraction algorithms that the integer kernels replaced;
the kernels must match them, exceptions and messages included.
"""

import math
import re
from fractions import Fraction

from hypothesis import strategies as st

from invarc.series import PowerSeries, SeriesError

# every finite float, subnormals included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def whole(message):
    """A pytest.raises match pattern for exactly this message."""
    return f"^{re.escape(message)}$"


def polynomial(coeffs, order):
    """An exact polynomial, zero-padded up to `order`.

    Padding with true zeros is legitimate here because a polynomial's
    higher coefficients really are zero; plain arithmetic never pads.
    """
    if len(coeffs) > order + 1:
        raise ValueError("polynomial longer than the requested order")
    return PowerSeries(list(coeffs) + [0] * (order + 1 - len(coeffs)))


def scale(s, factor):
    """Every coefficient of s times one rational factor."""
    f = Fraction(factor)
    return PowerSeries(f * c for c in s.coeffs)


def tail_series(c, order):
    """Expansion of the periodic tail B = (1 + sqrt(1 - 4ch))/2."""
    radicand = polynomial([1, -4 * c], order)
    return scale(PowerSeries.one(order) + radicand.sqrt(), Fraction(1, 2))


# -- the replaced kernels ----------------------------------------------------


def divide_by_fractions(num, den):
    # the former PowerSeries.divide: long division, one Fraction per term
    v = den.valuation()
    if v is None:
        raise SeriesError("denominator is zero through its whole order")
    num_c = num.coeffs
    den_c = den.coeffs
    if v > 0:
        nv = num.valuation()
        if nv is not None and nv < v:
            raise SeriesError(f"denominator valuation {v} exceeds numerator valuation {nv}")
        num_c = num_c[v:]
        den_c = den_c[v:]
    n = min(num.order, den.order) - v
    if n < 0:
        raise SeriesError("division result certifies no coefficients at these orders")
    lead = den_c[0]
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = num_c[k]
        for i in range(k):
            if out[i] != 0:
                acc -= out[i] * den_c[k - i]
        out[k] = acc / lead
    return PowerSeries(out)


def revert_by_fractions(s):
    # the former PowerSeries.revert: Lagrange inversion on Fraction series
    if s.coeffs[0] != 0:
        raise SeriesError("can only revert a series with zero constant term")
    if s.order < 1 or s.coeffs[1] == 0:
        raise SeriesError("reversion needs a nonzero linear coefficient")
    n = s.order
    w = divide_by_fractions(PowerSeries.one(n - 1), PowerSeries(s.coeffs[1:]))
    power = PowerSeries.one(n - 1)
    g = [Fraction(0)]
    for k in range(1, n + 1):
        power = power * w
        g.append(power[k - 1] / k)
    return PowerSeries(g)


def ramanujan_by_sqrt(order):
    # the former cfrac.ramanujan_series: one sqrt and one series division
    if order < 2:
        raise ValueError("need order >= 2 to expand the closed form")
    root = polynomial([1, -3], order).sqrt()
    den = PowerSeries.monomial(2, 0, order) + root
    num = PowerSeries.monomial(3, 2, order)
    return PowerSeries.monomial(4, 1, order) - divide_by_fractions(num, den)


@st.composite
def measurements(draw):
    """(perimeter, sum) from the whole finite range, or a sum with a binary
    exponent from the whole range, subnormal ones weighted up, and a
    perimeter near the feasible [pi, 4] multiple of it."""
    if draw(st.booleans()):
        return draw(FINITE), draw(FINITE)
    exponent = draw(st.one_of(st.integers(-1074, -1020), st.integers(-1074, 1024)))
    axis_sum = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), exponent)
    perimeter = axis_sum * draw(st.floats(min_value=3.0, max_value=4.2))
    return (perimeter if math.isfinite(perimeter) else axis_sum), axis_sum
