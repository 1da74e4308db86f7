"""Series builders, a message matcher, the invert measurement strategy and
the reading of sweep values as rows (`ErrorRow`, `rows`) that the tests
share, the closed-form expansion the package replaced, and the
re-expansion of a C-fraction into its series.

`polynomial`, `scale`, `tail_series` and `agreement` were once methods of
`PowerSeries` and of the former `TailClosedForm` record; no code under src/
needs them any more.
`ramanujan_by_sqrt` is the closed form by `sqrt` and `divide`, the oracle
that the linear recurrence `cfrac.ramanujan_series` must match.
`cfrac_to_series`, by one series division per partial, is the only
re-expansion: the criteria and the cfrac tests check `cfrac_expand`
against it.
"""

import math
import re
from fractions import Fraction
from typing import NamedTuple

from hypothesis import strategies as st

from invarc.cfrac import CFracError
from invarc.numeric import ERROR_TABLE_COLUMNS
from invarc.series import PowerSeries

# every finite float, subnormals included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def whole(message):
    """A pytest.raises match pattern for exactly this message."""
    return f"^{re.escape(message)}$"


class ErrorRow(NamedTuple):
    """One sweep row read by column name, in ERROR_TABLE_COLUMNS order; the
    package builds no such record.  The first field is `lam` only because
    `lambda` is a Python keyword."""

    lam: float
    h: float
    lambda_sq_true: float
    lambda_sq_approx: float
    diff: float
    normalized: float


def rows(values):
    """error_sweep's flat values regrouped into ErrorRows, six floats a row."""
    width = len(ERROR_TABLE_COLUMNS)
    if len(values) % width:
        raise ValueError(f"{len(values)} values do not make rows of {width}")
    return [ErrorRow(*values[i : i + width]) for i in range(0, len(values), width)]


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


def agreement(a, b):
    """Compare two series through the shared prefix.

    Returns (equal, certified_order): whether all coefficients agree up
    to the smaller of the two orders, and that order.  Nothing beyond
    the certified order is claimed either way.
    """
    certified = min(a.order, b.order)
    equal = a.coeffs[: certified + 1] == b.coeffs[: certified + 1]
    return equal, certified


# -- the re-expansion of a C-fraction ----------------------------------------


def rational_source(leading, head, partials, order):
    # leading*h - head*h^2/(1 - a1*h/(1 - ...)), a rational function whose
    # expansion terminates after the given partials
    tail = PowerSeries.one(order)
    for a in reversed(partials):
        tail = PowerSeries.one(order) - PowerSeries.monomial(a, 1, order).divide(tail)
    return PowerSeries.monomial(leading, 1, order) - PowerSeries.monomial(head, 2, order) / tail


def cfrac_to_series(cf, order):
    # the former cfrac_to_series: one series division per partial, with the
    # frozen tail repeated up to the order - 2 partials the order needs
    if order < 1:
        raise ValueError("order must be positive")
    n = max(order, 2)  # the head term starts at h^2
    partials = list(cf.partials)
    need = n - 2
    if len(partials) < need:
        if cf.periodic_from is None or not 1 <= cf.periodic_from <= cf.depth:
            raise CFracError(f"depth {cf.depth} certifies only order {cf.depth + 2}")
        partials += [cf.partials[cf.periodic_from - 1]] * (need - len(partials))
    return rational_source(cf.leading, cf.head, partials, n).truncate(order)


# -- the replaced closed-form expansion --------------------------------------


def ramanujan_by_sqrt(order):
    # the former cfrac.ramanujan_series: one sqrt and one series division
    if order < 2:
        raise ValueError("need order >= 2 to expand the closed form")
    root = polynomial([1, -3], order).sqrt()
    den = PowerSeries.monomial(2, 0, order) + root
    num = PowerSeries.monomial(3, 2, order)
    return PowerSeries.monomial(4, 1, order) - num.divide(den)


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
