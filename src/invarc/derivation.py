"""The derivation pipeline, end to end in exact arithmetic.

Starting from the perimeter series L = pi*(a+b) * sum binom(1/2,n)^2 lambda^(2n)
(Ivory's series, written in x = lambda^2), the pipeline forms the excess
series h(x) = ivory - 1, builds its compositional inverse x(h) (the true
inverse) from the hypergeometric ODE Ivory's series satisfies, expands
the closed form 4h - 3h^2/(2 + sqrt(1 - 3h)) as a series, differences the
two (the error law -h^6/32 - ...), and extracts the continued fraction of
the true inverse.  :func:`full_report` bundles all of it.

This is the symbolic layer, above series and cfrac.  It also reads
Ivory's coefficients from the float layer's memo
(:func:`invarc.numeric.ivory_coefficient`); numeric imports nothing from
here, so the commands that need only floats never load this module.
"""

from fractions import Fraction
from operator import mul

from .cfrac import cfrac_expand, ramanujan_series
from .numeric import _Record, ivory_coefficient
from .series import PowerSeries


def ivory_series(order: int) -> PowerSeries:
    """Perimeter series body in x = lambda^2: sum binom(1/2,n)^2 x^n."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return PowerSeries(ivory_coefficient(n) for n in range(order + 1))


def h_series(order: int) -> PowerSeries:
    """Perimeter excess h as a series in x = lambda^2 (the ivory series minus 1)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return ivory_series(order) - PowerSeries.one(order)


def true_inverse_series(order: int) -> PowerSeries:
    """lambda^2 as a series in h: the compositional inverse of the h-series.

    Ivory's series y(x) = 1 + h is 2F1(-1/2, -1/2; 1; x), so
    x(1 - x) y'' + y' - y/4 = 0 (Abramowitz & Stegun 15.1.1, 15.5.1).
    With y' = 1/g' and y'' = -g''/g'^3 for the inverse g(h) = x this is
    4 g (1 - g) g'' - 4 g'^2 + (1 + h) g'^3 = 0.

    The recurrence runs on integers.  Set X = x/16 and H = h/4; since
    binom(1/2, n)^2 16^n = 4 Cat(n-1)^2, H(X) = sum_(n>=1) Cat(n-1)^2 X^n
    has integer coefficients and a unit linear term, so its inverse X(H)
    has integer coefficients X_k too, and g_k = 16 X_k / 4^k.  In these
    variables the equation reads X (1 - 16 X) X'' - X'^2 + (1 + 4H) X'^3 = 0,
    and its H^m coefficient is (m + 1)^2 X_(m+1) plus terms in X_1 .. X_m
    alone.  Solving it for the integer X_(m+1) is thus an exact integer
    division.  With running convolutions for X - 16 X^2, X'^2 and X'^3
    each step costs O(m) integer products, O(n^2) in all, and only the
    output builds Fractions, one per coefficient.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    x = [0, 1]  # X_k
    d1 = [1]  # X': d1[j] = (j + 1) X_(j+1)
    d2 = []  # X'': d2[j] = (j + 2) (j + 1) X_(j+2)
    s = [0]  # X - 16 X^2
    p = [1]  # X'^2
    q = [1]  # X'^3
    for m in range(1, order):
        # rest is the H^m coefficient less its terms in the unknown X_(m+1):
        # s[1] d2[m-1] = m (m + 1) X_(m+1) in the first sum, 2 d1[m] in X'^2
        # and 3 d1[m] in X'^3 (as X'_0 = 1), (m + 1)^2 X_(m+1) in all
        s.append(x[m] - 16 * sum(map(mul, x[1:m], x[m - 1 : 0 : -1])))
        p_m = sum(map(mul, d1[1:m], d1[m - 1 : 0 : -1]))
        q_m = p_m + sum(map(mul, d1[1:m], p[m - 1 : 0 : -1]))
        rest = sum(map(mul, s[2:], reversed(d2))) - p_m + q_m + 4 * q[m - 1]
        x.append(-rest // (m + 1) ** 2)
        d1.append((m + 1) * x[m + 1])
        d2.append(m * d1[m])
        p.append(p_m + 2 * d1[m])
        q.append(q_m + 3 * d1[m])
    return PowerSeries([0] + [Fraction(16 * c, 4**k) for k, c in enumerate(x[1:], 1)])


class DerivationReport(_Record):
    """Every series of the pipeline at one working order, plus the fraction:
    five PowerSeries and the CFraction of the true inverse."""

    __slots__ = ()
    _fields = ("ivory", "h_series", "true_series", "approx_series", "difference", "cfrac_true")


def full_report(order: int) -> DerivationReport:
    """Run the whole pipeline at one working order.

    The continued fraction is taken to depth order - 2, the most the true
    inverse certifies; orders below 8 cannot certify the h^6..h^8 error
    coefficients and are refused.
    """
    if order < 8:
        raise ValueError("order must be at least 8 to certify the error law")
    true = true_inverse_series(order)
    approx = ramanujan_series(order)
    return DerivationReport(
        ivory_series(order),
        h_series(order),
        true,
        approx,
        true - approx,
        cfrac_expand(true, order - 2),
    )
