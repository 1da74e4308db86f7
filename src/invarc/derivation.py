"""The derivation pipeline, end to end in exact arithmetic.

Starting from the perimeter series L = pi*(a+b) * sum binom(1/2,n)^2 lambda^(2n)
(Ivory's series, written in x = lambda^2), the pipeline forms the excess
series h(x) = ivory - 1, reverts it to get the true inverse x(h), expands
the closed form 4h - 3h^2/(2 + sqrt(1 - 3h)) as a series, differences the
two (the error law -h^6/32 - ...), and extracts the continued fraction of
the true inverse.  :func:`full_report` bundles all of it.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import NamedTuple

from .cfrac import CFraction, cfrac_expand, ramanujan_series
from .series import PowerSeries

# Grown only under the lock and only by appending in index order, so every
# entry below the current length is final and can be read without it.
_IVORY_COEFFS: list[Fraction] = [Fraction(1), Fraction(1, 4)]
_IVORY_LOCK = threading.Lock()


def ivory_coefficient(n: int) -> Fraction:
    """binom(1/2, n)^2, the coefficient of lambda^(2n) in the perimeter series."""
    if n < 0:
        raise ValueError("coefficient index must be non-negative")
    if n < len(_IVORY_COEFFS):
        return _IVORY_COEFFS[n]
    with _IVORY_LOCK:
        while len(_IVORY_COEFFS) <= n:
            k = len(_IVORY_COEFFS)
            _IVORY_COEFFS.append(_IVORY_COEFFS[k - 1] * Fraction((2 * k - 3) ** 2, (2 * k) ** 2))
    return _IVORY_COEFFS[n]


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
    """lambda^2 as a series in h: the compositional inverse of the h-series."""
    return h_series(order).revert()


class DerivationReport(NamedTuple):
    """Every series of the pipeline at one working order, plus the fraction."""

    ivory: PowerSeries
    h_series: PowerSeries
    true_series: PowerSeries
    approx_series: PowerSeries
    difference: PowerSeries
    cfrac_true: CFraction


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
        ivory=ivory_series(order),
        h_series=h_series(order),
        true_series=true,
        approx_series=approx,
        difference=true - approx,
        cfrac_true=cfrac_expand(true, order - 2),
    )
