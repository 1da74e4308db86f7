"""Continued fractions in the subtracted normal form.

A :class:`CFraction` represents

    leading*h - head*h^2 / (1 - a1*h / (1 - a2*h / (1 - ...)))

as the ordered list of partial numerator coefficients a_k.  The module
expands a power series into that form, re-expands truncations back into
series (the round-trip oracle), freezes a periodic tail, solves the
periodic tail in closed form, and collapses a frozen fraction whose
partials are those of 4h - 3h^2/(2 + sqrt(1 - 3h)) into that expression.

Everything is exact rational arithmetic; no floats enter this module.
"""

import math
from fractions import Fraction

from .numeric import _Record
from .series import PowerSeries, _scaled


class CFracError(ArithmeticError):
    """Any continued-fraction refusal; the message names which."""


class NotInRamanujanShape(CFracError):
    """Collapse requested for a fraction outside the supported shape."""


class CFraction(_Record):
    """Normal-form continued fraction data.

    leading and head are Fractions and partials is a tuple of Fractions.
    periodic_from, None unless set, is the 1-based index from which every
    partial coefficient holds the same frozen value (the tail is
    conceptually infinite).  An expansion that holds fewer partials than
    the depth it was asked for ended early because some remainder 1 - D_k
    was identically zero: the source was a rational function and the
    stored partials are complete.
    """

    __slots__ = ()
    _fields = ("leading", "head", "partials", "periodic_from")

    def __new__(cls, leading: Fraction, head: Fraction, partials: tuple[Fraction, ...],
                periodic_from: int | None = None):
        return super().__new__(cls, leading, head, partials, periodic_from)

    @property
    def depth(self) -> int:
        return len(self.partials)


def tail_closed_form(c: Fraction) -> str:
    """Closed form of a periodic tail B = 1 - c*h/B with B(0) = 1.

    Solving the quadratic B^2 - B + c*h = 0 and picking the branch that is
    1 at h = 0 gives B(h) = (1 + sqrt(1 - 4*c*h))/2.
    """
    slope = 4 * c
    if slope == 0:
        radicand = "1"
    else:
        size = abs(slope)
        if size == 1:
            term = "h"
        elif size.denominator == 1:
            term = f"{size}h"
        else:  # (3/2)h, not 3/2h, which reads as 3/(2h)
            term = f"({size})h"
        radicand = f"1 - {term}" if slope > 0 else f"1 + {term}"
    return f"(1 + sqrt({radicand}))/2"


CLOSED_FORM = "4h - 3h^2/(2 + sqrt(1 - 3h))"


def ramanujan_series(order: int) -> PowerSeries:
    """Series expansion of the closed form 4h - 3h^2/(2 + sqrt(1 - 3h)).

    With s = sqrt(1 - 3h), (2 + s)(2 - s) = 3(1 + h), so the closed form
    is 4h - h^2 (2 - s)/(1 + h).  The binomial series gives s_0 = 1 and
    s_k = s_(k-1) * 3(2k - 3)/(2k); dividing t = 2 - s by 1 + h is
    q_k = t_k - q_(k-1); and q_k is minus the coefficient of h^(k+2).
    Both run on the integers S = 4^k s_k (twice a Catalan number times a
    power of 3, so S*6(2k - 3)/k is exact) and Q = 4^k q_k, with one
    Fraction per coefficient.  Linear in the order, with no series
    division or square root.
    """
    if order < 2:
        raise ValueError("need order >= 2 to expand the closed form")
    s = q = 1  # S_0 and Q_0
    coeffs = [Fraction(0), Fraction(4), Fraction(-1)]
    for k in range(1, order - 1):
        s = s * 6 * (2 * k - 3) // k
        q = -s - 4 * q
        coeffs.append(Fraction(-q, 4**k))
    return PowerSeries(coeffs)


def cfrac_expand(s: PowerSeries, depth: int) -> CFraction:
    """Extract the normal-form partial numerator coefficients of a series.

    The source must vanish at 0 with nonzero h and h^2 coefficients.  The
    head is read off first (leading = c1, head = -c2), then D_1 =
    head*h^2/(c1*h - s) is normalized to D_1(0) = 1 and each step extracts
    a_k as the linear coefficient of 1 - D_k and continues with D_{k+1} =
    a_k*h/(1 - D_k).  A depth-d truncation certifies the source through
    order d + 2, which is why the source order must be at least depth + 2.

    D_k is kept as p*T/(q*B): two integer scalars p, q over two integer
    coefficient lists T, B (Viskovatov's division-free recurrence).  With
    rem = q*B - p*T, so that 1 - D_k = rem/(q*B), a step is
    a_k = rem[1]/(q*B[0]) and D_{k+1} = a_k*q*B/(rem/h), one coefficient
    shorter: the next T is B, the next B is rem/h divided by its content
    r, and the next scalars a_k*q and r are reduced by their one gcd.  So
    the common factors sit in the scalars, not in every list entry, and
    no step takes the gcd of all 2n entries.  The partials do not depend
    on the scaling, since a_k, the linear coefficient of 1 - D_k, depends
    only on the quotient.  When some 1 - D_k is identically zero the
    source was a rational function and the expansion stops there, with
    fewer than depth partials.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if s.order < depth + 2:
        raise CFracError(
            f"series order {s.order} cannot support depth {depth}; need {depth + 2}"
        )
    if s[0] != 0:
        raise CFracError("series must vanish at 0")
    c1 = s[1]
    c2 = s[2]
    if c1 == 0 or c2 == 0:
        raise CFracError("normal form needs nonzero h and h^2 coefficients")
    head = -c2
    # D_1 = head*h^2/(c1*h - s) = c2/(c2 + c3*h + ...), over one integer scale
    B, _ = _scaled(s.coeffs[2:])
    T = [1] + [0] * (len(B) - 1)
    p, q = B[0], 1
    partials: list[Fraction] = []
    for k in range(1, depth + 1):
        rem = [q * b - p * t for t, b in zip(T, B)]
        if not any(rem):
            break
        a = Fraction(rem[1], q * B[0])
        if a == 0:
            raise CFracError(
                f"partial numerator {k} vanished but the remainder did not terminate"
            )
        partials.append(a)
        if k < depth:
            r = math.gcd(*rem[1:])
            T, B = B[:-1], [x // r for x in rem[1:]]
            p, q = a.numerator * q, a.denominator * r
            g = math.gcd(p, q)
            p, q = p // g, q // g
    return CFraction(c1, head, tuple(partials))


def _materialized_partials(cf: CFraction, need: int) -> list[Fraction]:
    work = list(cf.partials)
    if len(work) < need:
        if cf.periodic_from is None or not 1 <= cf.periodic_from <= len(work):
            raise CFracError(
                f"depth {cf.depth} certifies only order {cf.depth + 2}"
            )
        fill = cf.partials[cf.periodic_from - 1]
        work.extend(fill for _ in range(need - len(work)))
    return work


def cfrac_to_series(cf: CFraction, order: int) -> PowerSeries:
    """Expand a truncated fraction bottom-up into a power series.

    For a plain fraction the certified range is order <= depth + 2.  A
    frozen fraction has a conceptually infinite periodic tail, so extra
    partials are materialized on demand and any order is certified.

    The tail is kept as one quotient num/den: a partial a turns it into
    1 - a*h*den/num = (num - a*h*den)/num, so one division ends the loop.
    The head term starts at h^2, so order 1 is leading*h: the series is
    formed at order 2 at least and truncated.
    """
    if order < 1:
        raise ValueError("order must be positive")
    n = max(order, 2)
    work = _materialized_partials(cf, n - 2)
    num = den = PowerSeries.one(n)
    for a in reversed(work):
        num, den = num - PowerSeries.monomial(a, 1, n) * den, num
    head_term = (PowerSeries.monomial(cf.head, 2, n) * den).divide(num)
    return (PowerSeries.monomial(cf.leading, 1, n) - head_term).truncate(order)


def freeze_tail(cf: CFraction, from_index: int, value) -> CFraction:
    """Replace every partial from the 1-based from_index on with one value."""
    value = Fraction(value)
    if from_index < 1 or from_index > cf.depth:
        raise CFracError(f"freeze index {from_index} outside 1..{cf.depth}")
    kept = cf.partials[: from_index - 1]
    frozen = (value,) * (cf.depth - from_index + 1)
    return CFraction(cf.leading, cf.head, kept + frozen, from_index)


def collapse_to_closed_form(cf: CFraction) -> str:
    """Collapse a frozen fraction into 4h - 3h^2/(2 + sqrt(1 - 3h)).

    C-fractions are equal exactly when their heads and partials are, so the
    fraction is compared with the closed form's own, whose partials are 1/2
    and then 3/4 for ever.  A frozen fraction repeats its tail value from
    periodic_from <= depth on, so max(depth, 10) partials decide.  As
    a2 = a3 = 3/4, a freeze at 3/4 from index 2, 3 or 4 collapses.
    """
    if cf.periodic_from is None:
        raise NotInRamanujanShape("tail must be frozen")
    n = max(cf.depth, 10)
    closed = cfrac_expand(ramanujan_series(n + 2), n)
    if (cf.leading, cf.head) != (closed.leading, closed.head):
        raise NotInRamanujanShape(
            f"head is ({cf.leading}, {cf.head}), need ({closed.leading}, {closed.head})"
        )
    for k, (a, b) in enumerate(zip(_materialized_partials(cf, n), closed.partials), start=1):
        if a != b:
            raise NotInRamanujanShape(f"partial numerator {k} is {a}, need {b}")
    return CLOSED_FORM
