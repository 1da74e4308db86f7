"""Floating-point engines and the error sweep.

Two independent perimeter engines (AGM iteration and direct summation of
the perimeter series), the excess h for concrete ellipses, the closed-form
evaluator, perimeter-based inversion, and the error sweep that measures
how the closed form tracks the true inverse, as flat floats, six a row.

The sweep needs care: near lambda = 0 the error true - approx shrinks like
h^6/32, which at lambda = 0.05 is about 2e-21 while one ulp of lambda^2 is
already 2e-19.  Float64 cannot see the signal there, so rows with lambda
at or below :data:`EXACT_SWEEP_CUTOFF` run one AGM in fixed point on plain
integers, at P = 6g + 96 bits for lambda^2 near 2^-g, and every printed
column is correctly rounded: a written bound E on the fixed-point error
brackets each column, and a row whose bracket straddles a rounding
boundary is redone at 2P.  Larger lambda uses the plain float AGM, whose
error there is five orders below the signal but not below the printed
digits: diff and normalized keep about 4.5 correct digits.

This is the float layer: it imports no other invarc module, so error-table
and invert load none of the symbolic ones.  Every command imports it, so
it imports only sys, math, _thread and operator at the top: every record
of the package, here and in cfrac and derivation, derives from its
_Record, not from collections.namedtuple, whose factory compiles source
for each class, nor typing.NamedTuple; and it has no __future__ import,
so an annotation that names Fraction is a string.  It holds the one memo
of Ivory's coefficients, which derivation reads too; fractions is
imported only when that memo grows, and decimal only for an
out-of-range bound in an invert refusal.
"""

import _thread
import math
import sys
from operator import itemgetter


class NumericError(ArithmeticError):
    """Any numeric-engine refusal; the message names which."""


class _Record(tuple):
    """A tuple whose items are read by the names in its class's _fields.

    It keeps what the package used of collections.namedtuple: positional
    construction, read-only fields, _asdict, _replace, the
    Name(field=value) repr, and tuple equality and hashing.  _replace,
    copy and pickle rebuild through the class constructor, so a record
    that checks its fields in __new__ checks them there too.  A record
    that takes keywords or a default says so in its own __new__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index), doc=f"Alias for field number {index}"))

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}")
        return tuple.__new__(cls, values)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({body})"

    def __getnewargs__(self):
        return tuple(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, **changes):
        values = [changes.pop(name, value) for name, value in zip(self._fields, self)]
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return type(self)(*values)


class Ellipse(_Record):
    """Finite semiaxes a >= b >= 0 with a > 0; b = 0 is the degenerate segment."""

    __slots__ = ()
    _fields = ("a", "b")

    def __new__(cls, a: float, b: float):
        if not (0 < a < math.inf):
            raise NumericError(f"semimajor axis must be positive and finite, got {a}")
        if not (a >= b >= 0):
            raise NumericError(f"need a >= b >= 0, got a={a}, b={b}")
        return super().__new__(cls, a, b)


# Largest accepted abs_tol.  A looser AGM stop makes the float sweep path
# silently wrong: at 1e-7 the sweep already misses the 50-digit oracle's
# 1e-4 relative bound on diff and normalized (at lambda 0.3501 and 0.9), and
# at 1 the AGM runs no iteration at all; 1e-8 still meets every bound.
ABS_TOL_CEILING = 1e-8


# Iteration caps: the AGM converges quadratically, the series only linearly.
AGM_MAX_ITER = 64
SERIES_MAX_TERMS = 10000


class PrecisionConfig(_Record):
    """Stopping control for the iterative engines; abs_tol lies in
    (0, ABS_TOL_CEILING]."""

    __slots__ = ()
    _fields = ("abs_tol",)

    def __new__(cls, abs_tol: float = 1e-14):
        if not (0 < abs_tol < math.inf):
            raise NumericError(f"abs_tol must be positive and finite, got {abs_tol}")
        if abs_tol > ABS_TOL_CEILING:
            raise NumericError(f"abs_tol must be at most {ABS_TOL_CEILING:g}, got {abs_tol}")
        return super().__new__(cls, abs_tol)


DEFAULT_CONFIG = PrecisionConfig()

# Largest lambda handled by the exact sweep path.  At 0.35 the float path's
# noise (~1e-16) is already five orders below the signal |diff| ~ 3e-11.
EXACT_SWEEP_CUTOFF = 0.35

# Bits the exact row works at beyond the 6g that diff ~ h^6/32 cancels; at
# least 31, so that 2P >= s for the first root (s <= g + 105, g >= 4).
_GUARD_BITS = 96

ERROR_TABLE_COLUMNS = ("lambda", "h", "lambda_sq_true", "lambda_sq_approx", "diff", "normalized")


# Empty until first read, so that importing numeric does not load
# fractions.  Grown only under the lock and only by appending in index
# order, so every entry below the current length is final and can be read
# without it.
_IVORY_COEFFS: "list[Fraction]" = []
_IVORY_LOCK = _thread.allocate_lock()  # what threading.Lock() returns


def ivory_coefficient(n: int) -> "Fraction":
    """binom(1/2, n)^2, the coefficient of lambda^(2n) in the perimeter series."""
    if n < 0:
        raise ValueError("coefficient index must be non-negative")
    if n < len(_IVORY_COEFFS):
        return _IVORY_COEFFS[n]
    from fractions import Fraction

    with _IVORY_LOCK:
        if not _IVORY_COEFFS:
            _IVORY_COEFFS.append(Fraction(1))
        while len(_IVORY_COEFFS) <= n:
            k = len(_IVORY_COEFFS)
            _IVORY_COEFFS.append(_IVORY_COEFFS[k - 1] * Fraction((2 * k - 3) ** 2, (2 * k) ** 2))
    return _IVORY_COEFFS[n]


def lambda_of(e: Ellipse) -> float:
    """Shape parameter (a - b)/(a + b), 0 for a circle, 1 when degenerate."""
    return (e.a - e.b) / (e.a + e.b)


def perimeter_series(e: Ellipse, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Perimeter by direct summation of pi*(a+b)*sum binom(1/2,n)^2 lambda^(2n).

    Terms are positive, so partial sums increase monotonically.  Summation
    stops once a term drops below abs_tol; the terms are accumulated with
    exact rounding (math.fsum) so the engines can be compared tightly.
    """
    lam = lambda_of(e)
    x = lam * lam
    terms = [1.0]
    xpow = x
    for n in range(1, SERIES_MAX_TERMS + 1):
        term = float(ivory_coefficient(n)) * xpow
        if term < cfg.abs_tol:
            return math.pi * (e.a + e.b) * math.fsum(terms)
        terms.append(term)
        xpow *= x
    raise NumericError(f"series did not reach tol {cfg.abs_tol} in {SERIES_MAX_TERMS} terms")


def _agm_perimeter(a: float, b: float, tol: float) -> float:
    """perimeter_agm on bare semiaxes and tolerance, for the float sweep row."""
    if b == 0:
        return 4.0 * a
    x = 1.0
    y = b / a
    csum = 0.5 * (1.0 - y * y)
    weight = 1.0
    iterations = 0
    # not abs(x - y) > tol: the same truth value, NaN included, one call fewer
    while x - y > tol or y - x > tol:
        iterations += 1
        if iterations > AGM_MAX_ITER:
            raise NumericError(f"AGM did not converge in {AGM_MAX_ITER} iterations")
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        csum += weight * c * c
        weight *= 2.0
    m = 0.5 * (x + y)
    return 2.0 * math.pi * a * (1.0 - csum) / m


def perimeter_agm(e: Ellipse, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Perimeter via the AGM form of the complete elliptic integral.

    Iterates x, y -> ((x+y)/2, sqrt(x*y)) from (1, b/a), accumulating the
    c_n^2 correction sum; the perimeter is 2*pi*a*(1 - sum 2^(n-1) c_n^2)/M.
    Converges quadratically.  The degenerate b = 0 case is returned exactly
    as 4a (the AGM collapses to 0 there and the formula degenerates).
    """
    return _agm_perimeter(e.a, e.b, cfg.abs_tol)


def h_of(e: Ellipse, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Perimeter excess h defined by L = pi*(a+b)*(1+h), via the AGM engine."""
    return perimeter_agm(e, cfg) / (math.pi * (e.a + e.b)) - 1.0


def ramanujan_lambda_sq(h: float) -> float:
    """The closed form 4h - 3h^2/(2 + sqrt(1 - 3h)).

    Accepts the full mathematical domain 0 <= h <= 1/3 even though physical
    ellipses only reach h = 4/pi - 1.
    """
    if not 0.0 <= h <= 1.0 / 3.0:
        raise NumericError(f"h = {h} outside [0, 1/3]")
    return 4.0 * h - 3.0 * h * h / (2.0 + math.sqrt(1.0 - 3.0 * h))


def _fixed_point_h(X: int, s: int, P: int) -> tuple[int, int]:
    """h for lambda^2 = X / 2^s as an integer H in units u = 2^-P, and a
    bound E with |H - h/u| <= E.

    For the ellipse (1 + lambda, 1 - lambda) pi cancels and
    1 + h = (1 - sum_(n>=2) 2^(n-1) c_n^2) / AGM(1, sqrt(1 - x)), with
    c_n = (a_(n-1) - b_(n-1))/2 from (a_1, b_1) = (1, sqrt(1 - x))
    (Borwein & Borwein, Pi and the AGM, 1987, ch. 1).  The AGM runs on
    integers A >= B in units u, each step the floors (A + B) >> 1 and
    isqrt(AB), until A = B: there AGM(A, B) = A and the rest of the sum is
    0.  That rule ends the loop, because A - B falls strictly while it is
    positive, to at most (A - B)^2/8B + 1 units, and from 1 to 0.

    After m steps E = 2m + 2.  For x <= 0.35^2, where dh/dx < 0.254, the
    error is the sum of
    - under 0.51 from flooring sqrt(1 - x), since |dh/db| = 2b dh/dx;
    - under 1.11 a step: the two floors lower the AGM of the pair, which
      is monotone and homogeneous, by at most a factor 1 - u/b, b > 0.936;
    - under 0.01 in all from the same floors moving the rest of the c-sum;
    - under 1 from the final division.
    """
    one = 1 << P
    A = one
    B = math.isqrt(((1 << s) - X) << (2 * P - s))
    N = one << (P + 1)  # 2 (1 - sum 2^(n-1) c_n^2) in units u^2
    weight = 1
    steps = 0
    while A != B:
        N -= weight * (A - B) ** 2
        weight <<= 1
        A, B = (A + B) >> 1, math.isqrt(A * B)
        steps += 1
    return N // (2 * A) - one, 2 * steps + 2


def _exact_row(lam: float) -> tuple[float, ...]:
    """One sweep row, every column correctly rounded, from a fixed-point AGM.

    With lambda = m / 2^e, x = lambda^2 is X / 2^s for X = m^2 and s = 2e,
    and x lies in [2^-g, 2^(1-g)).  _fixed_point_h gives h within E units
    of u = 2^-P.  The closed form f has 0 < f' <= 4 for these h, and
    flooring its root to a unit moves it by under h^2 u, so
    lambda_sq_approx and diff lie within (4E + 1)u of their values at H.
    As diff < 0, normalized = 32 diff/h^6 lies between its values at the
    low ends of diff and H -+ E and at the high ends; if the diff interval
    reaches 0 those two values differ in sign.  Each end divides diff
    2^(5P + 5 - s) by root (H -+ E)^6 at full width, and that shift is
    positive, since X < 2^106 gives s <= g + 105 and P >= 6g + 31.
    As |diff| ~ h^6/32 >= 2^-(6g + 17), P = 6g + 96 makes the error about
    (4E + 1) 2^-79 of |diff|.

    Each column costs one int / int division per end of its interval.  If
    the two ends round to different floats, the row is redone at 2P (Ziv,
    1991), which ends unless a true value is itself a rounding boundary.
    """
    m, d = lam.as_integer_ratio()
    s = 2 * (d.bit_length() - 1)
    X = m * m
    P = 6 * (s + 1 - X.bit_length()) + _GUARD_BITS
    while (row := _fixed_point_row(lam, X, s, P)) is None:
        P *= 2
    return row


def _fixed_point_row(lam: float, X: int, s: int, P: int) -> tuple[float, ...] | None:
    """_exact_row at P bits, or None when a column's rounding is uncertain."""
    H, E = _fixed_point_h(X, s, P)
    one = 1 << P
    root = (2 << P) + math.isqrt((one - 3 * H) << P)  # 2 + sqrt(1 - 3h) in units u
    approx = H * (4 * root - 3 * H)  # over root 2^P
    diff = (X * root << P) - (approx << s)  # over root 2^(P + s)
    e_approx = (4 * E + 1) * root
    e_diff = e_approx << s
    shift = 5 * P + 5 - s  # 32 diff/h^6 = diff 2^shift / (root H^6) in units
    low = (
        (H - E) / one,
        (approx - e_approx) / (root << P),
        (diff - e_diff) / (root << (P + s)),
        ((diff - e_diff) << shift) / (root * (H - E) ** 6),
    )
    high = (
        (H + E) / one,
        (approx + e_approx) / (root << P),
        (diff + e_diff) / (root << (P + s)),
        ((diff + e_diff) << shift) / (root * (H + E) ** 6),
    )
    if low != high:
        return None
    return (lam, low[0], X / (1 << s), *low[1:])


def lambda_refusal(lam: float) -> NumericError:
    """The refusal of a sweep lambda outside [0, 1)."""
    return NumericError(f"lambda = {lam} outside [0, 1)")


def error_sweep(lambda_grid, cfg: PrecisionConfig = DEFAULT_CONFIG) -> list[float]:
    """Evaluate the approximation error row by row over a lambda grid.

    Returns one flat list, six floats a row in ERROR_TABLE_COLUMNS order,
    the rows in input order and no record type for a row: h for the ellipse
    of that shape, the exact lambda^2, the closed form, their difference,
    and the difference normalized by -h^6/32 (so normalized -> -1 as
    lambda -> 0; the lambda = 0 row is 0, 0, 0, 0, 0, -1 by that limit).
    """
    tol = cfg.abs_tol
    values = []
    for lam in lambda_grid:
        if not (0.0 <= lam < 1.0):
            raise lambda_refusal(lam)
        if lam == 0.0:
            values += (0.0, 0.0, 0.0, 0.0, 0.0, -1.0)
        elif lam <= EXACT_SWEEP_CUTOFF:
            values += _exact_row(lam)
        else:
            # h_of on the ellipse (1 + lam, 1 - lam), float for float, without
            # building an Ellipse: lam in (0, 1) always makes a valid one
            a = 1.0 + lam
            b = 1.0 - lam
            h = _agm_perimeter(a, b, tol) / (math.pi * (a + b)) - 1.0
            true = lam * lam
            approx = ramanujan_lambda_sq(h)
            diff = true - approx
            values += (lam, h, true, approx, diff, 32.0 * diff / h**6)
    return values


def _circle_bound(mantissa: float, exponent: int) -> str:
    """pi*sum, for sum = mantissa * 2^exponent, as the circle-bound refusal
    prints it.

    Where pi*sum is subnormal its float keeps only a few binary digits and
    can print as the very perimeter it refuses, and where it overflows it
    prints as inf; there the unit-scale bound is rescaled exactly (p/2^k is
    p*5^k/10^k, p*2^k an integer) and shown to 17 significant digits.
    """
    bound = math.pi * math.ldexp(mantissa, exponent)
    if sys.float_info.min <= bound < math.inf:
        return f"{bound}"
    from decimal import Decimal

    numerator, denominator = (math.pi * mantissa).as_integer_ratio()
    shift = denominator.bit_length() - 1 - exponent
    if shift < 0:
        exact = Decimal(numerator << -shift)
    else:
        exact = Decimal(f"{numerator * 5**shift}e-{shift}")
    return f"{exact:.17g}"


class Inversion(_Record):
    """What `invert` prints, in print order: the semiaxes, the shape
    parameter and the excess h.  The third field is `lam` because `lambda`
    is a Python keyword."""

    __slots__ = ()
    _fields = ("a", "b", "lam", "h")


def invert_from_measurements(perimeter: float, axis_sum: float) -> Inversion:
    """Recover the ellipse from a perimeter L and the sum s = a + b.

    Feasible measurements satisfy pi*s <= L <= 4*s (circle up to the
    degenerate segment).  Only a and b depend on s itself, so L and s are
    scaled once by the power of two that puts s in [0.5, 1), exactly for any
    L up to 4*s: there pi*s and the semiaxes stay normal floats even for a
    subnormal s.  h = L/(pi*s) - 1, +0.0 or more once L >= pi*s, feeds the
    closed form, whose overshoot of lambda^2 = 1 by about 5.8e-4 at the
    degenerate end is clamped to keep b >= 0.  lambda is (a - b)/(a + b) of
    the unit-scale semiaxes; a and b are returned at the real scale.
    """
    if not (math.isfinite(perimeter) and math.isfinite(axis_sum)):
        raise NumericError(f"perimeter and axis sum must be finite, got {perimeter} and {axis_sum}")
    if not (axis_sum > 0):
        raise NumericError(f"axis sum must be positive, got {axis_sum}")
    # 4*s never rounds (an overflow to inf still compares right)
    if perimeter > 4.0 * axis_sum:
        raise NumericError(
            f"perimeter {perimeter} above the degenerate bound 4*sum = {4.0 * axis_sum}"
        )
    mantissa, exponent = math.frexp(axis_sum)
    try:
        unit_perimeter = math.ldexp(perimeter, -exponent)
    except OverflowError:  # only a huge negative perimeter at a tiny sum
        unit_perimeter = -math.inf
    if unit_perimeter < math.pi * mantissa:
        raise NumericError(
            f"perimeter {perimeter} below the circle bound pi*sum = "
            f"{_circle_bound(mantissa, exponent)}"
        )
    h = unit_perimeter / (math.pi * mantissa) - 1.0
    lam = min(1.0, math.sqrt(ramanujan_lambda_sq(h)))
    ua, ub = mantissa * (1.0 + lam) / 2.0, mantissa * (1.0 - lam) / 2.0
    a, b = axis_sum * (1.0 + lam) / 2.0, axis_sum * (1.0 - lam) / 2.0
    return Inversion(a, b, (ua - ub) / (ua + ub), h)
