"""Truncated formal power series with exact rational coefficients.

A :class:`PowerSeries` stores coefficients c_0 .. c_N of a single-variable
series as :class:`fractions.Fraction` values together with its truncation
order N.  Coefficients beyond the order are unknown, not zero; every
operation propagates the order pessimistically, so any coefficient a result
exposes is certified exact.

All values are immutable and all operations are pure functions, so series
can be shared freely between threads.
"""

import math
from fractions import Fraction

Coefficient = Fraction | int | str


class SeriesError(ArithmeticError):
    """Any series arithmetic refusal; the message names which."""


def _frac(value: Coefficient) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _scaled(coeffs: "Sequence[Fraction]") -> tuple[list[int], int]:
    """Integers over the common denominator d: coeffs[i] == ints[i] / d."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


class PowerSeries:
    """Immutable truncated power series over exact rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: "Iterable[Coefficient]"):
        tup = tuple(_frac(c) for c in coeffs)
        if not tup:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "_coeffs", tup)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the default restores
        # the slot by setattr, which __setattr__ refuses
        return type(self), (self._coeffs,)

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls((Fraction(0),) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls((Fraction(1),) + (Fraction(0),) * order)

    @classmethod
    def monomial(cls, coeff: Coefficient, power: int, order: int) -> "PowerSeries":
        if power < 0 or power > order:
            raise ValueError("monomial power must lie within the order")
        c = [Fraction(0)] * (order + 1)
        c[power] = _frac(coeff)
        return cls(c)

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, power: int) -> Fraction:
        if power < 0 or power > self.order:
            raise IndexError(f"coefficient {power} is beyond certified order {self.order}")
        return self._coeffs[power]

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None for the zero series."""
        for k, c in enumerate(self._coeffs):
            if c != 0:
                return k
        return None

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a series; higher coefficients are unknown")
        return PowerSeries(self._coeffs[: order + 1])

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(a + b for a, b in zip(self._coeffs[: n + 1], other._coeffs[: n + 1]))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(a - b for a, b in zip(self._coeffs[: n + 1], other._coeffs[: n + 1]))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        # convolve integers over the common denominators; one gcd per
        # output coefficient instead of one per product
        n = min(self.order, other.order)
        a, da = _scaled(self._coeffs[: n + 1])
        b, db = _scaled(other._coeffs[: n + 1])
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        d = da * db
        return PowerSeries(Fraction(c, d) for c in out)

    # -- division, sqrt, composition, reversion --------------------------

    def divide(self, den: "PowerSeries") -> "PowerSeries":
        """Exact long division.

        When the denominator has valuation v > 0 the numerator must share
        it; the common factor x^v is cancelled and the certified order
        shrinks by v.  Each quotient coefficient is the numerator's minus
        the convolution of the quotient so far with the denominator, over
        the denominator's leading coefficient.
        """
        v = den.valuation()
        if v is None:
            raise SeriesError("denominator is zero through its whole order")
        num_c = self._coeffs
        den_c = den._coeffs
        if v > 0:
            nv = self.valuation()
            if nv is not None and nv < v:
                raise SeriesError(
                    f"denominator valuation {v} exceeds numerator valuation {nv}"
                )
            num_c = num_c[v:]
            den_c = den_c[v:]
        n = min(self.order, den.order) - v
        if n < 0:
            raise SeriesError("division result certifies no coefficients at these orders")
        lead = den_c[0]
        q: list[Fraction] = []
        for k in range(n + 1):
            acc = num_c[k]
            for i, c in enumerate(q):
                if c:
                    acc -= c * den_c[k - i]
            q.append(acc / lead)
        return PowerSeries(q)

    __truediv__ = divide

    def sqrt(self) -> "PowerSeries":
        """Principal square root of a series with constant term 1."""
        if self._coeffs[0] != 1:
            raise SeriesError(f"sqrt needs constant term 1, got {self._coeffs[0]}")
        n = self.order
        r = [Fraction(1)] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = self._coeffs[k]
            for i in range(1, k):
                acc -= r[i] * r[k - i]
            r[k] = acc / 2
        return PowerSeries(r)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner) for inner with zero constant term."""
        if inner._coeffs[0] != 0:
            raise SeriesError("inner series must vanish at 0")
        n = min(self.order, inner.order)
        inner_t = inner.truncate(n)
        result = PowerSeries.zero(n)
        for k in range(n, -1, -1):
            result = result * inner_t
            if self._coeffs[k] != 0:
                result = result + PowerSeries.monomial(self._coeffs[k], 0, n)
        return result

    def revert(self) -> "PowerSeries":
        """Compositional inverse.

        Needs constant term 0 and nonzero linear term.  Lagrange inversion
        gives [x^k] result = (1/k) [x^(k-1)] w^k with w = x/self, so one
        division and a running power of w, n - 1 products, yield every
        coefficient.

        Nothing in the pipeline calls it: the true inverse comes from its
        ODE (`derivation.true_inverse_series`).  It stays as the general
        reversion criterion 6 checks, and as that kernel's test oracle.
        """
        if self._coeffs[0] != 0:
            raise SeriesError("can only revert a series with zero constant term")
        if self.order < 1 or self._coeffs[1] == 0:
            raise SeriesError("reversion needs a nonzero linear coefficient")
        n = self.order
        w = PowerSeries.one(n - 1).divide(PowerSeries(self._coeffs[1:]))
        power = w
        g = [Fraction(0), w[0]]
        for k in range(2, n + 1):
            power = power * w
            g.append(power[k - 1] / k)
        return PowerSeries(g)

    # -- display ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"PowerSeries({list(map(str, self._coeffs))!r})"

