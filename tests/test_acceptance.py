"""Acceptance gate: every shipped guarantee, one test per criterion, and
beside criterion 7 a proof of its bands for every lambda.

Each test records a PASS/FAIL verdict line (printed in the terminal
summary) before running its assertions, so the final report always lists
all ten criteria.
"""

import math
import random
import time
from fractions import Fraction as F

from invarc.cfrac import (
    CFraction,
    cfrac_expand,
    collapse_to_closed_form,
    freeze_tail,
)
from invarc.derivation import full_report, ramanujan_series, true_inverse_series
from invarc.numeric import (
    Ellipse,
    error_sweep,
    invert_from_measurements,
    perimeter_agm,
    perimeter_series,
)
from invarc.series import PowerSeries

from series_helpers import agreement, cfrac_to_series, ramanujan_by_sqrt, rows

TRUE_COEFFS_1_TO_8 = (
    F(4),
    F(-1),
    F(-1, 2),
    F(-5, 8),
    F(-17, 16),
    F(-273, 128),
    F(-609, 128),
    F(-23391, 2048),
)


def test_c01_true_inverse_coefficients(verdict):
    s = true_inverse_series(8)
    got = s.coeffs[1:9]
    passed = s[0] == 0 and got == TRUE_COEFFS_1_TO_8
    verdict(1, "true inverse series h^1..h^8", passed)
    assert passed, f"computed {[str(c) for c in got]}"


def test_c02_closed_form_expansion(verdict):
    s = ramanujan_series(8)
    expected = {6: F(-269, 128), 7: F(-1163, 256), 8: F(-10657, 1024)}
    passed = all(s[k] == v for k, v in expected.items())
    verdict(2, "closed-form expansion h^6..h^8", passed)
    assert passed, f"computed {s[6]}, {s[7]}, {s[8]}"


def test_c03_error_law(verdict):
    d = full_report(8).difference
    passed = (
        all(d[k] == 0 for k in range(6))
        and d[6] == F(-1, 32)
        and d[7] == F(-55, 256)
        and d[8] == F(-2077, 2048)
    )
    verdict(3, "difference -h^6/32 - 55h^7/256 - 2077h^8/2048", passed)
    assert passed, f"computed {d[6]}, {d[7]}, {d[8]}"


def test_c04_cfrac_partials_and_collapse(verdict):
    source = true_inverse_series(6)
    cf = cfrac_expand(source, 4)
    frozen = freeze_tail(cf, 2, F(3, 4))
    closed = collapse_to_closed_form(frozen)
    reexpanded = ramanujan_series(8)
    collapse_ok = (
        closed == "4h - 3h^2/(2 + sqrt(1 - 3h))"
        and reexpanded[6] == F(-269, 128)
        and reexpanded[7] == F(-1163, 256)
        and reexpanded[8] == F(-10657, 1024)
    )
    expected_partials = (F(1, 2), F(3, 4), F(3, 4), F(31, 36))
    partials_ok = cf.partials == expected_partials
    # the partials are justified, not just pinned: a C-fraction's
    # coefficients are unique, and these re-expand to the source through h^6
    reexpands_ok = agreement(cfrac_to_series(cf, 6), source) == (True, 6)
    computed = ", ".join(map(str, cf.partials))
    verdict(
        4,
        "continued-fraction partials and collapse",
        partials_ok and reexpands_ok and collapse_ok,
        f"partials {computed}",
    )
    assert collapse_ok
    assert reexpands_ok, (
        f"partials ({computed}) do not re-expand to the true inverse "
        "through h^6"
    )
    assert partials_ok, (
        f"expected partial numerators {tuple(map(str, expected_partials))}, "
        f"computed ({computed})"
    )
    # 29/18 is no C-fraction partial: it is a3 + a4, the linear coefficient
    # at that level of the contracted (J-fraction) form of the same tail,
    # 1 - a2 h - a2 a3 h^2/(1 - (a3 + a4) h - a4 a5 h^2/(...))
    assert cf.partials[2] + cf.partials[3] == F(29, 18)


def test_c05_convergent_agreement_count(verdict):
    # convergent 0 is the head alone and convergent k adds a_1..a_k, so two
    # fractions with one head whose partials first differ at a_4 share
    # exactly the 4 convergents 0..3
    cf = cfrac_expand(true_inverse_series(8), 6)
    frozen = freeze_tail(cf, 2, F(3, 4))
    passed = (
        (cf.leading, cf.head) == (frozen.leading, frozen.head)
        and cf.partials[:3] == frozen.partials[:3]
        and cf.partials[3] != frozen.partials[3]
    )
    verdict(5, "convergent agreement count is 4", passed)
    assert passed, f"partials {list(map(str, cf.partials))} and {list(map(str, frozen.partials))}"


def test_c06_randomized_round_trips(verdict):
    rng = random.Random(20260819)

    def rand_frac(nonzero=False):
        while True:
            num = rng.randint(-40, 40)
            if nonzero and num == 0:
                continue
            return F(num, rng.randint(1, 24))

    failures = []
    cases = 120
    for case in range(cases):
        # reversion round trip at order 10
        coeffs = [F(0), rand_frac(nonzero=True)]
        coeffs += [rand_frac() for _ in range(9)]
        s = PowerSeries(coeffs)
        g = s.revert()
        ok, through = agreement(s.compose(g), PowerSeries.monomial(1, 1, 10))
        if not (ok and through == 10):
            failures.append(("revert", case))

        # sqrt round trip
        sq = PowerSeries([F(1)] + [rand_frac() for _ in range(10)])
        r = sq.sqrt()
        ok, through = agreement(r * r, sq)
        if not (ok and through == 10):
            failures.append(("sqrt", case))

        # cfrac round trip through depth + 2
        depth = rng.randint(1, 5)
        partials = tuple(abs(rand_frac(nonzero=True)) for _ in range(depth))
        cf = CFraction(
            leading=abs(rand_frac(nonzero=True)),
            head=abs(rand_frac(nonzero=True)),
            partials=partials,
        )
        back = cfrac_expand(cfrac_to_series(cf, depth + 2), depth)
        if (back.leading, back.head, back.partials) != (
            cf.leading,
            cf.head,
            cf.partials,
        ):
            failures.append(("cfrac", case))

    passed = not failures
    verdict(6, f"randomized round trips ({cases} cases)", passed,
            "" if passed else f"{len(failures)} failures")
    assert passed, failures[:5]


def test_c07_normalized_error_bands(verdict):
    start = time.perf_counter()
    tight_grid = [k / 400.0 for k in range(1, 21)]  # (0, 0.05]
    wide_grid = [k / 100.0 for k in range(1, 21)]  # (0, 0.2]
    tight = max(abs(r.normalized + 1.0) for r in rows(error_sweep(tight_grid)))
    wide = max(abs(r.normalized + 1.0) for r in rows(error_sweep(wide_grid)))
    elapsed = time.perf_counter() - start
    passed = tight <= 0.02 and wide <= 0.15 and elapsed < 1.0
    verdict(
        7,
        "normalized error bands",
        passed,
        f"max {tight:.2e} on (0,0.05], {wide:.2e} on (0,0.2], {elapsed:.2f}s",
    )
    assert tight <= 0.02, tight
    assert wide <= 0.15, wide
    assert elapsed < 1.0, elapsed


# criterion 7's bands: |normalized + 1| <= tol for every lambda in (0, edge]
BANDS = ((0.05, 0.02), (0.2, 0.15))
# the truncation order M of the error series, and the Cauchy radius in x
PROOF_ORDER = 24
CAUCHY_RADIUS = F(1, 2)


def _ivory_oracle(n):
    # binom(1/2, n)^2 from math.comb, not from the runtime memo
    return F(math.comb(2 * n, n), (1 - 2 * n) * 4**n) ** 2


def _true_inverse_oracle(order):
    # the h-series built from _ivory_oracle, reverted
    return PowerSeries([0] + [_ivory_oracle(n) for n in range(1, order + 1)]).revert()


def _h_upper(x, terms):
    # h(x) for 0 <= x < 1 is at most its Ivory sum through x^terms plus
    # c_(terms+1) x^(terms+1)/(1 - x), since the coefficients c_n decrease
    partial = sum(_ivory_oracle(n) * x**n for n in range(1, terms + 1))
    return partial + _ivory_oracle(terms + 1) * x ** (terms + 1) / (1 - x)


def _band_proof_failures(approx, bands):
    """Why |normalized + 1| <= tol is not proved for every lambda in
    (0, edge], one line per (edge, tol) band, or [] when all are proved.

    normalized is 32 diff/h^6, and diff = x - f(h(x)) with x = lambda^2 and
    f the closed form, whose series in h is approx.  The true inverse comes
    from reverting the h-series, so D = true - approx through h^M.  With
    D_0..D_5 = 0 and D_6 = -1/32,
    normalized + 1 = 32 (sum_(7<=j<=M) D_j h^j + R(x))/h^6.  R is analytic
    on |x| < 1 and vanishes to order M + 1.  On |x| = r, |h(x)| <= h(r)
    < 1/3, so |2 + sqrt(1 - 3h)| >= 2 and |R| <= C' = r + 4h(r) + 1.5h(r)^2
    + sum_j |D_j| h(r)^j; Cauchy's estimate gives
    |R(x)| <= C' (x/r)^(M+1)/(1 - x/r).  With h(x) >= x/4 the bound
    grows with x, so its value at the edge covers the whole band.  Every
    bound is a Fraction, the float edges and tolerances taken exactly.
    """
    M, r = approx.order, CAUCHY_RADIUS
    D = (_true_inverse_oracle(M) - approx).coeffs
    if D[:7] != (0,) * 6 + (F(-1, 32),):
        return [f"error law: D_0..D_6 are {', '.join(map(str, D[:7]))}, need 0 x 6, -1/32"]
    h_r = _h_upper(r, M)
    if not h_r < F(1, 3):
        return [f"h(r) bound {h_r} is not below 1/3"]
    cauchy = r + 4 * h_r + F(3, 2) * h_r**2 + sum(abs(d) * h_r**j for j, d in enumerate(D))
    failures = []
    for edge, tol in bands:
        x = F(edge) ** 2
        h_hi = _h_upper(x, M)
        series = 32 * sum(abs(D[j]) * h_hi ** (j - 6) for j in range(7, M + 1))
        tail = 32 * cauchy * (x / r) ** (M + 1) / ((1 - x / r) * (x / 4) ** 6)
        if series + tail > F(tol):
            failures.append(f"lambda <= {edge}: bound {float(series + tail):.4e} exceeds {tol}")
    return failures


def test_c07_bands_proved_for_every_lambda():
    # criterion 7's two bands, proved on all of (0, edge] and not sampled
    assert _band_proof_failures(ramanujan_by_sqrt(PROOF_ORDER), BANDS) == []


def test_band_proof_refuses_the_tail_frozen_at_7_8():
    # the same checker fed the true inverse's fraction frozen at 7/8 from a_2:
    # its error starts at h^4, not at -h^6/32
    cf = cfrac_expand(_true_inverse_oracle(PROOF_ORDER), 2)
    frozen = cfrac_to_series(freeze_tail(cf, 2, F(7, 8)), PROOF_ORDER)
    assert _band_proof_failures(frozen, BANDS) == [
        "error law: D_0..D_6 are 0, 0, 0, 0, 1/16, 17/64, 911/1024, need 0 x 6, -1/32"
    ]


def test_band_proof_refuses_a_wide_band_of_0_07():
    # 0.07 lies below the wide band's maximum, which the row at lambda = 0.2
    # reaches, so the bound must exceed it too
    assert abs(rows(error_sweep([0.2]))[0].normalized + 1.0) > 0.07
    assert _band_proof_failures(ramanujan_by_sqrt(PROOF_ORDER), ((0.05, 0.02), (0.2, 0.07))) == [
        "lambda <= 0.2: bound 7.2323e-02 exceeds 0.07"
    ]


def test_c08_engine_agreement(verdict):
    worst = 0.0
    for k in range(91):  # lambda = 0.00 .. 0.90, a fixed at 1
        lam = k / 100.0
        e = Ellipse(1.0, (1.0 - lam) / (1.0 + lam))
        worst = max(worst, abs(perimeter_agm(e) - perimeter_series(e)))
    circle_gap = abs(perimeter_agm(Ellipse(1.0, 1.0)) - 2.0 * math.pi)
    segment_gap = abs(perimeter_agm(Ellipse(1.0, 0.0)) - 4.0)
    passed = worst <= 1e-12 and circle_gap <= 1e-14 and segment_gap <= 1e-15
    verdict(
        8,
        "perimeter engine agreement",
        passed,
        f"max gap {worst:.2e}, circle {circle_gap:.1e}, segment {segment_gap:.1e}",
    )
    assert worst <= 1e-12, worst
    assert circle_gap <= 1e-14, circle_gap
    assert segment_gap <= 1e-15, segment_gap


def test_c09_overestimate_sign(verdict):
    grid = [k / 1001.0 for k in range(1, 1001)]
    # approx >= true means -diff >= 0; allow float noise down to -1e-15
    margin = min(-row.diff for row in rows(error_sweep(grid)))
    passed = margin >= -1e-15
    verdict(9, "closed form never undershoots (1000-point grid)", passed,
            f"min margin {margin:.2e}")
    assert passed, margin


def test_c10_inversion_round_trip(verdict):
    worst = 0.0
    for k in range(1, 11):
        lam = k / 20.0  # 0.05 .. 0.50
        src = Ellipse(1.0 + lam, 1.0 - lam)
        got = invert_from_measurements(perimeter_agm(src), src.a + src.b)
        worst = max(
            worst,
            abs(got.a - src.a) / src.a,
            abs(got.b - src.b) / src.b,
        )
    passed = worst <= 1e-6
    verdict(10, "inversion round trip (lambda <= 0.5)", passed,
            f"max relative error {worst:.2e}")
    assert passed, worst
