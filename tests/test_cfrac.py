"""C-fraction extraction, freezing, tail solving, collapse, re-expansion."""

import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invarc.cfrac import (
    CFracError,
    CFraction,
    NotInRamanujanShape,
    cfrac_expand,
    collapse_to_closed_form,
    freeze_tail,
    ramanujan_series,
    tail_closed_form,
)
from invarc.derivation import true_inverse_series
from invarc.series import PowerSeries, _scaled

from series_helpers import (
    agreement,
    cfrac_to_series,
    polynomial,
    ramanujan_by_sqrt,
    rational_source,
    tail_series,
    whole,
)


TRUE_PARTIALS = (F(1, 2), F(3, 4), F(3, 4), F(31, 36), F(911, 1116))
CLOSED = "4h - 3h^2/(2 + sqrt(1 - 3h))"


def test_expand_true_inverse_depth_4():
    cf = cfrac_expand(true_inverse_series(6), 4)
    assert cf.leading == 4
    assert cf.head == 1
    assert cf.partials == TRUE_PARTIALS[:4]
    assert cf.depth == 4


def test_expand_depth_4_matches_symbolic_solve():
    # independent oracle: solve 4h - h^2/(1 - a1 h/(1 - ... /(1 - a4 h)))
    # = source through h^6 for a1..a4 with sympy; the solution is unique
    sympy = pytest.importorskip("sympy")
    h = sympy.Symbol("h")
    a = sympy.symbols("a1:5")
    tail = sympy.Integer(1)
    for ak in reversed(a):
        tail = 1 - ak * h / tail
    expansion = sympy.series(4 * h - h**2 / tail, h, 0, 7).removeO().expand()
    source = true_inverse_series(6)
    identity = [
        expansion.coeff(h, k) - sympy.Rational(str(source[k])) for k in range(3, 7)
    ]
    solutions = sympy.solve(identity, a, dict=True)
    assert len(solutions) == 1
    solved = tuple(F(str(solutions[0][ak])) for ak in a)
    assert solved == cfrac_expand(source, 4).partials


def test_expand_depth_5_extends_without_changing_prefix():
    cf = cfrac_expand(true_inverse_series(7), 5)
    assert cf.partials == TRUE_PARTIALS


def test_partials_are_depth_independent():
    # regular C-fraction coefficients are unique, so deeper runs only append
    shallow = cfrac_expand(true_inverse_series(5), 3)
    deep = cfrac_expand(true_inverse_series(9), 7)
    assert deep.partials[:3] == shallow.partials


def test_true_inverse_partials_are_at_least_the_closed_forms_through_order_80():
    # The paper's reading of criterion 9: a tail 1 - a_k h/(1 - ...) shrinks
    # as any partial grows, so a fraction whose partials are all at least
    # the closed form's (1/2, then 3/4 for ever) lies at or below it.  This
    # explains the closed form's overestimate but does not prove it: it
    # covers only the first 78 partials.
    partials = cfrac_expand(true_inverse_series(80), 78).partials
    assert partials[0] == F(1, 2)
    assert min(partials[1:]) == F(3, 4)
    assert [k for k, a in enumerate(partials, start=1) if a == F(3, 4)] == [2, 3]


def test_expand_terminating_input():
    s = polynomial([0, 4, -1], 8)  # 4h - h^2 exactly
    cf = cfrac_expand(s, 4)
    assert cf.depth < 4
    assert cf.partials == ()
    assert cf.leading == 4 and cf.head == 1


def test_expand_stops_after_a_nonempty_prefix():
    # a rational source ends the expansion after its own partials
    cf = cfrac_expand(rational_source(4, 1, [F(1, 2), F(3, 4)], 10), 6)
    assert (cf.leading, cf.head, cf.partials) == (4, 1, (F(1, 2), F(3, 4)))


def test_expand_irregular_input():
    # 4h - h^2 + h^4: D_1 = 1/(1 - h^2), so 1 - D_1 has no linear term
    s = polynomial([0, 4, -1, 0, 1], 6)
    with pytest.raises(
        CFracError,
        match=whole("partial numerator 1 vanished but the remainder did not terminate"),
    ):
        cfrac_expand(s, 3)


def test_expand_does_not_divide(monkeypatch):
    # one long division per partial made the expansion O(n^3); guard
    # against its return without a timing test
    source = true_inverse_series(12)
    calls = []
    divide = PowerSeries.divide

    def counted(self, den):
        calls.append(den)
        return divide(self, den)

    monkeypatch.setattr(PowerSeries, "divide", counted)
    monkeypatch.setattr(PowerSeries, "__truediv__", counted)
    cf = cfrac_expand(source, 10)
    assert cf.partials[:5] == TRUE_PARTIALS
    assert calls == []


def test_expand_needs_order_depth_plus_two():
    with pytest.raises(CFracError, match=whole("series order 5 cannot support depth 4; need 6")):
        cfrac_expand(true_inverse_series(5), 4)


def test_expand_rejects_nonzero_constant():
    with pytest.raises(CFracError, match=whole("series must vanish at 0")):
        cfrac_expand(polynomial([1, 4, -1], 6), 2)


def test_expand_rejects_degenerate_head():
    message = whole("normal form needs nonzero h and h^2 coefficients")
    with pytest.raises(CFracError, match=message):
        cfrac_expand(polynomial([0, 0, 1], 6), 2)
    with pytest.raises(CFracError, match=message):
        cfrac_expand(polynomial([0, 4, 0, 1], 6), 2)


def test_to_series_round_trips_the_source():
    source = true_inverse_series(8)
    cf = cfrac_expand(source, 6)
    back = cfrac_to_series(cf, 8)
    ok, through = agreement(back, source)
    assert ok and through == 8


def test_to_series_depth_d_certifies_order_d_plus_2():
    source = true_inverse_series(10)
    cf = cfrac_expand(source, 3)
    back = cfrac_to_series(cf, 5)
    assert agreement(back, source.truncate(5)) == (True, 5)
    # order d+2 is also the limit: more needs partials the fraction lacks
    with pytest.raises(CFracError, match=whole("depth 3 certifies only order 5")):
        cfrac_to_series(cf, 6)


def test_to_series_at_order_1_is_the_leading_term():
    # the head term starts at h^2, so no partial is needed at order 1
    assert cfrac_to_series(CFraction(F(4), F(1), (F(1, 2),)), 1) == PowerSeries([0, 4])
    assert cfrac_to_series(CFraction(F(-3), F(7), ()), 1) == PowerSeries([0, -3])


def test_to_series_needs_materializable_partials():
    cf = cfrac_expand(true_inverse_series(6), 4)
    with pytest.raises(ValueError, match=whole("order must be positive")):
        cfrac_to_series(cf, 0)
    with pytest.raises(CFracError, match=whole("depth 4 certifies only order 6")):
        cfrac_to_series(cf, 12)


@pytest.mark.parametrize("depth", [4, 10])
def test_cfraction_refuses_a_periodic_from_that_names_no_partial(depth):
    # the tail repeats a stored partial, so periodic_from lies in 1..depth
    partials = (F(1, 2),) + (F(3, 4),) * (depth - 1)
    for index in (0, depth + 1, -3, 2.0, True):  # an int index, not a float or a flag
        message = f"periodic_from must be None or in 1..{depth}, got {index!r}"
        with pytest.raises(CFracError, match=whole(message)):
            CFraction(F(4), F(1), partials, index)
    frozen = CFraction(F(4), F(1), partials, 2)
    assert collapse_to_closed_form(frozen) == CLOSED
    for clone in (copy.copy(frozen), copy.deepcopy(frozen), pickle.loads(pickle.dumps(frozen))):
        assert type(clone) is CFraction and clone == frozen


def test_freeze_tail_from_2():
    cf = cfrac_expand(true_inverse_series(8), 6)
    frozen = freeze_tail(cf, 2, F(3, 4))
    assert frozen.partials == (F(1, 2),) + (F(3, 4),) * 5
    assert frozen.periodic_from == 2
    assert frozen.depth == 6


def test_frozen_expansion_h6_coefficient():
    cf = cfrac_expand(true_inverse_series(8), 6)
    frozen = freeze_tail(cf, 2, F(3, 4))
    s = cfrac_to_series(frozen, 8)
    assert s[5] == F(-17, 16)  # still exact here
    assert s[6] == F(-269, 128)  # first deviation from -273/128
    assert s[7] == F(-1163, 256)


def test_periodic_fraction_materializes_any_depth():
    cf = cfrac_expand(true_inverse_series(8), 6)
    frozen = freeze_tail(cf, 2, F(3, 4))
    s = cfrac_to_series(frozen, 20)  # far beyond the stored depth
    assert s.order == 20


def test_freeze_is_idempotent():
    cf = cfrac_expand(true_inverse_series(8), 6)
    once = freeze_tail(cf, 2, F(3, 4))
    twice = freeze_tail(once, 2, F(3, 4))
    assert once == twice


def test_freeze_index_bounds():
    cf = cfrac_expand(true_inverse_series(8), 6)
    with pytest.raises(CFracError, match=whole("freeze index 0 outside 1..6")):
        freeze_tail(cf, 0, F(3, 4))
    with pytest.raises(CFracError, match=whole("freeze index 7 outside 1..6")):
        freeze_tail(cf, 7, F(3, 4))


def test_freeze_from_1_replaces_everything():
    cf = cfrac_expand(true_inverse_series(8), 6)
    frozen = freeze_tail(cf, 1, F(1, 2))
    assert frozen.partials == (F(1, 2),) * 6
    assert frozen.periodic_from == 1


def test_tail_closed_form_satisfies_quadratic():
    # B = 1 - ch/B with B(0) = 1 means B^2 - B + ch = 0
    for c in (F(3, 4), F(1, 2), F(2, 7)):
        b = tail_series(c, 10)
        ch = PowerSeries.monomial(c, 1, 10)
        residue = b * b - b + ch
        assert residue.valuation() is None
        assert b[0] == 1


def test_closed_form_recurrence_matches_the_sqrt_oracle():
    for order in (2, 3, 12, 40, 160):
        assert ramanujan_series(order) == ramanujan_by_sqrt(order)


def _ramanujan_by_fractions(order):
    # the former cfrac.ramanujan_series: the same recurrence on Fractions
    if order < 2:
        raise ValueError("need order >= 2 to expand the closed form")
    s = F(1)
    q = F(1)  # t_0 = 2 - s_0
    coeffs = [F(0), F(4), -q]
    for k in range(1, order - 1):
        s *= F(3 * (2 * k - 3), 2 * k)
        q = -s - q
        coeffs.append(-q)
    return PowerSeries(coeffs)


def test_closed_form_on_integers_matches_the_fraction_recurrence():
    for order in range(-1, 81):
        assert _outcome(ramanujan_series, order) == _outcome(_ramanujan_by_fractions, order)


def test_tail_closed_form_string():
    assert tail_closed_form(F(3, 4)) == "(1 + sqrt(1 - 3h))/2"
    assert tail_closed_form(F(1, 4)) == "(1 + sqrt(1 - h))/2"
    assert tail_closed_form(F(-1, 4)) == "(1 + sqrt(1 + h))/2"
    assert tail_closed_form(F(-1, 2)) == "(1 + sqrt(1 + 2h))/2"
    assert tail_closed_form(F(0)) == "(1 + sqrt(1))/2"
    # a fractional slope in parentheses: 3/2h would read as 3/(2h)
    assert tail_closed_form(F(3, 8)) == "(1 + sqrt(1 - (3/2)h))/2"
    assert tail_closed_form(F(-3, 8)) == "(1 + sqrt(1 + (3/2)h))/2"


def test_collapse_gives_canonical_string():
    cf = cfrac_expand(true_inverse_series(8), 6)
    frozen = freeze_tail(cf, 2, F(3, 4))
    closed = collapse_to_closed_form(frozen)
    assert closed == "4h - 3h^2/(2 + sqrt(1 - 3h))"


def test_collapse_expansion_matches_frozen_fraction():
    # a2 = a3 = 3/4, so freezing at 3/4 from index 2, 3 or 4 is one fraction
    cf = cfrac_expand(true_inverse_series(10), 8)
    for start in (2, 3, 4):
        frozen = freeze_tail(cf, start, F(3, 4))
        assert collapse_to_closed_form(frozen) == CLOSED
        assert ramanujan_series(40) == cfrac_to_series(frozen, 40)


def test_collapse_rejects_wrong_shapes():
    cf = cfrac_expand(true_inverse_series(8), 6)
    with pytest.raises(NotInRamanujanShape, match=whole("tail must be frozen")):
        collapse_to_closed_form(cf)  # not periodic at all
    with pytest.raises(NotInRamanujanShape, match=whole("partial numerator 2 is 2/3, need 3/4")):
        collapse_to_closed_form(freeze_tail(cf, 2, F(2, 3)))  # wrong tail value
    for start in (3, 4):  # not too late: the true a2 and a3 are 3/4 already
        assert collapse_to_closed_form(freeze_tail(cf, start, F(3, 4))) == CLOSED
    with pytest.raises(NotInRamanujanShape, match=whole("partial numerator 4 is 31/36, need 3/4")):
        collapse_to_closed_form(freeze_tail(cf, 5, F(3, 4)))  # keeps a4 = 31/36
    with pytest.raises(NotInRamanujanShape, match=whole("head is (3, 1), need (4, 1)")):
        collapse_to_closed_form(CFraction(F(3), F(1), (F(1, 2), F(3, 4)), 2))
    with pytest.raises(NotInRamanujanShape, match=whole("partial numerator 1 is 3/4, need 1/2")):
        collapse_to_closed_form(freeze_tail(cf, 1, F(3, 4)))  # frozen from a_1
    one = freeze_tail(cfrac_expand(true_inverse_series(3), 1), 1, F(1, 2))
    with pytest.raises(NotInRamanujanShape, match=whole("partial numerator 2 is 1/2, need 3/4")):
        collapse_to_closed_form(one)  # a 1/2 head partial, and 1/2 repeats


def test_collapse_compares_every_stored_partial():
    # periodic_from names where the tail starts, but a stored partial past
    # it still has to match
    cf = CFraction(F(4), F(1), (F(1, 2),) + (F(3, 4),) * 10 + (F(5, 7),), 2)
    with pytest.raises(NotInRamanujanShape, match=whole("partial numerator 12 is 5/7, need 3/4")):
        collapse_to_closed_form(cf)


SHAPE_PARTIALS = st.sampled_from([F(1, 2), F(3, 4), F(2, 3), F(31, 36), F(0)])


@st.composite
def frozen_fractions(draw):
    # a prefix of the closed form's partials 1/2, 3/4, 3/4, ... then any,
    # so that accepted fractions and late first mismatches both come up
    prefix = (F(1, 2),) + (F(3, 4),) * 5
    kept = draw(st.integers(0, 6))
    partials = prefix[:kept] + tuple(
        draw(st.lists(SHAPE_PARTIALS, min_size=max(0, 1 - kept), max_size=6 - kept))
    )
    cf = CFraction(draw(st.sampled_from([F(3), F(4)])), draw(st.sampled_from([F(1), F(2)])),
                   tuple(partials))
    start = draw(st.integers(1, cf.depth))
    value = draw(
        st.one_of(st.just(F(3, 4)), SHAPE_PARTIALS, st.fractions(-2, 2, max_denominator=12))
    )
    return freeze_tail(cf, start, value)


@given(frozen_fractions())
@example(CFraction(F(4), F(1), (F(1, 2), F(3, 4), F(3, 4)), 3))
@example(CFraction(F(4), F(1), (F(1, 2), F(3, 4), F(3, 4), F(3, 4)), 4))
@example(CFraction(F(4), F(1), (F(1, 2), F(3, 4), F(3, 4), F(2, 3)), 4))
@settings(max_examples=200, deadline=None)
def test_collapse_accepts_exactly_the_fractions_that_expand_to_the_closed_form(cf):
    # series route: a frozen fraction that differs from the closed form's
    # C-fraction first at partial k <= 7 differs from its series at h^(k+2)
    expands = cfrac_to_series(cf, 24) == ramanujan_series(24)
    try:
        collapse_to_closed_form(cf)
    except NotInRamanujanShape:
        collapses = False
    else:
        collapses = True
    assert collapses == expands


def test_agreement_order_true_vs_frozen():
    cf = cfrac_expand(true_inverse_series(8), 6)
    frozen = freeze_tail(cf, 2, F(3, 4))
    # the head convergent counts, then partials 1/2, 3/4, 3/4 match: 1 + 3
    assert (cf.leading, cf.head) == (frozen.leading, frozen.head)
    assert cf.partials[:3] == frozen.partials[:3]
    assert cf.partials[3] != frozen.partials[3]


def test_closed_form_expr_series_prefix():
    s = ramanujan_series(6)
    assert s.coeffs == (
        F(0),
        F(4),
        F(-1),
        F(-1, 2),
        F(-5, 8),
        F(-17, 16),
        F(-269, 128),
    )


def test_serialization_strings():
    cf = cfrac_expand(true_inverse_series(7), 5)
    assert list(map(str, cf.partials)) == ["1/2", "3/4", "3/4", "31/36", "911/1116"]


@given(
    st.lists(
        st.fractions(min_value=F(1, 9), max_value=4, max_denominator=9),
        min_size=1,
        max_size=5,
    ),
    st.fractions(min_value=F(1, 9), max_value=4, max_denominator=9),
    st.fractions(min_value=F(1, 9), max_value=4, max_denominator=9),
)
def test_random_cfraction_round_trip(partials, leading, head):
    # expansion of a random regular C-fraction recovers its coefficients
    cf = CFraction(leading=leading, head=head, partials=tuple(partials))
    order = cf.depth + 2
    s = cfrac_to_series(cf, order)
    back = cfrac_expand(s, cf.depth)
    assert back.leading == leading
    assert back.head == head
    assert back.partials == cf.partials


# the expansion against the one it replaced, kept here as an oracle


def _expand_by_division(s, depth):
    # the former expansion: one long division per partial, O(n^3)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if s.order < depth + 2:
        raise CFracError(
            f"series order {s.order} cannot support depth {depth}; need {depth + 2}"
        )
    if s[0] != 0:
        raise CFracError("series must vanish at 0")
    c1, c2 = s[1], s[2]
    if c1 == 0 or c2 == 0:
        raise CFracError("normal form needs nonzero h and h^2 coefficients")
    head = -c2
    denom = PowerSeries.monomial(c1, 1, s.order) - s
    d = PowerSeries.monomial(head, 2, s.order).divide(denom)
    partials = []
    for k in range(1, depth + 1):
        remainder = PowerSeries.one(d.order) - d
        if remainder.valuation() is None:
            break
        a = remainder[1]
        if a == 0:
            raise CFracError(
                f"partial numerator {k} vanished but the remainder did not terminate"
            )
        partials.append(a)
        if k < depth:
            d = PowerSeries.monomial(a, 1, remainder.order).divide(remainder)
    return CFraction(c1, head, tuple(partials))


def _oracle_expand_by_gcd(s, depth):
    # the former cfrac_expand: D_k as num/den, both lists divided each step
    # by the gcd of all their 2n entries
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if s.order < depth + 2:
        raise CFracError(
            f"series order {s.order} cannot support depth {depth}; need {depth + 2}"
        )
    if s[0] != 0:
        raise CFracError("series must vanish at 0")
    c1, c2 = s[1], s[2]
    if c1 == 0 or c2 == 0:
        raise CFracError("normal form needs nonzero h and h^2 coefficients")
    head = -c2
    den, _ = _scaled([-c for c in s.coeffs[2:]])
    num = [den[0]] + [0] * (len(den) - 1)
    partials = []
    for k in range(1, depth + 1):
        rem = [q - p for p, q in zip(num, den)]
        if not any(rem):
            break
        a = F(rem[1], den[0])
        if a == 0:
            raise CFracError(
                f"partial numerator {k} vanished but the remainder did not terminate"
            )
        partials.append(a)
        if k < depth:
            num = [a.numerator * q for q in den[:-1]]
            den = [a.denominator * r for r in rem[1:]]
            g = math.gcd(*num, *den)
            num = [p // g for p in num]
            den = [q // g for q in den]
    return CFraction(c1, head, tuple(partials))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_expand_matches_oracles(s, depth):
    # the same CFraction, or the same exception type and message, as both
    # former expansions
    expanded = _outcome(cfrac_expand, s, depth)
    assert expanded == _outcome(_expand_by_division, s, depth)
    assert expanded == _outcome(_oracle_expand_by_gcd, s, depth)


# zeros and non-dyadic denominators (1/3, 1/7, ...) both common
sparse_fractions_st = st.one_of(
    st.just(F(0)), st.fractions(min_value=-20, max_value=20, max_denominator=12)
)
nonzero_fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
    lambda f: f != 0
)


@given(
    st.lists(sparse_fractions_st, min_size=1, max_size=12),
    st.integers(min_value=-1, max_value=10),
)
@settings(max_examples=150)
def test_expand_refusals_match_division_oracle(coeffs, depth):
    # mostly the checks before the loop: depth, order, constant, head
    s = PowerSeries(coeffs)
    _assert_expand_matches_oracles(s, depth)


@given(
    nonzero_fractions_st,
    nonzero_fractions_st,
    st.lists(sparse_fractions_st, max_size=9),
    st.integers(min_value=0, max_value=9),
)
@example(F(4), F(-1), [F(0), F(1)], 3)  # partial numerator 1 vanished
@example(F(4), F(-1), [F(-2)] * 3, 4)  # partial numerator 3 vanished
@settings(max_examples=300)
def test_expand_matches_division_oracle(c1, c2, tail, depth):
    # regular sources, and irregular ones where a zero makes a partial vanish
    s = PowerSeries([F(0), c1, c2] + tail)
    depth = min(depth, s.order - 2)
    _assert_expand_matches_oracles(s, depth)


@given(
    nonzero_fractions_st,
    nonzero_fractions_st,
    st.lists(sparse_fractions_st, max_size=5),
    st.integers(min_value=0, max_value=4),
)
@example(F(4), F(1), [F(1, 2), F(3, 4)], 4)
@example(F(2), F(6), [F(4), F(0), F(9)], 3)  # a_2 = 0 ends it after a_1
@settings(max_examples=100)
def test_expand_matches_division_oracle_on_rational_sources(leading, head, partials, extra):
    # terminating sources, also where a zero partial ends them early
    depth = len(partials) + extra
    s = rational_source(leading, head, partials, depth + 2)
    _assert_expand_matches_oracles(s, depth)


@pytest.mark.parametrize(
    "source, order, depth",
    [(true_inverse_series, 40, 38), (true_inverse_series, 80, 78), (ramanujan_series, 42, 40)],
)
def test_expand_matches_gcd_oracle_at_high_order(source, order, depth):
    s = source(order)
    assert cfrac_expand(s, depth) == _oracle_expand_by_gcd(s, depth)


# Rutishauser's quotient-difference algorithm: the partials by a route that
# shares no code with cfrac_expand (Henrici, Applied and Computational
# Complex Analysis, Vol. 1, 1974)


def _long_division(num, den):
    # num/den as a Fraction power series, through the length of den
    quotient = []
    for k in range(len(den)):
        acc = (num[k] if k < len(num) else 0) - sum(
            den[j] * quotient[k - j] for j in range(1, k + 1)
        )
        quotient.append(acc / den[0])
    return quotient


def _qd_partials(s):
    # D_1 = head*h^2/(c1*h - s) = c2/(c2 + c3 h + ...); then
    # f = (1 - D_1)/h = a1/(1 - a2 h/(1 - a3 h/(1 - ...))), and the qd
    # table of f gives a2 = q_1, a3 = e_1, a4 = q_2, ... off its top row
    c = s.coeffs
    d = _long_division([c[2]], list(c[2:]))
    f = [-x for x in d[1:]]
    partials = [f[0]]
    q = [f[k + 1] / f[k] for k in range(len(f) - 1)]  # q_1^(k)
    e = [F(0)] * len(f)  # e_0^(k)
    while len(partials) < len(f):
        partials.append(q[0])
        # rhombus rules: e_m^(k) = q_m^(k+1) - q_m^(k) + e_(m-1)^(k+1),
        # then q_(m+1)^(k) = q_m^(k+1) e_m^(k+1) / e_m^(k)
        e = [q[k + 1] - q[k] + e[k + 1] for k in range(len(q) - 1)]
        if len(partials) < len(f):
            partials.append(e[0])
        q = [q[k + 1] * e[k + 1] / e[k] for k in range(len(e) - 1)]
    return tuple(partials)


@pytest.mark.parametrize("order", [40, 80])
def test_qd_partials_match_expand(order):
    source = true_inverse_series(order)
    qd = _qd_partials(source)
    assert len(qd) == order - 2
    assert qd[:5] == TRUE_PARTIALS
    assert qd == cfrac_expand(source, order - 2).partials


def test_qd_partials_of_the_closed_form_are_periodic():
    # the C-fraction that collapse_to_closed_form compares against
    assert _qd_partials(ramanujan_series(42)) == (F(1, 2),) + (F(3, 4),) * 39
