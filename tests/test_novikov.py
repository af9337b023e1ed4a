"""Truncated Novikov arithmetic: canonical form, cutoff propagation,
inversion, fractional powers, and the field/ultrametric axioms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torushms.cli import _series_json
from torushms.errors import NonUnit, ZeroSeries
from torushms.novikov import (
    ZERO_TOL,
    NovikovSeries,
    fractional_power,
    invert,
    norm,
    series_text,
    val,
)

F = Fraction


def S(pairs, cutoff=None):
    return NovikovSeries(pairs, cutoff)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_terms_are_merged_and_sorted():
    a = S([(1, 2.0), (F(1, 2), 1.0), (1, 3.0)])
    assert a.terms == ((F(1, 2), 1.0 + 0j), (F(1), 5.0 + 0j))


def test_negligible_coefficients_are_dropped():
    assert S([(0, 1e-15)]).is_zero()
    assert S([(0, 1.0), (1, -1.0), (1, 1.0)]).terms == ((F(0), 1.0 + 0j),)


def test_terms_at_or_above_cutoff_are_dropped():
    a = S([(0, 1.0), (2, 1.0), (3, 1.0)], cutoff=2)
    assert a.terms == ((F(0), 1.0 + 0j),)
    assert a.cutoff == 2


def test_immutable():
    a = NovikovSeries.one()
    with pytest.raises(AttributeError):
        a.terms = ()


def test_q_power_and_constant():
    assert NovikovSeries.q_power(F(1, 3)).val() == F(1, 3)
    assert NovikovSeries.constant(2.5).leading_coefficient() == 2.5
    assert NovikovSeries.constant(0).is_zero()


# ---------------------------------------------------------------------------
# cutoff propagation
# ---------------------------------------------------------------------------


def test_add_cutoff_is_min():
    a = S([(0, 1.0), (2, 1.0)], cutoff=5)
    b = S([(1, 1.0)], cutoff=3)
    assert (a + b).cutoff == 3
    assert (a + NovikovSeries.one()).cutoff == 5


def test_mul_cutoff_shifts_by_valuation():
    a = S([(0, 1.0), (2, 1.0)], cutoff=5)  # val 0
    b = S([(1, 1.0)], cutoff=3)  # val 1
    # min(5 + val b, 3 + val a) = min(6, 3) = 3
    assert (a * b).cutoff == 3
    # exact * truncated: window shifts by the exact factor's valuation
    c = NovikovSeries.q_power(F(3, 2))
    assert (b * c).cutoff == 3 + F(3, 2)


def test_exact_times_exact_stays_exact():
    a = S([(0, 1.0), (1, 1.0)])
    assert (a * a).cutoff is None
    assert (a * a).terms == ((F(0), 1 + 0j), (F(1), 2 + 0j), (F(2), 1 + 0j))


# ---------------------------------------------------------------------------
# inversion and powers
# ---------------------------------------------------------------------------


def test_invert_geometric_series():
    a = S([(0, 1.0), (1, -1.0)], cutoff=3)  # 1 - q + O(q^3)
    inv = invert(a)
    assert inv.cutoff == 3
    for e in (0, 1, 2):
        assert abs(inv.coefficient(e) - 1.0) < 1e-12
    assert (a * inv).approx_eq(NovikovSeries.one(), 1e-12)


def test_invert_shifts_window_by_twice_the_valuation():
    a = S([(1, 2.0), (2, 1.0)], cutoff=4)  # val 1
    inv = invert(a)
    assert inv.val() == -1
    assert inv.cutoff == 4 - 2
    assert (a * inv).approx_eq(NovikovSeries.one(), 1e-12)


def test_invert_exact_monomial():
    a = S([(F(1, 2), 2.0)])
    inv = invert(a)
    assert inv.cutoff is None
    assert inv.terms == ((F(-1, 2), 0.5 + 0j),)


def test_invert_exact_multiterm_requires_cutoff():
    with pytest.raises(ValueError):
        invert(S([(0, 1.0), (1, 1.0)]))


def test_invert_zero_raises():
    with pytest.raises(ZeroSeries):
        invert(NovikovSeries.zero())


def test_negative_power_inverts():
    a = S([(0, 2.0)], cutoff=6)
    assert (a ** -1).approx_eq(NovikovSeries.constant(0.5, 6), 1e-12)
    b = S([(0, 1.0), (1, 1.0)], cutoff=4)
    assert (b ** -2).approx_eq(invert(b * b), 1e-12)


# ---------------------------------------------------------------------------
# valuation and norm
# ---------------------------------------------------------------------------


def test_val_and_norm():
    a = S([(F(1, 3), 1.0), (1, 5.0)])
    assert val(a) == F(1, 3)
    assert abs(norm(a) - math.exp(-1 / 3)) < 1e-12
    with pytest.raises(ZeroSeries):
        val(NovikovSeries.zero())
    with pytest.raises(ZeroSeries):
        norm(NovikovSeries.zero())


# ---------------------------------------------------------------------------
# fractional powers
# ---------------------------------------------------------------------------


def test_fractional_power_constant():
    r = fractional_power(NovikovSeries.constant(4.0), F(1, 2))
    assert abs(r.leading_coefficient() - 2.0) < 1e-12


def test_fractional_power_principal_branch():
    r = fractional_power(NovikovSeries.constant(-1.0), F(1, 2))
    assert abs(r.leading_coefficient() - 1j) < 1e-12


def test_fractional_power_binomial_series():
    u = S([(0, 1.0), (1, 1.0)], cutoff=3)
    r = fractional_power(u, F(1, 2))
    assert abs(r.coefficient(0) - 1.0) < 1e-12
    assert abs(r.coefficient(1) - 0.5) < 1e-12
    assert abs(r.coefficient(2) + 0.125) < 1e-12
    assert (r * r).approx_eq(u, 1e-12)


def test_fractional_power_consistency_with_integer_power():
    u = S([(0, 2.0), (1, -0.5)], cutoff=4)
    assert fractional_power(u, 3).approx_eq(u * u * u, 1e-10)


def test_fractional_power_needs_val_zero():
    with pytest.raises(NonUnit):
        fractional_power(NovikovSeries.q_power(1), F(1, 2))


def test_fractional_power_of_zero_is_refused():
    with pytest.raises(ZeroSeries):
        fractional_power(NovikovSeries.zero(), F(1, 2))


def test_fractional_power_of_an_exact_unit_at_an_integer_is_a_product():
    u = S([(0, 1), (F(1, 2), 0.5j)])  # no cutoff, so no binomial series
    assert fractional_power(u, 2) == u * u


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_series_text_zero_and_order_marker():
    assert series_text(NovikovSeries.zero()) == "0"
    txt = series_text(S([(F(1, 2), 1.0)], cutoff=2))
    assert "q^(1/2)" in txt and "O(q^(2))" in txt


def test_series_json_roundtrip_data():
    a = S([(F(1, 3), 1 + 2j)], cutoff=F(7, 2))
    d = _series_json(a)
    assert d["terms"] == [{"num": 1, "den": 3, "re": 1.0, "im": 2.0}]
    assert d["cutoff"] == {"num": 7, "den": 2}


# ---------------------------------------------------------------------------
# algebraic laws (hypothesis, exact Gaussian-integer coefficients so all
# arithmetic is exact in floating point)
# ---------------------------------------------------------------------------

_coeff = st.builds(
    complex,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
).filter(lambda z: z != 0)

_expo = st.builds(
    F, st.integers(min_value=-6, max_value=10), st.integers(min_value=1, max_value=6)
)

_series = st.lists(st.tuples(_expo, _coeff), min_size=0, max_size=4).map(
    NovikovSeries
)

_nonzero = _series.filter(lambda a: not a.is_zero())


@settings(max_examples=100, deadline=None)
@given(_series, _series)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=100, deadline=None)
@given(_series, _series, _series)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(_nonzero, _nonzero)
def test_val_is_multiplicative(a, b):
    assert val(a * b) == val(a) + val(b)


@settings(max_examples=100, deadline=None)
@given(_series, _series)
def test_ultrametric_inequality(a, b):
    c = a + b
    if c.is_zero() or a.is_zero() or b.is_zero():
        return
    assert val(c) >= min(val(a), val(b))


@settings(max_examples=100, deadline=None)
@given(_nonzero, _nonzero)
def test_norm_is_multiplicative(a, b):
    assert math.isclose(norm(a * b), norm(a) * norm(b), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the sorted-terms constructor: negation, truncation, products with a
# one-term factor and the inverse of a one-term series skip the public
# constructor's merge and sort; built the general way they must give the
# same repr (coefficient types and signed zeros included)
# ---------------------------------------------------------------------------

_edge_coeffs = [
    0, 1, -1, 3, F(-2, 3), F(1, 7), -0.0, 0.0, 0.5, -1.0, 2.5,
    complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0), 1j, -1j,
    complex(-1.0, 0.0), ZERO_TOL, -ZERO_TOL, complex(0.0, ZERO_TOL),
    complex(-ZERO_TOL, -0.0), 2 * ZERO_TOL, -2 * ZERO_TOL,
    math.nextafter(ZERO_TOL, 1.0), math.nextafter(ZERO_TOL, 0.0),
]

_any_coeff = st.one_of(
    st.sampled_from(_edge_coeffs),
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.floats(min_value=-1e3, max_value=1e3),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)

_cutoff = st.one_of(st.none(), _expo)

_wild_series = st.builds(
    NovikovSeries, st.lists(st.tuples(_expo, _any_coeff), max_size=4), _cutoff
)

_one_term = st.builds(
    NovikovSeries, st.tuples(st.tuples(_expo, _any_coeff)), _cutoff
).filter(lambda a: len(a.terms) == 1)


def _min_cut(a, b):
    return b if a is None else a if b is None else min(a, b)


def _mul_through_constructor(a, b):
    """a * b as the general path computes it: cutoffs shifted by the
    valuations, one dict of exponents, then the public constructor."""
    cut_a = cut_b = None
    if a.cutoff is not None:
        shift = b.terms[0][0] if b.terms else b.cutoff
        cut_a = None if shift is None else a.cutoff + shift
    if b.cutoff is not None:
        shift = a.terms[0][0] if a.terms else a.cutoff
        cut_b = None if shift is None else b.cutoff + shift
    cut = _min_cut(cut_a, cut_b)
    acc = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = ea + eb
            if cut is not None and e >= cut:
                continue
            acc[e] = acc.get(e, 0) + ca * cb
    return NovikovSeries(acc.items(), cut)


def _invert_one_term_through_constructor(a):
    ((v, c0),) = a.terms
    if a.cutoff is None:
        return NovikovSeries.q_power(-v, 1.0 / c0)
    geo = NovikovSeries.one()
    return NovikovSeries(
        tuple((e - v, c / c0) for e, c in geo.terms), a.cutoff - 2 * v
    )


@settings(max_examples=250, deadline=None)
@given(
    st.lists(st.tuples(_expo, _any_coeff), max_size=6, unique_by=lambda t: t[0]),
    _cutoff,
)
def test_sorted_constructor_matches_public_constructor(pairs, cutoff):
    pairs.sort(key=lambda t: t[0])
    assert repr(NovikovSeries._sorted(pairs, cutoff)) == repr(
        NovikovSeries(pairs, cutoff)
    )


@settings(max_examples=250, deadline=None)
@given(_wild_series, _expo)
def test_neg_and_truncated_match_public_constructor(a, c):
    assert repr(-a) == repr(
        NovikovSeries(tuple((e, -x) for e, x in a.terms), a.cutoff)
    )
    for cut in (c, int(c)):
        assert repr(a.truncated(cut)) == repr(
            NovikovSeries(a.terms, _min_cut(a.cutoff, F(cut)))
        )


@settings(max_examples=300, deadline=None)
@given(_wild_series, _one_term)
def test_mul_by_one_term_matches_public_constructor(a, b):
    assert repr(a * b) == repr(_mul_through_constructor(a, b))
    assert repr(b * a) == repr(_mul_through_constructor(b, a))


@settings(max_examples=250, deadline=None)
@given(_one_term)
def test_invert_one_term_matches_general_path(a):
    for u in (a, NovikovSeries(a.terms), a.truncated(a.terms[0][0] + 3)):
        assert repr(invert(u)) == repr(_invert_one_term_through_constructor(u))
