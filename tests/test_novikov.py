"""Truncated Novikov arithmetic: canonical form, cutoff propagation,
inversion, fractional powers, and the field/ultrametric axioms."""

import cmath
import fractions
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import torushms.floer as floer
from torushms.cli import _series_json
from torushms.errors import NonUnit, ZeroSeries
from torushms.floer import FloerElement, cf, mu2
from torushms.novikov import (
    NovikovSeries,
    fractional_power,
    invert,
    norm,
    series_text,
    val,
)
from torushms.sheafk import RelationBounds, relation_suite
from torushms.tate import TatePoint, point_pow, theta_eval
from torushms.torus import Brane, LocalSystem, mat_max_abs

from shared import any_coeff, min_cut, mul_oracle, weighted

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
# the one-term constructors, negation, truncation, products with a
# one-term factor and the inverse of a one-term series skip the public
# constructor's merge and sort; built the general way they must give the
# same repr (coefficient types and signed zeros included)
# ---------------------------------------------------------------------------

_cutoff = st.one_of(st.none(), _expo)

_wild_series = st.builds(
    NovikovSeries, st.lists(st.tuples(_expo, any_coeff), max_size=4), _cutoff
)

_one_term = st.builds(
    NovikovSeries, st.tuples(st.tuples(_expo, any_coeff)), _cutoff
).filter(lambda a: len(a.terms) == 1)


def _invert_one_term_through_constructor(a):
    ((v, c0),) = a.terms
    if a.cutoff is None:
        return NovikovSeries.q_power(-v, 1.0 / c0)
    geo = NovikovSeries.one()
    return NovikovSeries(
        tuple((e - v, c / c0) for e, c in geo.terms), a.cutoff - 2 * v
    )


@settings(max_examples=250, deadline=None)
@given(_expo, any_coeff, _cutoff)
@example(F(2), 1.0, F(2))  # a term at the cutoff is dropped
@example(F(0), 1.0, F(0))
def test_one_term_constructors_match_public_constructor(e, c, cutoff):
    """`q_power`, `constant` and `one` apply the public constructor's
    per-term rules: `0 + c`, the drop rule, and a term at or above the
    cutoff dropped."""
    assert repr(NovikovSeries.q_power(e, c, cutoff)) == repr(NovikovSeries([(e, c)], cutoff))
    assert repr(NovikovSeries.constant(c, cutoff)) == repr(NovikovSeries([(0, c)], cutoff))
    assert repr(NovikovSeries.one()) == repr(NovikovSeries([(0, 1.0 + 0.0j)]))


@settings(max_examples=250, deadline=None)
@given(_wild_series, _expo)
def test_neg_and_truncated_match_public_constructor(a, c):
    assert repr(-a) == repr(
        NovikovSeries(tuple((e, -x) for e, x in a.terms), a.cutoff)
    )
    for cut in (c, int(c)):
        assert repr(a.truncated(cut)) == repr(
            NovikovSeries(a.terms, min_cut(a.cutoff, F(cut)))
        )


@settings(max_examples=300, deadline=None)
@given(_wild_series, _one_term)
def test_mul_by_one_term_matches_public_constructor(a, b):
    assert repr(a * b) == repr(mul_oracle(a, b))
    assert repr(b * a) == repr(mul_oracle(b, a))


@settings(max_examples=250, deadline=None)
@given(_one_term)
def test_invert_one_term_matches_general_path(a):
    for u in (a, NovikovSeries(a.terms), a.truncated(a.terms[0][0] + 3)):
        assert repr(invert(u)) == repr(_invert_one_term_through_constructor(u))


def test_hash_reads_the_keyed_form():
    """Equal series hash equal however they were built, with coefficient
    1, 1.0 or 1+0j; series that differ in an exponent, a coefficient or
    the cutoff hash apart (a point hashes its unit, and every sheaf its
    points)."""
    quarter = NovikovSeries.q_power(F(1, 4))
    equal = [S([(F(1, 2), 1)]), S([(F(1, 2), 1.0)]), S([(F(1, 2), 1 + 0j)]), quarter * quarter]
    assert len({hash(x) for x in equal}) == 1 and all(x == equal[0] for x in equal)
    apart = [S([(F(1, 2), 1)]), S([(F(1, 3), 1)]), S([(F(1, 2), 2)]), S([(F(1, 2), 1)], 3),
             S([(F(1, 2), 1), (1, 1)]), S([(F(1, 2), 1), (1, 2)])]
    assert len({hash(x) for x in apart}) == len(apart)


def test_a_nan_coefficient_fails_every_tolerance_test():
    """A nan coefficient is the largest one wherever it stands, in a
    series, a matrix and an element, so no tolerance accepts it."""
    nan = math.nan
    assert not TatePoint(0, nan).is_zero_point()
    assert not TatePoint(0, nan).is_zero_point(math.inf)
    assert not NovikovSeries.constant(nan).approx_eq(NovikovSeries.constant(1.0))
    one, bad = NovikovSeries.constant(1.0), NovikovSeries.constant(nan)
    for terms in ([(0, nan), (1, 2.0)], [(0, 2.0), (1, nan)]):
        assert math.isnan(S(terms).max_abs_coeff())
    assert S([(0, 2.0), (1, nan)]).max_abs_coeff(below=1) == 2.0
    space = cf(Brane((1, 2)), Brane((1, 0)))
    for m in (((bad, one),), ((one, bad),)):
        assert math.isnan(mat_max_abs(m))
    for pair in ((bad, one), (one, bad)):
        elem = FloerElement(space, {c: ((x,),) for c, x in zip(space.coords(), pair)})
        assert math.isnan(elem.max_abs_coeff())


# ---------------------------------------------------------------------------
# one storage form: hot paths read keys, only output reads `terms`
# ---------------------------------------------------------------------------


def _hot_triple(eig, rank):
    """Branes of slopes (0, -1), (1, 2) and (1, 0), each with E_eig^rank:
    1, 2 and 1 generators on CF(L0, L1), CF(L1, L2) and CF(L0, L2)."""
    ls = LocalSystem.from_eigenvalue(eig, rank)
    return (Brane((0, -1), F(1, 4), local_system=ls), Brane((1, 2), local_system=ls),
            Brane((1, 0), F(1, 3), local_system=ls))


def test_hot_paths_read_no_terms(monkeypatch):
    """mu2 on rank-1 phases, on a rank-3 scalar chain and on a series
    eigenvalue, theta series of a series unit, point_pow and the relation
    suite with its verdicts read the keyed form only."""
    phase = cmath.exp(2j * cmath.pi / 7)
    unit = S([(0, phase), (F(1, 3), 0.5)], 12)
    points = [TatePoint.zero(), TatePoint.two_torsion(), TatePoint(F(1, 3), phase),
              TatePoint(F(2, 5), -1j)]
    reads, real = [], NovikovSeries.terms.fget  # one entry per read of `terms`
    monkeypatch.setattr(NovikovSeries, "terms", property(lambda x: reads.append(x) or real(x)))
    for eig, rank in ((phase, 1), (phase, 3), (unit, 1), (unit, 2)):
        l0, l1, l2 = _hot_triple(eig, rank)
        entries = [NovikovSeries.constant(1.0 - 0.5j * k) for k in range(rank * rank)]
        mu2(weighted(l1, l2, *entries), weighted(l0, l1, *entries), 8)
    for kind in (0, 1):
        theta_eval(kind, TatePoint(F(1, 3), unit), 12)
    for p in (TatePoint(F(1, 3), phase), TatePoint(F(1, 3), unit)):
        point_pow(p, 5)
        point_pow(p, -3)
    suite = relation_suite(RelationBounds(), points)
    assert all(t.holds() for t in suite)
    for t in suite[::50]:
        t.k0_defect()
    assert reads == []
    repr(unit)  # output reads it: the counter is in place
    assert reads == [unit]


def test_mu2_forms_no_fraction_per_generator_or_triangle(monkeypatch):
    """A generator is an index into its CFSpace's integer lattice, so the
    calls into fractions.py that mu2 makes (sys.setprofile) are the same
    at cutoffs 8 and 16 (more triangles) and with one or every generator
    of phi2 weighted.  On constant eigenvalues that holds for every call.
    A series eigenvalue's transport takes its arc as an exact rational:
    one Fraction per arc, formed in floer and not again by the transport
    or `fractional_power`, so there the calls for arcs, less three per
    triangle, are the same; series work under it forms its own."""
    phase = cmath.exp(2j * cmath.pi / 7)
    unit = S([(0, phase), (F(1, 3), 0.5)], 12)
    walk, triangles = floer._walk, []

    def counted(*args):
        for triangle in walk(*args):
            triangles.append(triangle)
            yield triangle

    monkeypatch.setattr(floer, "_walk", counted)

    rewraps = {LocalSystem.transport.__code__, fractional_power.__code__}

    def calls(phi2, phi1, cutoff):
        """mu2's calls into fractions.py: all of them, and those for arcs
        (made from floer.py, or a Fraction formed in a transport) less
        three per triangle walked."""
        made = {True: 0, False: 0}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                caller = frame.f_back.f_code
                made[caller.co_filename == floer.__file__ or (
                    frame.f_code is F.__new__.__code__ and caller in rewraps)] += 1

        triangles.clear()
        sys.setprofile(profile)
        try:
            mu2(phi2, phi1, cutoff)
        finally:
            sys.setprofile(None)
        return made[True] + made[False], made[True] - 3 * len(triangles)

    for eig, rank in ((phase, 1), (phase, 3), (unit, 1), (unit, 2)):
        l0, l1, l2 = _hot_triple(eig, rank)
        entries = [NovikovSeries.constant(1.0 - 0.5j * k) for k in range(rank * rank)]
        phi1, every = weighted(l0, l1, *entries), weighted(l1, l2, *entries)
        one = FloerElement(every.space, every.components[:1])
        counts, walked = [], []
        for phi2 in (every, one):
            for cutoff in (8, 16):
                counts.append(calls(phi2, phi1, cutoff))
                walked.append(len(triangles))
        assert len(set(walked)) == 4, (eig, rank)  # each pair walks other triangles
        if eig is phase:
            assert len({total for total, _ in counts}) == 1, (eig, rank, counts)
        else:
            assert len({own for _, own in counts}) == 1, (eig, rank, counts)


def test_one_term_factors_build_no_series_per_term(monkeypatch):
    """Theta series of a constant unit and rank-1 mu2 with constant
    eigenvalues and generators form each term on scalars: the series
    they build (calls of `NovikovSeries._from_keys`) do not grow with the
    cutoff, which takes in more terms and triangles."""
    phase = cmath.exp(2j * cmath.pi / 7)
    ls = LocalSystem.from_eigenvalue(phase, 1)
    l0, l1, l2 = (Brane((0, -1), F(1, 4), local_system=ls), Brane((1, 2), local_system=ls),
                  Brane((1, 0), F(1, 3), local_system=ls))
    phi1 = weighted(l0, l1, NovikovSeries.constant(0.5j))
    phi2 = weighted(l1, l2, NovikovSeries.constant(1.0 - 0.5j))
    calls, real = [], NovikovSeries._from_keys.__func__
    monkeypatch.setattr(NovikovSeries, "_from_keys", classmethod(
        lambda cls, *args: calls.append(args) or real(cls, *args)))

    def built(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    for kind in (0, 1):
        points = [TatePoint(F(1, 3), phase) for _ in range(2)]  # no powers held
        assert built(theta_eval, kind, points[0], 8) == built(theta_eval, kind, points[1], 256)
    assert built(mu2, phi2, phi1, 8) == built(mu2, phi2, phi1, 64)
    assert len(mu2(phi2, phi1, 64).components[0][1][0][0].terms) > 10
