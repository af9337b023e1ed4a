"""Tate-curve points, theta series, and sections of the degree-2 line
bundle: group law, frozen series values, the functional equation, and
section vanishing."""

import cmath
import random
from fractions import Fraction

import pytest

from torushms.errors import NonUnit
from torushms.novikov import NovikovSeries, invert
from torushms.tate import (
    SectionCoeffs,
    TatePoint,
    conjugate_zero,
    eval_section,
    point_mul,
    point_pow,
    section_through,
    section_vanishes_at,
    theta_eval,
    theta_eval_raw,
)

F = Fraction


def phase(turns) -> complex:
    t = F(turns)
    return cmath.exp(2j * cmath.pi * t.numerator / t.denominator)


# ---------------------------------------------------------------------------
# points and group law
# ---------------------------------------------------------------------------


def test_x_is_reduced_mod_one():
    assert TatePoint(F(4, 3), 2.0) == TatePoint(F(1, 3), 2.0)
    assert TatePoint(F(-1, 3), 1).x == F(2, 3)


def test_unit_must_have_valuation_zero():
    with pytest.raises(NonUnit):
        TatePoint(0, NovikovSeries.q_power(1))
    with pytest.raises(NonUnit):
        TatePoint(0, 0)


def test_x_matches_fraction_mod_one_for_every_input_kind():
    inputs = (0, 1, 2, 7, -1, -3, F(0), F(1, 3), F(3, 3), F(5, 3), F(-1, 3),
              F(-7, 2), F(99, 100), F(-1, 100), True)
    for x in inputs:
        p = TatePoint(x, phase("1/7"))
        assert type(p.x) is F
        assert repr(p.x) == repr(F(x) % 1)


def test_non_units_are_rejected():
    for unit in (
        0, 0.0, 0j, 1e-13, NovikovSeries.zero(), NovikovSeries.zero(4),
        NovikovSeries.q_power(F(1, 2)), NovikovSeries.q_power(-1, 2.0),
        NovikovSeries(((F(-1, 3), 1.0), (0, 1.0)), 5),
        NovikovSeries(((F(1, 3), 1.0), (1, 1.0)), 5),
    ):
        with pytest.raises(NonUnit):
            TatePoint(F(1, 3), unit)
    # a valuation-zero unit with higher terms is accepted
    TatePoint(F(1, 3), NovikovSeries(((0, 1.0), (F(1, 2), 1.0)), 5))


def test_zero_point_is_the_identity():
    o = TatePoint.zero()
    p = TatePoint(F(1, 3), phase("1/7"))
    assert point_mul(p, o).approx_eq(p)
    assert point_mul(o, p).approx_eq(p)
    assert o.is_zero_point()


def test_two_torsion():
    p0 = TatePoint.two_torsion()
    assert point_mul(p0, p0).approx_eq(TatePoint.zero())
    assert not p0.is_zero_point()


def test_conjugate_is_the_inverse():
    p = TatePoint(F(2, 5), phase("3/11"))
    assert point_mul(p, conjugate_zero(p)).approx_eq(TatePoint.zero())


def test_group_law_is_associative_and_commutative():
    rng = random.Random(5)
    for _ in range(20):
        pts = [
            TatePoint(F(rng.randint(0, 11), 12), phase(F(rng.randint(0, 6), 7)))
            for _ in range(3)
        ]
        a, b, c = pts
        assert point_mul(point_mul(a, b), c).approx_eq(
            point_mul(a, point_mul(b, c))
        )
        assert point_mul(a, b).approx_eq(point_mul(b, a))


def test_point_pow_matches_repeated_multiplication():
    p = TatePoint(F(1, 5), phase("1/3"))
    acc = TatePoint.zero()
    for _ in range(4):
        acc = point_mul(acc, p)
    assert point_pow(p, 4).approx_eq(acc)
    assert point_pow(p, 0).approx_eq(TatePoint.zero())
    assert point_pow(p, -1).approx_eq(conjugate_zero(p))


# ---------------------------------------------------------------------------
# theta series: frozen values
# ---------------------------------------------------------------------------


def _coeffs(series):
    return {e: c for e, c in series.terms}


def test_theta0_at_w_equals_one():
    # w = 1 is the zero point [-q^0 * (-1)]
    s = theta_eval(0, TatePoint(0, -1), 5)
    assert _coeffs(s).keys() == {F(0), F(1), F(4)}
    assert abs(s.coefficient(0) - 1) < 1e-12
    assert abs(s.coefficient(1) - 2) < 1e-12
    assert abs(s.coefficient(4) - 2) < 1e-12


def test_theta1_at_w_equals_one():
    s = theta_eval(1, TatePoint(0, -1), 3)
    assert _coeffs(s).keys() == {F(1, 4), F(9, 4)}
    assert abs(s.coefficient(F(1, 4)) - 2) < 1e-12
    assert abs(s.coefficient(F(9, 4)) - 2) < 1e-12


def test_theta0_at_the_two_torsion_point():
    s = theta_eval(0, TatePoint.two_torsion(), 3)
    assert _coeffs(s).keys() == {F(0), F(2)}
    assert abs(s.coefficient(0) - 2) < 1e-12
    assert abs(s.coefficient(2) - 2) < 1e-12


def test_theta_raw_accepts_unreduced_x():
    # arguments outside [0,1) walk a shifted parabola but still truncate
    a = theta_eval_raw(0, F(5, 3), phase("1/7"), 4)
    assert a.cutoff == 4
    assert not a.is_zero()
    assert all(e < 4 for e, _ in a.terms)


# ---------------------------------------------------------------------------
# functional equation  theta(qw) = q^-1 w^-2 theta(w)
# ---------------------------------------------------------------------------


def _functional_equation_residual(kind, x, unit, window):
    lhs = theta_eval_raw(kind, x + 1, unit, window)
    # w^-2 = q^(-2x) unit^-2 for w = -q^x unit
    u2 = invert(NovikovSeries.constant(unit) * NovikovSeries.constant(unit))
    rhs = (
        theta_eval_raw(kind, x, unit, window + 1 + 2 * x)
        * NovikovSeries.q_power(-(1 + 2 * x))
        * u2
    )
    return (lhs - rhs).max_abs_coeff(below=window)


@pytest.mark.parametrize("kind", [0, 1])
def test_functional_equation_residual_is_zero(kind):
    rng = random.Random(kind)
    for _ in range(6):
        x = F(rng.randint(0, 11), 12)
        u = phase(F(rng.randint(0, 9), 10)) * (1.0 + 0.5 * rng.random())
        assert _functional_equation_residual(kind, x, u, 6) == 0.0


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def test_section_coefficients_must_not_both_vanish():
    with pytest.raises(ValueError):
        SectionCoeffs(NovikovSeries.zero(), NovikovSeries.zero())


def test_section_through_vanishes_at_the_point_and_its_conjugate():
    q_pt = TatePoint(F(1, 3), phase("1/7"))
    s = section_through(q_pt, 6)
    assert section_vanishes_at(s, q_pt, 6)
    assert section_vanishes_at(s, conjugate_zero(q_pt), 6)


def test_section_through_does_not_vanish_elsewhere():
    q_pt = TatePoint(F(1, 3), phase("1/7"))
    s = section_through(q_pt, 6)
    other = TatePoint(F(1, 5), phase("2/9"))
    assert not section_vanishes_at(s, other, 6)
    assert eval_section(s, other, 6).max_abs_coeff() > 1e-6


def test_constant_section_vanishes_nowhere_generic():
    s = SectionCoeffs(NovikovSeries.one(), NovikovSeries.zero())
    assert not section_vanishes_at(s, TatePoint(F(2, 5), phase("1/5")), 6)
