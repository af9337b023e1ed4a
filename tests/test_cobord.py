"""Surgery calculus and the cobordism group (R/Z) + Z^2.

The 1/2 handle correction of an elementary surgery is certified two
independent ways: a piecewise-linear surgered curve whose flux is an
exact polygon area, and a Farey recursion showing the reference flux
rho(v) does not depend on the decomposition path.  Everything here is
exact rational arithmetic; any tolerance would hide a bug.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from torushms.cobord import (
    CobordClass,
    CurveClass,
    class_of_sum,
    curve_of,
    eta,
    farey_splits,
    flux_of,
    normal_form,
    pl_polyline_flux,
    pl_surgery_flux,
    relation_check,
    rho_reference,
    rho_values_by_recursion,
    surgery,
    zeta,
)
from torushms.errors import NonElementary, NullClass
from torushms.torus import Brane, det2, is_primitive


# ---------------------------------------------------------------------------
# flux and normal forms
# ---------------------------------------------------------------------------


def test_flux_examples():
    assert flux_of(Brane((0, 1), F(1, 3))) == F(1, 3)
    assert flux_of(Brane((1, 0), F(1, 4))) == -F(1, 4) % 1
    assert flux_of(Brane((1, 1), F(1, 2))) == F(1, 2)
    # translation along the brane does not change the flux
    assert flux_of(Brane((1, 2), F(3, 7))) == flux_of(Brane((1, 2), F(3, 7) + 1))


def test_normal_form_examples():
    assert normal_form(Brane((0, 1), F(1, 3))) == CobordClass(F(1, 3), (0, 1))
    assert normal_form(Brane((1, 1), F(1, 2))) == CobordClass(0, (1, 1))
    assert normal_form(Brane((0, 1)).shifted(1)) == CobordClass(0, (0, -1))
    # marker and local-system data are cobordism-invisible
    assert normal_form(Brane((1, 2), F(1, 5), marker=F(3, 8))) == normal_form(
        Brane((1, 2), F(1, 5))
    )


def test_shift_negates_class():
    b = Brane((1, 2), F(2, 7))
    assert normal_form(b.shifted(1)) == -normal_form(b)
    assert normal_form(b.shifted(2)) == normal_form(b)
    assert class_of_sum([b, b.shifted(1)]).is_identity()


def test_rho_reference():
    assert rho_reference((1, 0)) == 0
    assert rho_reference((0, 1)) == 0
    assert rho_reference((1, 1)) == F(1, 2)
    assert rho_reference((1, 2)) == 0  # (1+2-1)/2 = 1
    assert rho_reference((-3, 2)) == 0
    with pytest.raises(ValueError):
        rho_reference((2, 4))


# ---------------------------------------------------------------------------
# group structure and the central circle
# ---------------------------------------------------------------------------


def test_group_axioms():
    a = CobordClass(F(1, 3), (1, 2))
    b = CobordClass(F(1, 4), (0, -1))
    assert a + CobordClass.identity() == a
    assert (a - a).is_identity()
    assert a + b == b + a
    assert eta(a + b) == (1, 1)


def test_zeta_is_additive_and_central():
    xs = (F(1, 3), F(2, 5), F(5, 7))
    for x, y in product(xs, xs):
        assert zeta(x) + zeta(y) == zeta(x + y)
    assert zeta(1).is_identity()
    assert eta(zeta(F(1, 3))) == (0, 0)


def test_zeta_well_defined_relations():
    for x, y in product((F(1, 3), F(2, 5), F(5, 7)), repeat=2):
        assert relation_check(
            [Brane((0, 1), x + y), (Brane((0, 1), y), -1)],
            [Brane((0, 1), x), (Brane((0, 1), F(0)), -1)],
        )
        assert relation_check(
            [Brane((1, 0), F(0)), Brane((0, 1), x + y)],
            [Brane((1, 0), -x), Brane((0, 1), y)],
        )


def test_zeta_matches_vertical_difference():
    x = F(2, 7)
    diff = class_of_sum([Brane((0, 1), x), (Brane((0, 1), F(0)), -1)])
    assert diff == zeta(x)


def test_class_of_sum_multiple_matches_repeated_addition():
    rng = random.Random(2718)
    branes = [
        Brane((0, 1), F(1, 3)),
        Brane((1, 2), F(2, 7), 1),
        Brane((-3, 5), F(5, 11)),
        Brane((1, 0), F(0), 3),
    ]
    for _ in range(40):
        terms = [(b, rng.randint(-50, 50)) for b in branes]
        want = CobordClass.identity()
        for b, mult in terms:
            step = normal_form(b) if mult > 0 else -normal_form(b)
            for _ in range(abs(mult)):
                want = want + step
        assert class_of_sum(terms) == want


def test_class_of_sum_huge_multiplier_is_closed_form():
    b = Brane((0, 1), F(1, 3))  # normal form (1/3, (0, 1)); 10**12 = 1 mod 3
    n = 10**12
    assert class_of_sum([(b, n)]) == CobordClass(F(1, 3), (0, n))
    assert class_of_sum([(b, -n)]) == CobordClass(F(2, 3), (0, -n))
    assert class_of_sum([(b, n), (b, -n)]).is_identity()


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------


def test_elementary_surgery():
    c = surgery(CurveClass((1, 0), 0), CurveClass((0, 1), 0))
    assert c == CurveClass((1, 1), F(1, 2))
    # commutes, and iterates to the staircase reference flux
    assert surgery(CurveClass((0, 1), 0), CurveClass((1, 0), 0)) == c
    c12 = surgery(c, CurveClass((0, 1), 0))
    assert c12 == CurveClass((1, 2), F(0))
    assert c12.flux == rho_reference((1, 2))


def test_surgery_errors():
    with pytest.raises(NullClass):
        surgery(CurveClass((1, 1), F(1, 3)), CurveClass((-1, -1), 0))
    with pytest.raises(NonElementary):
        surgery(CurveClass((1, 2), 0), CurveClass((1, 0), 0))
    with pytest.raises(ValueError):
        CurveClass((2, 2), 0)


def test_pl_handle_correction_is_half():
    c0 = CurveClass((1, 0), 0)
    c1 = CurveClass((0, 1), 0)
    assert pl_surgery_flux(c0, c1) == F(1, 2)
    # with nonzero fluxes the correction stays exactly 1/2
    c0 = CurveClass((1, 0), F(1, 3))
    c1 = CurveClass((0, 1), F(1, 7))
    assert pl_surgery_flux(c0, c1) - (c0.flux + c1.flux) == F(1, 2)


def test_pl_oracle_agrees_with_algebraic_surgery():
    rng = random.Random(411)
    slopes = [
        (m, n)
        for m in range(-2, 3)
        for n in range(-2, 3)
        if is_primitive((m, n))
    ]
    fluxes = (F(0), F(1, 5), F(1, 2), F(2, 3))
    checked = 0
    for v0 in slopes:
        for v1 in slopes:
            if abs(det2(v0, v1)) != 1:
                continue
            if (v0[0] + v1[0], v0[1] + v1[1]) == (0, 0):
                continue
            c0 = CurveClass(v0, rng.choice(fluxes))
            c1 = CurveClass(v1, rng.choice(fluxes))
            assert pl_surgery_flux(c0, c1) == surgery(c0, c1).flux, (v0, v1)
            checked += 1
    assert checked >= 100


def test_pl_errors_mirror_surgery_errors():
    with pytest.raises(NullClass):
        pl_surgery_flux(CurveClass((1, 1), 0), CurveClass((-1, -1), 0))
    with pytest.raises(NonElementary):
        pl_surgery_flux(CurveClass((1, 2), 0), CurveClass((1, 0), 0))


# ---------------------------------------------------------------------------
# PL flux primitives
# ---------------------------------------------------------------------------


def test_polyline_flux_straight_line():
    p = (F(1, 3), F(0))
    v = (0, 1)
    straight = pl_polyline_flux([p, (p[0], p[1] + 1)], v)
    b = Brane((0, 1), F(1, 3))
    assert straight == flux_of(b)


def test_polyline_flux_invariances():
    v = (1, 1)
    base = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1))]
    val = pl_polyline_flux(base, v)
    # subdivision
    subdivided = [
        (F(0), F(0)), (F(1, 2), F(0)), (F(1), F(0)),
        (F(1), F(1, 2)), (F(1), F(1)),
    ]
    assert pl_polyline_flux(subdivided, v) == val
    # lattice translation
    moved = [(a + 2, b - 1) for a, b in base]
    assert pl_polyline_flux(moved, v) == val
    # change of cut point along the same closed curve
    recut = [(F(1), F(0)), (F(1), F(1)), (F(2), F(1))]
    assert pl_polyline_flux(recut, v) == val


def test_polyline_flux_validation():
    with pytest.raises(ValueError):
        pl_polyline_flux([(F(0), F(0))], (1, 0))
    with pytest.raises(ValueError):
        pl_polyline_flux([(F(0), F(0)), (F(1), F(1))], (1, 0))


# ---------------------------------------------------------------------------
# Farey decomposition independence
# ---------------------------------------------------------------------------


def test_farey_splits_structure():
    for a, b in farey_splits((2, 3)):
        assert (a[0] + b[0], a[1] + b[1]) == (2, 3)
        assert abs(det2(a, b)) == 1
        assert is_primitive(a) and is_primitive(b)
    assert farey_splits((1, 0)) == []


def test_rho_is_decomposition_independent():
    cache = {}
    for m in range(-6, 7):
        for n in range(-6, 7):
            if not is_primitive((m, n)):
                continue
            vals = rho_values_by_recursion((m, n), cache)
            assert vals == frozenset({rho_reference((m, n))}), (m, n)


# ---------------------------------------------------------------------------
# consistency of curve_of with the brane picture
# ---------------------------------------------------------------------------


def test_curve_of_and_surgered_normal_form():
    b0 = Brane((1, 0), F(1, 5))
    b1 = Brane((0, 1), F(1, 3))
    surgered = surgery(curve_of(b0), curve_of(b1))
    # the class of the surgered curve is the sum of the brane classes
    total = normal_form(b0) + normal_form(b1)
    assert surgered.v == total.hom
    assert (surgered.flux - rho_reference(surgered.v)) % 1 == total.zeta_part
