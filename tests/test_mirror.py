"""The object-level dictionary, its K-class inverse, and the
theta/Floer vanishing bridge."""

import cmath
from fractions import Fraction as F

import pytest

import torushms.floer
import torushms.mirror
from torushms.errors import DegenerateConfiguration, UnanchoredSlope
from torushms.cobord import eta, normal_form
from torushms.floer import cf
from torushms.mirror import (
    MirrorPair,
    mirror_of_sheaf,
    theta_floer_equiv,
    theta_sharp,
    zeta_injectivity_witness,
)
from torushms.novikov import NovikovSeries
from torushms.sheafk import Bundle, Skyscraper, k0_class, o_of_n_p0, ses_divisor
from torushms.tate import (
    SectionCoeffs,
    TatePoint,
    conjugate_zero,
    section_through,
)
from torushms.torus import Brane, LocalSystem


def phase(t):
    return cmath.exp(2j * cmath.pi * float(t))


# ---------------------------------------------------------------------------
# dictionary rows
# ---------------------------------------------------------------------------


def test_line_bundle_rows():
    for n in range(-3, 4):
        pair = mirror_of_sheaf(o_of_n_p0(n))
        assert pair.anchored
        assert pair.brane == Brane((1, -n))


def test_skyscraper_rows():
    pt = TatePoint(F(1, 3), phase(F(1, 7)))
    for h in (1, 2, 3):
        pair = mirror_of_sheaf(Skyscraper(pt, h))
        assert pair.anchored
        assert pair.brane.slope == (0, -1)
        assert pair.brane.shift == F(1, 3)
        assert pair.brane.rank == h
        assert pair.brane.local_system.blocks[0][1] == h


def test_shift_carries_to_grading():
    pt = TatePoint(F(2, 5), 1)
    pair = mirror_of_sheaf(Skyscraper(pt, 1, shift=1))
    assert pair.brane.grading_offset == 1
    pair = mirror_of_sheaf(o_of_n_p0(2).shifted(3))
    assert pair.brane.grading_offset == 3


def test_unanchored_bundles_are_flagged():
    pair = mirror_of_sheaf(Bundle(2, 1, TatePoint.zero()))
    assert not pair.anchored and pair.note
    assert pair.brane.slope == (2, -1)
    pair = mirror_of_sheaf(Bundle(2, 4, TatePoint.zero()))
    assert not pair.anchored
    assert pair.brane.slope == (1, -2)
    assert pair.brane.rank == 2
    # rank one, but determinant point off the anchored family
    pair = mirror_of_sheaf(Bundle(1, 2, TatePoint(F(1, 3), 1)))
    assert not pair.anchored


# ---------------------------------------------------------------------------
# theta_sharp inverts the dictionary on K-classes
# ---------------------------------------------------------------------------


def test_round_trip_on_anchored_families():
    sheaves = [o_of_n_p0(n) for n in range(-3, 4)]
    pt = TatePoint(F(1, 3), phase(F(1, 7)))
    sheaves += [Skyscraper(pt, h) for h in (1, 2, 3)]
    sheaves += [Skyscraper(pt, 2, shift=1), o_of_n_p0(1).shifted(1)]
    for s in sheaves:
        pair = mirror_of_sheaf(s)
        assert pair.anchored
        assert theta_sharp(pair.brane).approx_eq(k0_class(s), 1e-9), s


def test_sharp_of_formal_sums():
    b1 = Brane((1, -1))
    b2 = Brane((0, -1), F(1, 3))
    total = theta_sharp([b1, (b2, 2), (b1, -1)])
    assert total.approx_eq(
        theta_sharp(b2) + theta_sharp(b2), 1e-12
    )


def test_orientation_reversal_identity():
    m = phase(F(1, 5))
    x = F(1, 3)
    forward = Brane((0, -1), x,
                    local_system=LocalSystem.from_eigenvalue(
                        NovikovSeries.constant(m)))
    backward = Brane((0, 1), x,
                     local_system=LocalSystem.from_eigenvalue(
                         NovikovSeries.constant(1 / m)))
    assert theta_sharp(backward).approx_eq(
        theta_sharp(forward.shifted(1)), 1e-12
    )


def test_unanchored_slopes_raise():
    with pytest.raises(UnanchoredSlope):
        theta_sharp(Brane((1, 1), F(1, 3)))
    with pytest.raises(UnanchoredSlope):
        theta_sharp(Brane((1, 0),
                          local_system=LocalSystem.from_eigenvalue(
                              NovikovSeries.constant(2.0))))
    with pytest.raises(UnanchoredSlope):
        theta_sharp(Brane((2, 1)))
    with pytest.raises(UnanchoredSlope):
        theta_sharp(Brane((-1, 0)))


def test_ses_additivity_across_the_mirror():
    tri = ses_divisor(1, TatePoint.two_torsion(), TatePoint.two_torsion())
    branes = {}
    for name, part in (("sub", tri.sub), ("total", tri.total),
                       ("quot", tri.quot)):
        ((sheaf, mult),) = part.terms
        assert mult == 1
        pair = mirror_of_sheaf(sheaf)
        assert pair.anchored
        branes[name] = pair.brane
    lhs = theta_sharp(branes["total"])
    rhs = theta_sharp([branes["sub"], branes["quot"]])
    assert lhs.approx_eq(rhs, 1e-9)


def test_compatible_with_cobordism_classes():
    """(rank, degree) of the K-class is a fixed linear function of the
    cobordism homology class: (h0, -h1)."""
    branes = [
        Brane((1, -2)),
        Brane((1, 3)).shifted(1),
        Brane((0, -1), F(1, 3)),
        Brane((0, -1), F(2, 5)).shifted(1),
        Brane((0, 1), F(1, 7)),
    ]
    for b in branes:
        cls = theta_sharp(b)
        h0, h1 = eta(normal_form(b))
        assert (cls.rk, cls.deg) == (h0, -h1), b


# ---------------------------------------------------------------------------
# the vanishing bridge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m_unit", [1, None])
@pytest.mark.parametrize("x", [F(1, 4), F(1, 3), F(2, 5)])
def test_bridge_agrees_on_vanishing_sections(x, m_unit):
    if m_unit is None:
        m_unit = phase(F(1, 7))
    cutoff = F(6)
    sigma = section_through(conjugate_zero(TatePoint(x, m_unit)), cutoff)
    assert theta_floer_equiv(x, m_unit, sigma, cutoff) == (True, True)


@pytest.mark.parametrize("x", [F(1, 4), F(1, 3)])
def test_bridge_agrees_on_nonvanishing_sections(x):
    cutoff = F(6)
    sigma = SectionCoeffs(NovikovSeries.one(), NovikovSeries.zero())
    assert theta_floer_equiv(x, 1, sigma, cutoff) == (False, False)


def test_bridge_builds_each_space_once(monkeypatch):
    """CF of the horizontal pair, of the vertical-to-(1,2) pair and of
    the mu2 output; mu2 takes its inputs' spaces as they are."""
    seen = []

    def counting_cf(l0, l1):
        seen.append((l0, l1))
        return cf(l0, l1)

    monkeypatch.setattr(torushms.floer, "cf", counting_cf)
    monkeypatch.setattr(torushms.mirror, "cf", counting_cf)
    cutoff = F(6)
    sigma = section_through(conjugate_zero(TatePoint(F(1, 3), 1)), cutoff)
    assert theta_floer_equiv(F(1, 3), 1, sigma, cutoff) == (True, True)
    assert len(seen) == len(set(seen)) == 3


def test_bridge_rejects_degenerate_shifts():
    sigma = SectionCoeffs(NovikovSeries.one(), NovikovSeries.zero())
    for x in (F(0), F(1, 2), F(3, 2)):
        with pytest.raises(DegenerateConfiguration):
            theta_floer_equiv(x, 1, sigma, F(6))


# ---------------------------------------------------------------------------
# injectivity witness
# ---------------------------------------------------------------------------


def test_witness_values():
    w = zeta_injectivity_witness(F(1, 3))
    assert (w.rk, w.deg) == (0, 0)
    assert not w.is_zero()
    assert w.pt.approx_eq(TatePoint(F(2, 3), -1))
    assert zeta_injectivity_witness(0).is_zero()
    assert zeta_injectivity_witness(1).is_zero()


def test_mirror_pair_shape():
    pair = mirror_of_sheaf(o_of_n_p0(0))
    assert isinstance(pair, MirrorPair)
    assert pair.sheaf == o_of_n_p0(0)
    assert pair.note == ""
