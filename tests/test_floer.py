"""Triangle products of straight branes on the square torus.

The main fixture is the three-brane configuration

    Y0 = L(1,2;0),   Y1 = L(1,0;0),   Y2 = L(0,-1;x) with system E,

whose product CF(Y0,Y1) x CF(Y2,Y0) -> CF(Y2,Y1) is a single-generator
series with a closed-form lattice sum; that sum is recomputed here from
scratch as an oracle.  A slower geometric enumeration (mu2_bruteforce)
provides a second, independent oracle for generic chains.
"""

import cmath
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from torushms.cli import _triangle_json
from torushms.errors import (
    DegenerateConfiguration,
    MarkerCollision,
    NonTransverse,
)
import torushms.floer as floer
import torushms.torus as torus
from torushms.floer import (
    CFSpace,
    FloerElement,
    assoc_defect,
    cf,
    cone_criterion_mu2_checks,
    generator_element,
    mu1,
    mu2,
    mu2_bruteforce,
    mu2_triangles,
    vanishes_truncated,
    zero_element,
)
from torushms.novikov import NovikovSeries, _RunningSum
from torushms.tate import TatePoint, conjugate_zero, section_through
from torushms.torus import Brane, LocalSystem

from shared import at_zero, colliding

C = NovikovSeries.constant


def phase(turns):
    return cmath.exp(2j * cmath.pi * float(turns))


# ---------------------------------------------------------------------------
# configuration helpers
# ---------------------------------------------------------------------------


def step1_branes(x, system=None):
    y0 = Brane((1, 2))
    y1 = Brane((1, 0))
    y2 = Brane(
        (0, -1), shift=x,
        local_system=system if system is not None else LocalSystem.trivial(),
    )
    return y0, y1, y2


def step1_inputs(x, s0, s1, system=None):
    """c1 in CF(Y0,Y1) weighted (s0, s1); c3 the generator of CF(Y2,Y0)."""
    y0, y1, y2 = step1_branes(x, system)
    c1 = FloerElement(
        cf(y0, y1),
        {(F(0), F(0)): ((C(s0),),), (F(1, 2), F(0)): ((C(s1),),)},
    )
    space = cf(y2, y0)
    (pt,) = space.coords()
    rows, cols = space.hom_shape
    matrix = tuple(
        tuple(C(1 if (i, j) == (0, 0) else 0) for j in range(cols))
        for i in range(rows)
    )
    c3 = FloerElement(space, {pt: matrix})
    return y0, y1, y2, c1, c3


def closed_form_weights(x, m_const, s0, s1, cutoff):
    """Direct lattice sum for the single-output-generator product.

    Triangles are indexed by the lift n of the corner on the horizontal
    brane; areas are (n-x)^2 resp. (n+1/2-x)^2 and the holonomy factor
    is a principal-branch power of the (constant) monodromy."""
    m_const = complex(m_const)
    acc = {}
    for n in range(-30, 31):
        e = (F(n) - x) ** 2
        if e < cutoff:
            acc[e] = acc.get(e, 0) - s0 * m_const ** float(2 * x - 2 * n)
        e = (F(n) + F(1, 2) - x) ** 2
        if e < cutoff:
            acc[e] = acc.get(e, 0) + s1 * m_const ** float(2 * x - (2 * n + 1))
    return acc


def exponents(series):
    return {e for e, _ in series.terms}


def assert_elements_close(e1, e2, tol):
    assert e1.support() == e2.support()
    for (c1, m1), (c2, m2) in zip(e1.components, e2.components):
        for row1, row2 in zip(m1, m2):
            for x1, x2 in zip(row1, row2):
                assert exponents(x1) == exponents(x2), (c1, c2)
                assert (x1 - x2).max_abs_coeff() <= tol


# ---------------------------------------------------------------------------
# closed form and oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x, m_turns",
    [(F(1, 4), F(1, 3)), (F(1, 3), F(1, 7)), (F(2, 5), 0)],
)
def test_product_matches_lattice_closed_form(x, m_turns):
    s0, s1 = 2 - 1j, -0.5 + 3j
    m_const = phase(m_turns)
    cutoff = F(6)
    system = LocalSystem.from_eigenvalue(C(m_const))
    _, _, _, c1, c3 = step1_inputs(x, s0, s1, system)
    out = mu2(c1, c3, cutoff)
    assert out.support() == ((x % 1, F(0)),)
    series = out.component((x % 1, F(0)))[0][0]
    expected = closed_form_weights(x, m_const, s0, s1, cutoff)
    assert exponents(series) == set(expected)
    for e, coeff in series.terms:
        assert abs(coeff - expected[e]) <= 1e-9, e


def test_product_against_bruteforce_enumeration():
    cutoff = F(4)
    # single-generator chain with a phase system on the first brane
    l0 = Brane((1, 1), F(1, 3),
               local_system=LocalSystem.from_eigenvalue(C(phase(F(1, 5)))))
    l1 = Brane((1, 0), F(1, 7))
    l2 = Brane((0, 1), F(2, 5))
    phi1 = FloerElement(
        cf(l0, l1), {c: ((C(1.5 - 0.5j),),) for c in cf(l0, l1).coords()}
    )
    phi2 = FloerElement(
        cf(l1, l2), {c: ((C(-2j),),) for c in cf(l1, l2).coords()}
    )
    fast = mu2(phi2, phi1, cutoff)
    slow = mu2_bruteforce(phi2, phi1, cutoff)
    assert_elements_close(fast, slow, 1e-9)

    # the two-point step-1 configuration
    _, _, _, c1, c3 = step1_inputs(F(1, 4), 1 + 1j, 0.25, None)
    assert_elements_close(
        mu2(c1, c3, cutoff), mu2_bruteforce(c1, c3, cutoff), 1e-9
    )


def test_triangle_listing_consistent():
    cutoff = F(5)
    _, _, y2, c1, c3 = step1_inputs(F(1, 4), 1, 1)
    out, tris = mu2_triangles(c1, c3, cutoff)
    assert_elements_close(out, mu2(c1, c3, cutoff), 0.0)
    assert len(tris) > 0
    out_coords = {
        tuple(map(str, c)) for c in cf(y2, Brane((1, 0))).coords()
    }
    for tri in map(_triangle_json, tris):  # as `mu2 --triangles` lists it
        area = F(tri["area"]["num"], tri["area"]["den"])
        assert 0 < area < cutoff
        assert tri["sign"] in (-1, 1)
        assert tuple(tri["output"]) in out_coords


@settings(max_examples=200, deadline=None)
@given(st.lists(colliding, min_size=1, max_size=6),
       st.sampled_from([F(1), F(5, 2), F(4)]))
@example(at_zero(2e-12, -1.5e-12, 2e-12), F(1))  # dropped below the tol
@example(at_zero(2.1e-12, -1.1e-12, 2e-12), F(1))  # dropped at the tol
def test_entry_sum_matches_repeated_series_addition(parts, cutoff):
    """Each mu2 output entry, a running sum started from the zero series
    at the cutoff, against the NovikovSeries sums it replaces."""
    total = parts[0]
    for x in parts[1:]:
        total = total + x
    acc = _RunningSum(NovikovSeries.zero(cutoff))
    for x in parts:
        acc.add(x)
    got, want = acc.series(), total.truncated(cutoff)
    assert got == want
    assert repr(got) == repr(want)  # signed zeros too


# ---------------------------------------------------------------------------
# structural behaviour of mu2
# ---------------------------------------------------------------------------


def test_orientation_rules_out_all_triangles():
    # d01, d02, d12 all positive: no positively-oriented corner cycle
    l0, l1, l2 = Brane((1, 0)), Brane((0, 1)), Brane((-1, 1))
    phi1 = generator_element(l0, l1, cf(l0, l1).coords()[0])
    phi2 = generator_element(l1, l2, cf(l1, l2).coords()[0])
    assert mu2(phi2, phi1, F(4)).is_zero()


def test_degenerate_triple_point_raises():
    _, _, _, c1, c3 = step1_inputs(F(0), 1, 1)
    with pytest.raises(DegenerateConfiguration):
        mu2(c1, c3, F(4))


def test_non_composable_inputs_raise():
    l0, l1 = Brane((1, 2)), Brane((1, 0))
    other = Brane((1, 0), F(1, 3))
    phi1 = generator_element(l0, l1, cf(l0, l1).coords()[0])
    phi2 = generator_element(other, Brane((0, 1)),
                             cf(other, Brane((0, 1))).coords()[0])
    with pytest.raises(ValueError):
        mu2(phi2, phi1, F(4))


def test_parallel_outer_branes_raise():
    l0, l1 = Brane((1, 0)), Brane((0, 1), F(1, 3))
    l2 = Brane((1, 0), F(1, 2))
    phi1 = generator_element(l0, l1, cf(l0, l1).coords()[0])
    phi2 = generator_element(l1, l2, cf(l1, l2).coords()[0])
    with pytest.raises(NonTransverse):
        mu2(phi2, phi1, F(4))


def test_degree_is_additive():
    y0, y1, y2, c1, c3 = step1_inputs(F(1, 4), 1, 1)
    out = mu2(c1, c3, F(4))
    assert out.degree == c1.degree + c3.degree


def test_mu1_vanishes_for_straight_branes():
    l0, l1 = Brane((1, 2)), Brane((1, 0), F(1, 5))
    a = generator_element(l0, l1, cf(l0, l1).coords()[0])
    assert mu1(a).is_zero()
    assert zero_element(l0, l1).is_zero()


def test_mu1_refuses_a_space_of_parallel_branes():
    """`cf` refuses a parallel pair; a space built by hand reaches mu1."""
    l0, l1 = Brane((1, 2)), Brane((-1, -2), F(1, 3))
    with pytest.raises(NonTransverse):
        mu1(FloerElement(CFSpace(l0, l1, 1, ()), {}))


def test_bilinearity():
    cutoff = F(4)
    _, _, _, c1, c3 = step1_inputs(F(1, 3), 1 - 2j, 0.5j)
    z = 0.75 - 1.25j
    lhs = mu2(c1 * z, c3, cutoff)
    rhs = mu2(c1, c3, cutoff) * z
    assert_elements_close(lhs, rhs, 1e-12)
    _, _, _, d1, _ = step1_inputs(F(1, 3), -1j, 2)
    both = mu2(c1 + d1, c3, cutoff)
    split = mu2(c1, c3, cutoff) + mu2(d1, c3, cutoff)
    assert_elements_close(both, split, 1e-12)


# ---------------------------------------------------------------------------
# associativity
# ---------------------------------------------------------------------------


def _random_assoc_chain(rng):
    """Chain L0..L3 with random small shifts, rejecting configurations
    with triple intersections (or marker hits)."""
    slopes = [(1, 2), (1, 0), (0, -1), (1, 1)]
    while True:
        shifts = [
            F(rng.randrange(0, d), d)
            for d in (rng.choice([5, 7, 11, 12]) for _ in range(4))
        ]
        branes = [Brane(v, s) for v, s in zip(slopes, shifts)]
        try:
            elems = []
            for b0, b1 in zip(branes, branes[1:]):
                space = cf(b0, b1)
                weights = {
                    c: ((C(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),),)
                    for c in space.coords()
                }
                elems.append(FloerElement(space, weights))
            a, b, c = elems
            defect = assoc_defect(a, b, c, F(6))
        except (DegenerateConfiguration, MarkerCollision):
            continue
        return defect


def test_assoc_defect_small_random():
    rng = random.Random(20240817)
    for _ in range(3):
        assert _random_assoc_chain(rng) <= 1e-8


def test_assoc_defect_with_jordan_block():
    system = LocalSystem.from_eigenvalue(C(phase(F(1, 3))), 2)
    l0 = Brane((1, 2))
    l1 = Brane((1, 0))
    l2 = Brane((0, -1), F(1, 4), local_system=system)
    l3 = Brane((1, 1), F(1, 5))
    a = FloerElement(
        cf(l0, l1), {c: ((C(1),),) for c in cf(l0, l1).coords()}
    )
    b = FloerElement(
        cf(l1, l2),
        {c: ((C(1),), (C(1j),)) for c in cf(l1, l2).coords()},
    )
    c = FloerElement(
        cf(l2, l3), {p: ((C(1), C(0.5)),) for p in cf(l2, l3).coords()}
    )
    assert assoc_defect(a, b, c, F(6)) <= 1e-12


ODD_CHAINS = [
    (Brane((0, -1), F(3, 5)), Brane((1, 2), F(3, 7)),
     Brane((2, 1), F(9, 11)), Brane((1, -1), F(7, 12))),
    (Brane((2, 1), F(3, 5)), Brane((1, 0), F(1, 7), 1),
     Brane((-1, 2), F(4, 11)), Brane((0, 1), F(5, 6))),
    (Brane((1, 1), F(1, 5)), Brane((2, 1), F(0), 1),
     Brane((1, -1), F(7, 11)), Brane((0, 1), F(11, 12))),
]


@pytest.mark.parametrize("branes", ODD_CHAINS)
def test_graded_associativity_for_odd_degree(branes):
    """mu2(mu2(c,b),a) = (-1)^deg(a) mu2(c,mu2(b,a)): for odd deg(a) the
    two bracketings are exact negatives, and assoc_defect, the unsigned
    difference, measures twice their size."""
    elems = []
    for k, (b0, b1) in enumerate(zip(branes, branes[1:])):
        space = cf(b0, b1)
        elems.append(FloerElement(space, {
            c: ((C(complex(1 + j, 0.5 * k - j / 3)),),)
            for j, c in enumerate(space.coords())
        }))
    a, b, c = elems
    assert a.degree % 2 == 1
    cutoff = F(6)
    lhs = mu2(mu2(c, b, cutoff), a, cutoff)
    rhs = mu2(c, mu2(b, a, cutoff), cutoff)
    size = lhs.max_abs_coeff(below=cutoff - 1)
    assert size > 1.0  # the identity is not vacuous
    graded = lhs - rhs * (-1) ** a.degree
    assert graded.max_abs_coeff(below=cutoff - 1) <= 1e-8
    unsigned = (lhs - rhs).max_abs_coeff(below=cutoff - 1)
    assert assoc_defect(a, b, c, cutoff) == unsigned
    assert unsigned == pytest.approx(2 * size, rel=1e-9)


# ---------------------------------------------------------------------------
# gauge and translation invariance
# ---------------------------------------------------------------------------


def test_translation_equivariance():
    """Translating every brane by (1/2, 1/2) relabels the generators and
    leaves every coefficient series unchanged."""
    x, cutoff = F(1, 3), F(5)
    system = LocalSystem.from_eigenvalue(C(phase(F(1, 5))))
    _, _, _, c1, c3 = step1_inputs(x, 2 - 1j, -0.5 + 3j, system)
    out = mu2(c1, c3, cutoff)

    # translated branes; the Pin markers must follow the translation,
    # so their arc parameters shift by the arc coordinate of the move
    w = (F(1, 2), F(1, 2))
    y0t = Brane((1, 2), F(1, 4), marker=F(47, 64))  # y = 2x + 1/2 shifted
    y1t = Brane((1, 0), F(1, 2), marker=F(63, 64))
    y2t = Brane((0, -1), x + F(1, 2), marker=F(63, 64), local_system=system)

    def translate(p):
        return ((p[0] + w[0]) % 1, (p[1] + w[1]) % 1)

    c1t = FloerElement(
        cf(y0t, y1t),
        {translate(c): m for c, m in c1.components},
    )
    c3t = FloerElement(
        cf(y2t, y0t),
        {translate(c): m for c, m in c3.components},
    )
    out_t = mu2(c1t, c3t, cutoff)
    assert out_t.support() == tuple(
        sorted(translate(c) for c in out.support())
    )
    for coords, m in out.components:
        mt = out_t.component(translate(coords))
        for row, row_t in zip(m, mt):
            for a, b in zip(row, row_t):
                assert exponents(a) == exponents(b)
                assert (a - b).max_abs_coeff() == 0.0


# ---------------------------------------------------------------------------
# truncated vanishing and the cone criterion
# ---------------------------------------------------------------------------


def test_vanishes_truncated_windows():
    l0, l1 = Brane((1, 2)), Brane((1, 0))
    space = cf(l0, l1)

    def elem(series):
        return FloerElement(space, {(F(0), F(0)): ((series,),)})

    assert vanishes_truncated(elem(NovikovSeries.q_power(F(11, 2))), 6)
    assert not vanishes_truncated(elem(NovikovSeries.q_power(F(4))), 6)
    # a series with its own (smaller) cutoff shrinks the window
    short = NovikovSeries(((F(5, 2), 1.0),), cutoff=F(3))
    assert vanishes_truncated(elem(short), 6)
    deep = NovikovSeries(((F(19, 10), 1.0),), cutoff=F(3))
    assert not vanishes_truncated(elem(deep), 6)
    assert vanishes_truncated(zero_element(l0, l1), 6)


def test_vanishing_section_weights_kill_the_product():
    cutoff = F(6)
    for x in (F(1, 4), F(1, 3)):
        q_pt = conjugate_zero(TatePoint(x, 1))
        sig = section_through(q_pt, cutoff)
        y0, y1, y2 = step1_branes(x)
        c1 = FloerElement(
            cf(y0, y1),
            {(F(0), F(0)): ((sig.sigma0,),),
             (F(1, 2), F(0)): ((sig.sigma1,),)},
        )
        (pt,) = cf(y2, y0).coords()
        c3 = generator_element(y2, y0, pt)
        assert vanishes_truncated(mu2(c1, c3, cutoff), cutoff)
        # a generic section does not vanish there
        c1_bad = FloerElement(cf(y0, y1), {(F(0), F(0)): ((C(1),),)})
        assert not vanishes_truncated(mu2(c1_bad, c3, cutoff), cutoff)


def _cone_config(x, second_scale, cutoff):
    """Triangle test data for Y0 -> Y1 -> Y2 -> Y0[1] where Y2 is the
    direct sum of vertical branes at the two zeros of the section.

    A section through q also vanishes at the conjugate point, so the
    summands sit at x and -x; `second_scale` rescales c2 on the second
    summand so the two summand products cancel."""
    y0, y1 = Brane((1, 2)), Brane((1, 0))
    q1 = TatePoint((-x) % 1, 1)
    sig = section_through(q1, cutoff)
    c1 = FloerElement(
        cf(y0, y1),
        {(F(0), F(0)): ((sig.sigma0,),),
         (F(1, 2), F(0)): ((sig.sigma1,),)},
    )
    c2s, c3s = [], []
    for z, scale in ((TatePoint(x, 1), 1), (q1, second_scale)):
        y2 = Brane((0, -1), z.x)
        c2s.append(
            generator_element(y1, y2, cf(y1, y2).coords()[0], scale=scale)
        )
        c3s.append(generator_element(y2, y0, cf(y2, y0).coords()[0]))
    return c1, c2s, c3s


@pytest.mark.parametrize(
    # the relative scalar between the summand products is configuration
    # dependent; the cancelling scale is its negative
    "x, scale", [(F(1, 4), 1), (F(1, 3), -1), (F(2, 5), -1)]
)
def test_cone_criterion_both_products_vanish(x, scale):
    cutoff = F(6)
    c1, c2s, c3s = _cone_config(x, scale, cutoff)
    assert cone_criterion_mu2_checks(c1, c2s, c3s, cutoff) == (True, True)


def test_cone_criterion_detects_wrong_scale_and_section():
    cutoff = F(6)
    x = F(1, 4)
    c1, c2s, c3s = _cone_config(x, -1, cutoff)  # wrong relative scale
    first, second = cone_criterion_mu2_checks(c1, c2s, c3s, cutoff)
    assert not first and second
    c1_good, c2s, c3s = _cone_config(x, 1, cutoff)
    c1_bad = FloerElement(c1_good.space, {(F(0), F(0)): ((C(1),),)})
    first, second = cone_criterion_mu2_checks(c1_bad, c2s, c3s, cutoff)
    assert first and not second
    with pytest.raises(ValueError):
        cone_criterion_mu2_checks(c1_good, c2s[:1], c3s, cutoff)
    # no summands: no first product to test, rather than an AttributeError
    with pytest.raises(ValueError, match="at least one summand"):
        cone_criterion_mu2_checks(c1_good, [], [], cutoff)


# ---------------------------------------------------------------------------
# element container
# ---------------------------------------------------------------------------


def test_element_validation_and_algebra():
    l0, l1 = Brane((1, 2)), Brane((1, 0))
    space = cf(l0, l1)
    with pytest.raises(ValueError):
        FloerElement(space, {(F(1, 3), F(0)): ((C(1),),)})
    with pytest.raises(ValueError):
        FloerElement(space, {(F(0), F(0)): ((C(1), C(2)),)})

    a = FloerElement(space, {(F(0), F(0)): ((C(2),),)})
    b = FloerElement(space, {(F(1, 2), F(0)): ((C(1j),),)})
    s = a + b
    assert s.support() == ((F(0), F(0)), (F(1, 2), F(0)))
    assert (a - a).is_zero()
    assert (a * 0.5).component((F(0), F(0)))[0][0].terms[0][1] == 1.0
    assert s.max_abs_coeff() == 2.0
    assert s.component((F(3, 2), -1)) == b.component((F(1, 2), F(0)))  # read mod 1
    assert a.component((F(1, 2), F(0))) is None  # a generator outside a's support
    assert a.component((F(1, 2), F(1, 2))) is None  # on the lattice, no generator
    assert a.component((F(1, 3), F(0))) is None  # off the lattice (1/2)Z^2

    other = cf(Brane((1, 2)), Brane((1, 0), F(1, 3)))
    with pytest.raises(ValueError):
        a + FloerElement(other, {})


@pytest.mark.parametrize(
    "components, message",
    [
        ([((0, 0), ((C(1),),)), ((1, 0), ((C(2),),))],
         r"generator \(Fraction\(0, 1\), Fraction\(0, 1\)\) is given twice"),
        ([((0, 0), ((C(1),),)), ((0, 0), ((C(2),),))], "given twice"),
        ({(0, 0): ()}, r"shape \(0, 0\), expected \(1, 1\)"),
        ({(F(4, 3), 0): ((C(1),),)},
         r"^\(Fraction\(1, 3\), Fraction\(0, 1\)\) is not an intersection point"),
        ({(F(1, 2), F(1, 2)): ((C(1),),)}, "is not an intersection point of the pair"),
    ],
    ids=["twice-mod-one", "twice-same-key", "empty-matrix", "off-the-lattice",
         "on-the-lattice-not-a-point"],
)
def test_element_refuses_malformed_components(components, message):
    space = cf(Brane((1, 2)), Brane((1, 0)))
    with pytest.raises(ValueError, match=message):
        FloerElement(space, components)


def test_element_refuses_a_ragged_component():
    rank2 = Brane((1, 0), local_system=LocalSystem.from_eigenvalue(1, 2))
    space = cf(Brane((1, 2)), rank2)  # components are 2 x 1
    with pytest.raises(ValueError, match=r"lengths \[1, 2\], expected 1 each"):
        FloerElement(space, {(0, 0): ((C(1),), (C(2), C(3)))})


def test_generator_of_higher_rank_is_the_scaled_e00_unit():
    system = LocalSystem.from_eigenvalue(C(1), 2)
    l0 = Brane((0, -1), F(1, 4), local_system=system)
    l1 = Brane((1, 2))
    pt = cf(l0, l1).coords()[0]
    unit = ((NovikovSeries.constant(3j), NovikovSeries.zero()),)  # 1 x 2
    assert generator_element(l0, l1, pt, scale=3j).components == ((pt, unit),)


def test_space_shapes():
    l0, l1 = Brane((1, 2)), Brane((1, 0))
    space = cf(l0, l1)
    assert space.hom_shape == (1, 1)
    assert len(space.coords()) == 2
    rank2 = Brane((0, -1), F(1, 4),
                  local_system=LocalSystem.from_eigenvalue(C(1), 2))
    assert cf(rank2, l0).hom_shape == (1, 2)


# ---------------------------------------------------------------------------
# the work count the CLI budget reads
# ---------------------------------------------------------------------------

#: the primitive slopes with entries in [-2, 2], one of each +-pair
_CLI_SLOPES = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)]


@st.composite
def _cli_branes(draw, count):
    """Branes as the CLI builds them, on pairwise non-parallel slopes: one
    Jordan block of rank 1 to 6 with a constant phase, the trivial system
    at rank 1 and phase 0."""
    slopes = draw(st.lists(st.sampled_from(_CLI_SLOPES), min_size=count,
                           max_size=count, unique=True))
    branes = []
    for m, n in slopes:
        sign = draw(st.sampled_from([1, -1]))
        rank = draw(st.integers(1, 6))
        turns = draw(st.sampled_from([F(0), F(1, 7), F(2, 5), F(-3, 11)]))
        system = (LocalSystem.trivial() if (rank, turns) == (1, 0)
                  else LocalSystem.from_eigenvalue(phase(turns), rank))
        shift = draw(st.sampled_from([F(0), F(1, 3), F(1, 4), F(2, 5), F(1, 7),
                                      F(1, 10**30 + 57)]))
        branes.append(Brane((sign * m, sign * n), shift, local_system=system))
    return branes


def _live(x):
    return bool(x._keys) or x.cutoff is not None


class _Formed:
    """What the library forms, per `_sum` call (a product) and per
    triangle: the transport diagonals, the products of `torus._scalar_mul`
    or of `mat_mul` (those with two live factors), the squared bit lengths
    of the transports' binomials, and whether any entry dropped (a None
    from `torus._kept`, a dead transport entry)."""

    def __init__(self, mp):
        self.products = []  # per product: (phi2, phi1, cutoff, triangles)
        self.dropped = False
        for module, name, wrap in (
            (floer, "_sum", self._sum), (floer, "_arc_transport", self._transport),
            (torus, "_scalar_mul", self._scalar_mul), (floer, "mat_mul", self._mat_mul),
            (torus, "_kept", self._kept), (torus, "_binomials", self._binomials),
        ):
            mp.setattr(module, name, wrap(getattr(module, name)))

    def _count(self, steps):
        triangle = self.products[-1][3][-1]
        triangle["steps"] += steps

    def _sum(self, f):
        def sum_(phi2, phi1, cutoff, listing=None):
            self.products.append((phi2, phi1, cutoff, []))
            self.makers = 0
            return f(phi2, phi1, cutoff, listing)
        return sum_

    def _transport(self, f):
        def make(system, scalar, path):
            first, self.makers = self.makers == 0, self.makers + 1
            t = f(system, scalar, path)
            blocks = [(sum(s for _, s in system.blocks[:i]), s)
                      for i, (_, s) in enumerate(system.blocks)]

            def transport(num, den):
                if first:
                    self.dropped = False
                    self.products[-1][3].append({"steps": 0, "squares": 0, "path": path})
                out = t(num, den)
                if path == "scalar":
                    dead = None in out[0]
                elif path == "matrix":
                    dead = not all(_live(out[lo][lo + d]) for lo, s in blocks
                                   for d in range(s))
                else:
                    dead = out is None
                self.dropped |= dead
                self._count(system.rank)
                self.products[-1][3][-1]["dropped"] = self.dropped
                return out
            return transport
        return make

    def _scalar_mul(self, f):
        def mul(col, rows):
            self._count(sum(len(col(k) or ()) * len(rows[k]) for k in rows))
            out = f(col, rows)
            self.products[-1][3][-1]["dropped"] = self.dropped
            return out
        return mul

    def _mat_mul(self, f):
        def mul(a, b):
            self._count(sum(_live(x) and _live(y) for row in a for col in zip(*b)
                            for x, y in zip(row, col)))
            return f(a, b)
        return mul

    def _binomials(self, f):
        def binomials(p, q):
            for num, den in f(p, q):
                bits = max(abs(num).bit_length(), abs(den).bit_length())
                self.products[-1][3][-1]["squares"] += bits * bits
                yield num, den
        return binomials

    def _kept(self, f):
        def kept(c):
            out = f(c)
            self.dropped |= out is None
            return out
        return kept


def _oriented_chain(*ranks):
    """The chain of the CLI's assoc-oriented case, every product oriented."""
    return [Brane(v, x, local_system=LocalSystem.from_eigenvalue(phase(F(1, 7)), r))
            for v, x, r in zip([(3, 2), (3, 1), (1, 0), (1, 1)],
                               [F(1, 7), F(1, 5), F(1, 11), F(1, 13)], ranks)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(_cli_branes), st.integers(1, 16))
@example(_oriented_chain(2, 3, 2, 3), 8)
@example([Brane((0, -1), F(1, 10**99 + 7), local_system=LocalSystem.from_eigenvalue(
    phase(F(1, 7)), 6)), Brane((1, 2)), Brane((1, 0), F(2, 10**40 + 3))], 16)
def test_the_work_count_bounds_what_mu2_and_assoc_form(branes, cutoff):
    """`floer._work` on CLI-shaped mu2 and assoc inputs (e00 generators,
    one Jordan block each): its triangles cover every triangle
    `mu2_triangles` lists, at most one more per phi1 generator; no more
    triangles are weighted than it counts; and per weighted triangle it
    counts the steps `_scalar_mul` or `mat_mul` and the transports form,
    exactly where no entry drops and never fewer: scalar steps on two
    generators, series products on a mu2 output; and at least the squared
    bits of the transports' binomials."""
    try:
        gens = [generator_element(b0, b1, cf(b0, b1).point(0))
                for b0, b1 in zip(branes, branes[1:])]
    except (NonTransverse, MarkerCollision):
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        formed = _Formed(mp)
        try:
            if len(gens) == 2:
                mu2(gens[1], gens[0], cutoff)
            else:
                assoc_defect(*gens, cutoff)
        except (NonTransverse, MarkerCollision, DegenerateConfiguration):
            assume(False)
    _, _, counted = floer._work(branes, cutoff)
    assert len(counted) == len(formed.products)
    for (comps1, per, weighted, steps, series, squares), (phi2, phi1, c, triangles) in zip(
            counted, formed.products):
        by_y1 = Counter(tri[1][1] for tri in mu2_triangles(phi2, phi1, c)[1])
        assert len(phi1.entries) <= comps1
        assert all(per - 1 <= n <= per for n in by_y1.values()), (per, by_y1)
        assert len(triangles) <= weighted
        for tri in triangles:
            if tri["path"] != "rank1":
                assert (tri["path"] == "matrix") == (series > 0)
                assert tri["steps"] <= steps + series
                assert tri["dropped"] or tri["steps"] == steps + series, (tri, steps)
            assert tri["squares"] <= squares, (tri, squares)
