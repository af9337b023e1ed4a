"""End-to-end acceptance gate.

One test per headline check, with the tolerances pinned in the
assertions.  Criteria 1, 3 and 5 also assert a coarse wall-clock ceiling
(5 s, 10 s per chain, 1 s) against runaway loops; no test measures
speed.  Each test is self-contained: oracles are recomputed here rather
than imported from the other test modules.
"""

import cmath
import math
import random
import time
from fractions import Fraction as F

from torushms.cobord import CurveClass, pl_surgery_flux, relation_check, zeta
from torushms.config import RelationBounds
from torushms.errors import DegenerateConfiguration, MarkerCollision
from torushms.floer import (
    FloerElement,
    assoc_defect,
    cf,
    mu2,
    mu2_bruteforce,
    vanishes_truncated,
)
from torushms.mirror import theta_floer_equiv, zeta_injectivity_witness
from torushms.novikov import NovikovSeries, invert, norm, val
from torushms.sheafk import relation_suite
from torushms.tate import (
    SectionCoeffs,
    TatePoint,
    conjugate_zero,
    section_through,
    theta_eval_raw,
)
from torushms.torus import Brane, LocalSystem, det2, index_of, is_primitive

C = NovikovSeries.constant


def phase(turns):
    return cmath.exp(2j * cmath.pi * float(turns))


def _step1_product(x, system, sigma0, sigma1, cutoff):
    """mu2(c1, c3) for the chain L(1,2;0), L(1,0;0), L(0,-1;x) with the
    two horizontal-chain generators weighted (sigma0, sigma1)."""
    y0 = Brane((1, 2))
    y1 = Brane((1, 0))
    y2 = Brane((0, -1), shift=x, local_system=system)
    weights = {}
    for coords, w in (((F(0), F(0)), sigma0), ((F(1, 2), F(0)), sigma1)):
        series = w if isinstance(w, NovikovSeries) else C(w)
        if not series.is_zero():
            weights[coords] = ((series,),)
    c1 = FloerElement(cf(y0, y1), weights)
    space = cf(y2, y0)
    (pt,) = space.coords()
    c3 = FloerElement(space, {pt: ((C(1),),)})
    return mu2(c1, c3, cutoff)


def _series_of(element, x):
    ((coords, matrix),) = element.components
    assert coords == (F(x) % 1, F(0))
    return matrix[0][0]


def test_criterion_1_product_series_matches_closed_form():
    started = time.monotonic()
    cutoff = F(6)
    for x, m_turns in ((F(1, 4), F(1, 3)), (F(1, 3), F(1, 7))):
        m = phase(m_turns)
        system = LocalSystem.from_eigenvalue(C(m))
        out = _step1_product(x, system, 1, 1, cutoff)
        series = _series_of(out, x)
        # independent lattice sum with principal-branch monodromy powers
        expected = {}
        for n in range(-30, 31):
            e = (F(n) - x) ** 2
            if e < cutoff:
                expected[e] = expected.get(e, 0) - m ** float(2 * x - 2 * n)
            e = (F(n) + F(1, 2) - x) ** 2
            if e < cutoff:
                expected[e] = (
                    expected.get(e, 0) + m ** float(2 * x - (2 * n + 1))
                )
        # weights (1, 1) make some paired contributions cancel exactly
        expected = {e: c for e, c in expected.items() if abs(c) > 1e-12}
        assert {e for e, _ in series.terms} == set(expected)
        for e, coeff in series.terms:
            assert abs(coeff - expected[e]) <= 1e-8, (x, e)
    assert time.monotonic() - started < 5.0


def test_criterion_2_vanishing_equivalence():
    cutoff = F(6)
    flat = SectionCoeffs(NovikovSeries.one(), NovikovSeries.zero())
    # direct valuation check at the two named parameter points
    for x, m_turns in ((F(1, 4), F(1, 3)), (F(1, 3), F(1, 7))):
        m = phase(m_turns)
        system = LocalSystem.from_eigenvalue(C(m))
        sigma = section_through(conjugate_zero(TatePoint(x, m)), cutoff)
        out = _step1_product(x, system, sigma.sigma0, sigma.sigma1, cutoff)
        assert vanishes_truncated(out, cutoff, slack=1)
        out = _step1_product(x, system, flat.sigma0, flat.sigma1, cutoff)
        assert not vanishes_truncated(out, cutoff, slack=1)
    # verdict pairs agree on a random grid
    rng = random.Random(60302)
    seen = 0
    while seen < 5:
        den = rng.choice([5, 7, 11, 12])
        x = F(rng.randrange(1, den), den)
        if x in (F(0), F(1, 2)):
            continue
        m = phase(F(rng.randrange(0, 10), 10))
        sigma = section_through(conjugate_zero(TatePoint(x, m)), cutoff)
        lhs, rhs = theta_floer_equiv(x, m, sigma, cutoff)
        assert lhs == rhs
        assert (lhs, rhs) == (True, True)
        lhs, rhs = theta_floer_equiv(x, m, flat, cutoff)
        assert lhs == rhs
        assert (lhs, rhs) == (False, False)
        seen += 1


def test_criterion_3_associativity_random_shifts():
    slopes = [(1, 0), (0, 1), (1, 1), (1, 2)]
    rng = random.Random(90125)
    passed = 0
    while passed < 5:
        shifts = [
            F(rng.randrange(0, d), d)
            for d in (rng.choice([5, 7, 11, 12]) for _ in range(4))
        ]
        branes = [Brane(v, s) for v, s in zip(slopes, shifts)]
        started = time.monotonic()
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
            continue  # triple point: resample the shifts
        assert defect <= 1e-8, shifts
        assert time.monotonic() - started < 10.0
        passed += 1


def test_criterion_4_theta_functional_equation():
    rng = random.Random(1928)
    for _ in range(10):
        kind = rng.randrange(2)
        x = F(rng.randrange(0, 12), 12)
        u = phase(F(rng.randrange(0, 10), 10)) * (1.0 + 0.5 * rng.random())
        window = F(8)
        lhs = theta_eval_raw(kind, x + 1, u, window)
        u2 = invert(C(u) * C(u))
        rhs = (
            theta_eval_raw(kind, x, u, window + 1 + 2 * x)
            * NovikovSeries.q_power(-(1 + 2 * x))
            * u2
        )
        assert (lhs - rhs).max_abs_coeff(below=window) <= 1e-8


def test_criterion_5_k0_relation_suite():
    points = (
        TatePoint.zero(),
        TatePoint.two_torsion(),
        TatePoint(F(1, 3), phase(F(1, 7))),
        TatePoint(F(2, 5), phase(F(2, 5))),
        TatePoint(F(1, 7), phase(F(1, 2))),
    )
    started = time.monotonic()
    triples = relation_suite(RelationBounds(4, 4, 3, 3), points)
    labels = {t.label for t in triples}
    for t in triples:
        defect = t.k0_defect()
        assert defect.rk == 0 and defect.deg == 0, t.label
        assert defect.is_zero(1e-9), t.label
    assert time.monotonic() - started < 1.0
    assert labels == {"iso", "divisor", "atiyah-coprime", "jordan-tower"}


def test_criterion_6_cobordism_identities():
    vert = lambda s: Brane((0, 1), F(s) % 1)
    horiz = lambda s: Brane((1, 0), F(s) % 1)
    grid = (F(1, 3), F(2, 5), F(5, 7))
    for x in grid:
        for y in grid:
            assert relation_check(
                [(vert(x + y), 1), (vert(y), -1)],
                [(vert(x), 1), (vert(0), -1)],
            )
            assert relation_check(
                [horiz(0), vert(x + y)], [horiz(-x), vert(y)]
            )
            assert zeta(x) + zeta(y) == zeta(x + y)
    assert pl_surgery_flux(
        CurveClass((1, 0), 0), CurveClass((0, 1), 0)
    ) == F(1, 2)


def test_criterion_7_injectivity_witness():
    assert not zeta_injectivity_witness(F(1, 3)).is_zero()
    assert zeta_injectivity_witness(F(0)).is_zero()


def test_criterion_8_mu2_matches_bruteforce():
    rng = random.Random(77001)
    slopes = [(1, 0), (0, 1), (1, 1), (1, 2), (0, -1), (1, -1)]
    cutoff = F(4)
    done = 0
    while done < 5:
        chain = rng.sample(slopes, 3)
        if any(
            det2(v0, v1) == 0
            for v0, v1 in ((chain[0], chain[1]), (chain[1], chain[2]),
                           (chain[0], chain[2]))
        ):
            continue
        shifts = [
            F(rng.randrange(0, d), d)
            for d in (rng.choice([5, 7, 11, 12]) for _ in range(3))
        ]
        branes = [Brane(v, s) for v, s in zip(chain, shifts)]
        try:
            phi1 = FloerElement(
                cf(branes[0], branes[1]),
                {c: ((C(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),),)
                 for c in cf(branes[0], branes[1]).coords()},
            )
            phi2 = FloerElement(
                cf(branes[1], branes[2]),
                {c: ((C(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),),)
                 for c in cf(branes[1], branes[2]).coords()},
            )
            fast = mu2(phi2, phi1, cutoff)
            slow = mu2_bruteforce(phi2, phi1, cutoff)
        except (DegenerateConfiguration, MarkerCollision):
            continue
        assert fast.support() == slow.support()
        for (_, m1), (_, m2) in zip(fast.components, slow.components):
            for row1, row2 in zip(m1, m2):
                for s1, s2 in zip(row1, row2):
                    assert {e for e, _ in s1.terms} == {e for e, _ in s2.terms}
                    assert (s1 - s2).max_abs_coeff() <= 1e-9
        done += 1


def _random_series(rng, cutoff=F(6)):
    while True:
        acc = NovikovSeries.zero(cutoff)
        for _ in range(rng.randrange(1, 5)):
            den = rng.randrange(1, 7)
            e = F(rng.randrange(-3 * den, 5 * den), den)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            acc = acc + NovikovSeries.q_power(e, c)
        if not acc.is_zero():
            return acc


def test_criterion_9_field_axioms_and_index_duality():
    rng = random.Random(424242)
    failures = []
    for case in range(100):
        a = _random_series(rng)
        b = _random_series(rng)
        c = _random_series(rng)
        if val(a * b) != val(a) + val(b):
            failures.append(("val-mult", case))
        if not math.isclose(norm(a * b), norm(a) * norm(b), rel_tol=1e-12):
            failures.append(("norm-mult", case))
        s = a + b
        if not s.is_zero():
            if val(s) < min(val(a), val(b)):
                failures.append(("ultrametric", case))
            if val(a) != val(b) and val(s) != min(val(a), val(b)):
                failures.append(("ultrametric-strict", case))
        if ((a + b) + c - (a + (b + c))).max_abs_coeff() > 1e-9:
            failures.append(("add-assoc", case))
        if (a * (b + c) - (a * b + a * c)).max_abs_coeff() > 1e-9:
            failures.append(("distributive", case))
        if ((a * b) * c - (a * (b * c))).max_abs_coeff() > 1e-9:
            failures.append(("mul-assoc", case))
        inv = invert(a)
        resid = a * inv - NovikovSeries.one()
        window = a.cutoff - val(a)
        # residual is measured relative to the inverse's own coefficient
        # scale; geometric-series inverses can be large when the leading
        # gap is small, and doubles only carry ~1e-16 relative accuracy
        scale = max(1.0, max(abs(co) for _, co in inv.terms))
        if resid.max_abs_coeff(below=window) > 1e-9 * scale:
            failures.append(("inverse", case))
    for case in range(100):
        while True:
            v = (rng.randrange(-6, 7), rng.randrange(-6, 7))
            w = (rng.randrange(-6, 7), rng.randrange(-6, 7))
            if is_primitive(v) and is_primitive(w) and det2(v, w) != 0:
                break
        if index_of(Brane(v), Brane(w)) + index_of(Brane(w), Brane(v)) != 1:
            failures.append(("index-duality", case, v, w))
    assert failures == []
