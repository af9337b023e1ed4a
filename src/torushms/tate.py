"""Points, group law, and theta functions of the multiplicative-quotient
elliptic curve X = Lambda^* / q^Z.

Every point has a unique presentation [ -q^x * M ] with x in [0,1)
rational and M a valuation-zero unit series; TatePoint stores that pair.
The marked 2-torsion point is P0 = [ -q^(1/2) ] and the origin of the
group law is O = [1].

The two level-2 theta functions are evaluated as truncated Novikov
series in the point coordinates:

    theta0(w) = sum_n q^(n^2) w^(2n)           w = -q^x M
    theta1(w) = sum_n q^((n+1/2)^2) w^(2n+1)

expanded so that a term of index n contributes exponent n^2 + 2nx with
coefficient M^(2n) (kind 0), resp. exponent (n+1/2)^2 + (2n+1)x with
coefficient -M^(2n+1) (kind 1).  They satisfy the quasi-periodicity law

    theta_i(q w) = q^(-1) w^(-2) theta_i(w).

Global sections of the degree-2 line bundle O(2 P0) are spanned by
theta0 and theta1; SectionCoeffs stores a section s = s0*theta0 +
s1*theta1, and section_through(Q) produces a section vanishing at Q.

The group law has a scalar path for constant units (one term, cutoff
None), the units of every K-class sum, relation check and O(nP0).  There
point_mul forms the one coefficient as the series product and negation
form it, 0 + -(0 + c * c'), and conjugate_zero as `invert` forms it,
0 + 1.0 / c; x is reduced into [0, 1) on integers, and the point is built
without TatePoint.__init__.  Every other unit, and a coefficient the drop
rule removes (`NovikovSeries._exact_term` applies it, in `novikov`),
takes the series path, so a result keeps its bits and a vanishing unit
raises the same NonUnit.  `is_zero_point` has a scalar path for the same
units, with the series test's verdict.

One inverse per unit: `conjugate_zero` and the negative powers of a
theta table (`_unit_powers`) invert a series unit through
`novikov.invert`, which forms the inverse of a multi-term series once per
series object.  `conjugate_zero` hands out that same inverse object, so
the theta tables at the conjugate point invert it once too: a series
unit M costs one inversion of M and one of M^-1, however many times the
vanishing bridge asks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from ._record import record
from .errors import NonUnit
from .novikov import (
    NovikovSeries, Rational, _Powers, _RunningSum, _kept, invert, lattice_window,
    vanishes,
)

__all__ = [
    "TatePoint",
    "SectionCoeffs",
    "point_mul",
    "point_pow",
    "conjugate_zero",
    "theta_eval",
    "theta_eval_raw",
    "section_through",
    "eval_section",
    "section_vanishes_at",
]


def _as_unit(unit: Union[NovikovSeries, int, float, complex]) -> NovikovSeries:
    if not isinstance(unit, NovikovSeries):
        unit = NovikovSeries.constant(unit)
    # nonzero with valuation 0: the lowest canonical exponent is 0
    if not (unit.terms and unit.terms[0][0] == 0):
        raise NonUnit("point unit coordinate must have valuation 0")
    return unit


@record
class TatePoint:
    """The point [ -q^x * unit ], with x normalized into [0,1)."""

    x: Fraction
    unit: NovikovSeries

    def __init__(self, x: Rational, unit=1):
        if type(x) is not Fraction:
            x = Fraction(x)
        if not 0 <= x.numerator < x.denominator:  # x outside [0, 1)
            x = x % 1
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "unit", _as_unit(unit))

    def __hash__(self):  # written out: hashed inside every sheaf's hash
        return hash((self.x, self.unit))

    @classmethod
    def zero(cls) -> "TatePoint":
        """O = [1] = [-q^0 * (-1)], the group-law origin (one shared
        instance: points are immutable)."""
        return _ZERO

    @classmethod
    def two_torsion(cls) -> "TatePoint":
        """P0 = [-q^(1/2)], the marked 2-torsion point."""
        return cls(Fraction(1, 2), 1)

    def is_zero_point(self, tol: float = 1e-9) -> bool:
        """x = 0 and (unit - (-1)).max_abs_coeff() <= tol: the point is O
        up to tol.

        A constant unit c (one term, cutoff None) takes a scalar path:
        unit - (-1) is the one term c + 1, or the zero series where the
        drop rule (`novikov._kept`) removes it.  The verdict is the series
        path's for every tol, and False for a nan coefficient."""
        if self.x != 0:
            return False
        unit = self.unit
        if _scalar(unit):
            c = _kept(unit.terms[0][1] + 1)
            return (0.0 if c is None else abs(c)) <= tol
        return (unit - (-1)).max_abs_coeff() <= tol

    def approx_eq(self, other: "TatePoint", tol: float = 1e-9) -> bool:
        return self.x == other.x and self.unit.approx_eq(other.unit, tol)

    def __str__(self):
        return f"pt(x={self.x}, unit={self.unit})"


_ZERO = TatePoint(0, -1)


def _point(x: Fraction, unit: NovikovSeries) -> TatePoint:
    """The point of a normalized x and a unit, without `TatePoint.__init__`."""
    out = object.__new__(TatePoint)
    object.__setattr__(out, "x", x)
    object.__setattr__(out, "unit", unit)
    return out


def _scalar(unit: NovikovSeries) -> bool:
    """The unit is one exact term: the constant units of the scalar path."""
    return unit.cutoff is None and len(unit.terms) == 1


def _x_sum(x: Fraction, y: Fraction) -> Fraction:
    """x + y reduced into [0, 1), for x and y in [0, 1); one of them
    itself when the other is 0."""
    nx, dx = x.as_integer_ratio()
    if not nx:
        return y
    ny, dy = y.as_integer_ratio()
    if not ny:
        return x
    n, d = nx * dy + ny * dx, dx * dy  # below 2d
    return Fraction(n - d if n >= d else n, d)


def point_mul(p: TatePoint, r: TatePoint) -> TatePoint:
    """Group law: [ -q^x M ] * [ -q^x' M' ] = [ -q^(x+x') * (-M M') ]."""
    a, b = p.unit, r.unit
    if _scalar(a) and _scalar(b):
        (e, ca), = a.terms
        # what `-(a * b)` forms from the two terms: 0 + -(0 + ca * cb)
        unit = NovikovSeries._exact_term(e, -(0 + ca * b.terms[0][1]))
        if unit is not None:
            return _point(_x_sum(p.x, r.x), unit)
    return TatePoint(p.x + r.x, -(a * b))


def conjugate_zero(p: TatePoint) -> TatePoint:
    """The group inverse [ -q^(-x) M^(-1) ]; the other zero of any
    section of O(2 P0) vanishing at p."""
    a = p.unit
    if _scalar(a):
        (e, c0), = a.terms
        unit = NovikovSeries._exact_term(e, 1.0 / c0)  # as `invert` forms it
        if unit is not None:
            n, d = p.x.as_integer_ratio()
            return _point(Fraction(d - n, d) if n else p.x, unit)
    return TatePoint(-p.x, invert(a))


def point_pow(p: TatePoint, n: int) -> TatePoint:
    """n-fold group-law multiple of p (n may be negative)."""
    if n < 0:
        return point_pow(conjugate_zero(p), -n)
    out = TatePoint.zero()
    for _ in range(n):
        out = point_mul(out, p)
    return out


def _unit_powers(unit: NovikovSeries):
    """k -> unit^k for integer k, each power formed once: from a table of
    the unit's powers, or of its inverse for k < 0, inverted once when a
    negative power is first asked for.  Built once per point, the table
    serves both theta kinds."""
    up, down = _Powers(unit), None

    def power(k: int) -> NovikovSeries:
        nonlocal down
        if k >= 0:
            return up[k]
        if down is None:
            down = _Powers(invert(unit))
        return down[-k]

    return power


def theta_eval_raw(
    kind: int, x: Rational, unit, cutoff: Rational, _powers=None
) -> NovikovSeries:
    """Theta series at the (possibly unnormalized) presentation
    w = -q^x * unit, truncated at `cutoff`.

    Accepting x outside [0,1) is what makes the quasi-periodicity law
    directly checkable; for group-law work use theta_eval on TatePoint.
    `_powers`, when given, is `_unit_powers(unit)`, shared by a caller
    that evaluates both kinds at one point.
    """
    x = Fraction(x)
    unit = _as_unit(unit)
    cutoff = Fraction(cutoff)
    if kind not in (0, 1):
        raise ValueError("theta kind must be 0 or 1")
    mpow = _unit_powers(unit) if _powers is None else _powers

    # exponent (n + c)^2 - x^2, c = x or x + 1/2, is below the cutoff on
    # lattice_window(c, cutoff + x^2): walk it up from the vertex, then down
    c = x if kind == 0 else x + Fraction(1, 2)
    lo, hi = lattice_window(c, cutoff + x * x)
    up = math.ceil(-c)
    # term n is q_power(e) * coef: e = n^2 + 2nx, coef = M^(2n) for kind 0,
    # e = (m/2)^2 + mx, coef = -M^m with m = 2n + 1 for kind 1; e is kept
    # as an integer numerator over p = x's denominator (kind 0) or 4p, and
    # q_power(e)'s coefficient, 0 + 1, is the one left factor
    num, p = x.numerator, x.denominator
    out = _RunningSum(NovikovSeries.zero(cutoff))
    for ns in (range(up, hi), range(up - 1, lo - 1, -1)):
        for n in ns:
            if kind == 0:
                e, coef = (n * n * p + 2 * n * num, p), mpow(2 * n)
            else:
                m = 2 * n + 1
                e, coef = (m * m * p + 4 * m * num, 4 * p), -mpow(m)
            out.add_product(*e, coef, None, (1,))
    return out.series()


def theta_eval(
    kind: int, p: TatePoint, cutoff: Rational, _powers=None
) -> NovikovSeries:
    return theta_eval_raw(kind, p.x, p.unit, cutoff, _powers)


@record
class SectionCoeffs:
    """A section s = sigma0 * theta0 + sigma1 * theta1 of O(2 P0)."""

    sigma0: NovikovSeries
    sigma1: NovikovSeries

    def __post_init__(self):
        if self.sigma0.is_zero() and self.sigma1.is_zero():
            raise ValueError("section coefficients must not both vanish")


def section_through(q_pt: TatePoint, cutoff: Rational) -> SectionCoeffs:
    """The (projective) section vanishing at q_pt and at its conjugate:
    s = theta1(w_Q) * theta0 - theta0(w_Q) * theta1."""
    powers = _unit_powers(q_pt.unit)
    return SectionCoeffs(
        sigma0=theta_eval(1, q_pt, cutoff, powers),
        sigma1=-theta_eval(0, q_pt, cutoff, powers),
    )


def eval_section(
    section: SectionCoeffs, p: TatePoint, cutoff: Rational
) -> NovikovSeries:
    powers = _unit_powers(p.unit)
    return section.sigma0 * theta_eval(0, p, cutoff, powers) + (
        section.sigma1 * theta_eval(1, p, cutoff, powers)
    )


def section_vanishes_at(
    section: SectionCoeffs,
    p: TatePoint,
    cutoff: Rational,
) -> bool:
    """`novikov.vanishes` of the section evaluated at p."""
    return vanishes(eval_section(section, p, cutoff), cutoff)
