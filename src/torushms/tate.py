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
None), the units of every K-class sum, relation check and O(nP0).  Two
scalar steps form its one coefficient: `_unit_product`, as the series
product and negation form it, 0 + -(0 + c * c'), and `_unit_inverse`, as
`invert` forms it, 0 + 1.0 / c, each None where the drop rule
(`novikov._kept`) removes it.  point_mul, conjugate_zero, point_pow (n
steps from O's coefficient) and the K-class lane of `sheafk` call them,
so every coefficient the group law forms comes from one expression, and
each point is built once, x reduced into [0, 1) on integers.  Every
other unit, and a dropped coefficient, takes the series path from the
start: the same bits and the same NonUnit.  `is_zero_point` and the
`sheafk` verdicts share one scalar test against -1, `_unit_at_origin`,
whose verdict is the series test's.

One inverse per unit: a unit series M holds its inverse and its powers
(see `novikov`).  `conjugate_zero` takes M^-1 from `novikov.invert`, and
a theta term of a series unit takes M^k from `novikov._power`, which
reads M^-k from the powers of that same inverse object.  So each power
of M is formed once, and a series unit M costs one inversion of M and
one of M^-1 however often asked; a constant unit's M^k: `_scalar_powers`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Union

from ._record import record
from .errors import NonUnit
from .novikov import (
    NovikovSeries, Rational, _RunningSum, _kept, _power, invert, lattice_window,
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
    # nonzero with valuation 0: the lowest key is 0
    if not (unit._keys and unit._keys[0] == 0):
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
        up to tol (a constant unit takes the scalar path)."""
        if self.x != 0:
            return False
        unit = self.unit
        if _scalar(unit):
            return _unit_at_origin(unit._coeffs[0], tol)
        return (unit - (-1)).max_abs_coeff() <= tol

    def approx_eq(self, other: "TatePoint", tol: float = 1e-9) -> bool:
        return self.x == other.x and self.unit.approx_eq(other.unit, tol)

    def __str__(self):
        return f"pt(x={self.x}, unit={self.unit})"


_ZERO = TatePoint(0, -1)


def _scalar_point(x: Fraction, c) -> TatePoint:
    """The point [-q^x * c] of a normalized x and a kept coefficient c,
    without `TatePoint.__init__` or the public series constructor."""
    out = object.__new__(TatePoint)
    object.__setattr__(out, "x", x)
    object.__setattr__(out, "unit", NovikovSeries._kept_constant(c))
    return out


def _scalar(unit: NovikovSeries) -> bool:
    """The unit is one exact term: the constant units of the scalar path."""
    return unit.cutoff is None and len(unit._keys) == 1


def _unit_product(ca, cb):
    """The coefficient of -(M * M') for one-term units with coefficients
    ca and cb, as the series product and negation form it; None where
    the drop rule removes it."""
    return _kept(-(0 + ca * cb))


def _unit_multiple(c, b, n: int):
    """c after n `_unit_product` steps by b; None once a step drops."""
    for _ in range(n):
        c = _unit_product(c, b)
        if c is None:
            return None
    return c


def _unit_at_origin(c, tol) -> bool:
    """The one-term unit c is -1 up to tol, as unit - (-1) reads it."""
    c = _kept(c + 1)
    return (0.0 if c is None else abs(c)) <= tol


def _unit_inverse(c0):
    """The coefficient of M^-1 for a one-term unit with coefficient c0, as
    `invert` forms it; None where the drop rule removes it."""
    return _kept(1.0 / c0)


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
        c = _unit_product(a._coeffs[0], b._coeffs[0])
        if c is not None:
            return _scalar_point(_x_sum(p.x, r.x), c)
    return TatePoint(p.x + r.x, -(a * b))


def conjugate_zero(p: TatePoint) -> TatePoint:
    """The group inverse [ -q^(-x) M^(-1) ]; the other zero of any
    section of O(2 P0) vanishing at p."""
    a = p.unit
    if _scalar(a):
        c = _unit_inverse(a._coeffs[0])
        if c is not None:
            n, d = p.x.as_integer_ratio()
            return _scalar_point(Fraction(d - n, d) if n else p.x, c)
    return TatePoint(-p.x, invert(a))


def point_pow(p: TatePoint, n: int) -> TatePoint:
    """n-fold group-law multiple of p (n may be negative): n products from O."""
    if n < 0:
        return point_pow(conjugate_zero(p), -n)
    out = TatePoint.zero()
    if n and _scalar(p.unit):
        c = _unit_multiple(out.unit._coeffs[0], p.unit._coeffs[0], n)
        if c is not None:
            num, den = p.x.as_integer_ratio()
            return _scalar_point(Fraction(num * n % den, den), c)
    for _ in range(n):
        out = point_mul(out, p)
    return out


def _scalar_powers(c0):
    """k -> M^k's coefficient for the one-term unit c0 as `_power` forms it:
    from 1.0 + 0.0j, times c0 or, for k < 0, `invert`'s 1.0 / c0, each
    step through the drop rule, None from the first drop on; each once."""
    tables = {}  # k >= 0 and k < 0: [P_0, P_1, ...] and the step

    def power(k):
        if (up := k >= 0) not in tables:  # 1.0 / c0 once asked for, as `invert`
            tables[up] = [1.0 + 0.0j], c0 if up else _unit_inverse(c0)
        table, step = tables[up]
        while len(table) <= abs(k):
            table.append(table[-1] and step and _kept(table[-1] * step))
        return table[abs(k)]

    return power


def theta_eval_raw(kind: int, x: Rational, unit, cutoff: Rational) -> NovikovSeries:
    """Theta series at the (possibly unnormalized) presentation
    w = -q^x * unit, truncated at `cutoff`.

    Accepting x outside [0,1) is what makes the quasi-periodicity law
    directly checkable; for group-law work use theta_eval on TatePoint.
    """
    x = Fraction(x)
    unit = _as_unit(unit)
    cutoff = Fraction(cutoff)
    if kind not in (0, 1):
        raise ValueError("theta kind must be 0 or 1")

    # exponent (n + c)^2 - x^2, c = x or x + 1/2, is below the cutoff on
    # lattice_window(c, cutoff + x^2): walk it up from the vertex, then down
    c = x if kind == 0 else x + Fraction(1, 2)
    lo, hi = lattice_window(c, cutoff + x * x)
    up = math.ceil(-c)
    # term n is q_power(e) * coef, m = 2n + kind: e = (m/2)^2 + mx as an int
    # over 4p, p = x's denominator, coef = M^m (kind 0) or -M^m (kind 1), and
    # q_power(e)'s coefficient, 0 + 1, is the one left factor
    num, p = x.numerator, x.denominator
    scalar = _scalar(unit)  # a constant unit's M^m is a scalar, None where it drops
    power = _scalar_powers(unit._coeffs[0]) if scalar else partial(_power, unit)
    out = _RunningSum(NovikovSeries.zero(cutoff))
    for ns in (range(up, hi), range(up - 1, lo - 1, -1)):
        for n in ns:
            m = 2 * n + kind
            e, coef = (m * m * p + 4 * m * num, 4 * p), power(m)
            if not scalar:
                out.add_product(*e, -coef if kind else coef, None, (1,))
            elif coef is not None:  # the stages of the negation and of 0 + 1
                if (coef := _kept(1 * (_kept(-coef) if kind else coef))) is not None:
                    out.add_term(*e, coef)
    return out.series()


def theta_eval(kind: int, p: TatePoint, cutoff: Rational) -> NovikovSeries:
    return theta_eval_raw(kind, p.x, p.unit, cutoff)


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
    return SectionCoeffs(
        sigma0=theta_eval(1, q_pt, cutoff), sigma1=-theta_eval(0, q_pt, cutoff)
    )


def eval_section(
    section: SectionCoeffs, p: TatePoint, cutoff: Rational
) -> NovikovSeries:
    return section.sigma0 * theta_eval(0, p, cutoff) + (
        section.sigma1 * theta_eval(1, p, cutoff)
    )


def section_vanishes_at(
    section: SectionCoeffs,
    p: TatePoint,
    cutoff: Rational,
) -> bool:
    """`novikov.vanishes` of the section evaluated at p."""
    return vanishes(eval_section(section, p, cutoff), cutoff)
