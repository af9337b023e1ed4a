"""Floer cochain spaces and the products mu^1, mu^2 for transverse
straight branes, computed by exact triangle enumeration in the
universal cover.

For three pairwise non-parallel branes L0, L1, L2 and generators
y1 in L0 ∩ L1, y2 in L1 ∩ L2, the triangles contributing to
mu2(phi2, phi1) are enumerated by fixing the lift of y1 in [0,1)^2 and
walking the Z-family of lifts of L2: the signed offset u of a lift is
affine in the family index k, the triangle area is quadratic in u, so
the walk stops as soon as the area passes the cutoff (both directions).
Each triangle contributes

    sign * q^area * T2 . phi2(y2) . T1 . phi1(y1) . T0

where the T_i are local-system parallel transports along the boundary
arcs (arc fractions s, -t, -d against each brane's oriented direction)
and sign = (-1)^(i(y1)) * (-1)^(crossings+1), with `crossings` the
number of Pin markers met by the triangle boundary.  Only triangles
whose corner cycle (y0, y1, y2) has positive signed area contribute to
this ordered product; when the slope data forces the opposite
orientation the product is identically zero (and degree additivity
i(y0) = i(y1) + i(y2) fails, consistently).

mu^1 vanishes identically: two straight lines of different slopes meet
exactly once in the cover, so no bigons exist.  With mu^1 = 0, mu^2 is
associative up to the Koszul sign of the first input: for a composable
chain a, b, c,

    mu2(mu2(c, b), a) = (-1)^deg(a) * mu2(c, mu2(b, a)),

so the two bracketings agree for even deg(a) and are exact negatives
for odd deg(a).  The test suite checks this graded identity to machine
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    DegenerateConfiguration,
    MarkerCollision,
    NonTransverse,
)
from .novikov import ZERO_TOL, NovikovSeries, Rational, _min_cutoff
from .torus import (
    Brane,
    IntersectionPoint,
    Matrix,
    Vec,
    bezout,
    det2,
    index_of,
    intersections,
    mat_add,
    mat_mul,
    mat_scale,
)

__all__ = [
    "CFSpace",
    "FloerElement",
    "cf",
    "zero_element",
    "generator_element",
    "mu1",
    "mu2",
    "mu2_bruteforce",
    "mu2_triangles",
    "assoc_defect",
    "vanishes_truncated",
    "cone_criterion_mu2_checks",
]


@dataclass(frozen=True)
class CFSpace:
    """The cochain space CF(L0, L1) = sum over y of Hom(E0|_y, E1|_y)."""

    l0: Brane
    l1: Brane
    points: Tuple[IntersectionPoint, ...]

    @property
    def hom_shape(self) -> Tuple[int, int]:
        """(rows, cols) of a component matrix: rk(E1) x rk(E0)."""
        return (self.l1.rank, self.l0.rank)

    @property
    def generators(self):
        dims = self.l0.rank * self.l1.rank
        return tuple((p, dims) for p in self.points)

    def graded_dimension(self, degree: int) -> int:
        return sum(d for p, d in self.generators if p.index == degree)

    def coords(self) -> Tuple[Vec, ...]:
        return tuple(p.coords for p in self.points)


def cf(l0: Brane, l1: Brane) -> CFSpace:
    """Build CF(L0,L1); raises NonTransverse for parallel slopes and
    MarkerCollision if a Pin marker sits on an intersection point."""
    return CFSpace(l0, l1, intersections(l0, l1))


def _mat_is_zero(m: Matrix) -> bool:
    return all(x.is_zero() for row in m for x in row)


@dataclass(frozen=True)
class FloerElement:
    """An element of CF(L0,L1): matrix-valued coefficients on the
    intersection points (shape rk(E1) x rk(E0) each)."""

    space: CFSpace
    components: Tuple[Tuple[Vec, Matrix], ...]

    def __init__(self, space: CFSpace, components):
        if isinstance(components, dict):
            components = components.items()
        # keys are the space's own coordinate objects, shared, not copies
        valid = {c: c for c in space.coords()}
        shape = space.hom_shape
        clean = []
        for coords, matrix in sorted(components):
            coords = (Fraction(coords[0]) % 1, Fraction(coords[1]) % 1)
            if coords not in valid:
                raise ValueError(
                    f"{coords} is not an intersection point of the pair"
                )
            coords = valid[coords]
            matrix = tuple(tuple(row) for row in matrix)
            if (len(matrix), len(matrix[0])) != shape:
                raise ValueError(
                    f"component at {coords} has shape "
                    f"{(len(matrix), len(matrix[0]))}, expected {shape}"
                )
            if not _mat_is_zero(matrix):
                clean.append((coords, matrix))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "components", tuple(clean))

    # -- queries -------------------------------------------------------

    def component(self, coords: Vec) -> Optional[Matrix]:
        coords = (Fraction(coords[0]) % 1, Fraction(coords[1]) % 1)
        for c, m in self.components:
            if c == coords:
                return m
        return None

    def support(self) -> Tuple[Vec, ...]:
        return tuple(c for c, _ in self.components)

    def is_zero(self) -> bool:
        return not self.components

    @property
    def degree(self) -> int:
        return index_of(self.space.l0, self.space.l1)

    def max_abs_coeff(self, below: Optional[Rational] = None) -> float:
        return max(
            (x.max_abs_coeff(below) for _, m in self.components for row in m
             for x in row),
            default=0.0,
        )

    # -- linear structure -----------------------------------------------

    def __add__(self, other: "FloerElement") -> "FloerElement":
        if not isinstance(other, FloerElement):
            return NotImplemented
        if (self.space.l0, self.space.l1) != (other.space.l0, other.space.l1):
            raise ValueError("cannot add elements of different CF spaces")
        acc: Dict[Vec, Matrix] = dict(self.components)
        for c, m in other.components:
            acc[c] = mat_add(acc[c], m) if c in acc else m
        return FloerElement(self.space, acc)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar) -> "FloerElement":
        if isinstance(scalar, (int, float, complex, Fraction)):
            scalar = NovikovSeries.constant(scalar)
        if not isinstance(scalar, NovikovSeries):
            return NotImplemented
        return FloerElement(
            self.space,
            {c: mat_scale(scalar, m) for c, m in self.components},
        )

    __rmul__ = __mul__


def zero_element(l0: Brane, l1: Brane) -> FloerElement:
    return FloerElement(cf(l0, l1), {})


def generator_element(
    l0: Brane, l1: Brane, coords: Vec, matrix=None, scale=1
) -> FloerElement:
    """The generator at `coords`, optionally with an explicit hom-space
    matrix (mandatory unless both local systems have rank 1)."""
    space = cf(l0, l1)
    if matrix is None:
        if space.hom_shape != (1, 1):
            raise ValueError(
                "higher-rank local systems need an explicit component matrix"
            )
        matrix = ((NovikovSeries.constant(scale),),)
    return FloerElement(space, {tuple(map(Fraction, coords)): matrix})


def mu1(a: FloerElement) -> FloerElement:
    """The differential vanishes for transverse straight branes.

    Two straight lines of distinct slopes intersect exactly once in the
    universal cover, so no strip (bigon) connects two generators; the
    result is the zero element of the same space.
    """
    l0, l1 = a.space.l0, a.space.l1
    if det2(l0.slope, l1.slope) == 0:
        raise NonTransverse("mu1 needs transverse branes")
    if __debug__:
        # strip bookkeeping: a bigon needs two distinct corner points on
        # the same pair of lifted lines, which straight lifts cannot have
        assert abs(det2(l0.slope, l1.slope)) >= 1
    return FloerElement(a.space, {})


def _ratio_along(delta: Vec, v) -> Fraction:
    """d with delta = d*v, for delta parallel to v."""
    if v[0] != 0:
        return Fraction(delta[0]) / v[0]
    return Fraction(delta[1]) / v[1]


def _count_markers(brane: Brane, p: Vec, q: Vec) -> int:
    """Number of Pin-marker lifts strictly inside the segment from p to
    q (both points on one lift line of `brane`).  Raises
    MarkerCollision if a marker lift sits on an endpoint."""
    d = _ratio_along((q[0] - p[0], q[1] - p[1]), brane.slope)
    mk = brane.marker_point
    a, b = bezout(*brane.slope)
    c = a * (mk[0] - p[0]) + b * (mk[1] - p[1])
    lo, hi = (Fraction(0), d) if d > 0 else (d, Fraction(0))
    if (hi - c).denominator == 1 or (lo - c).denominator == 1:
        raise MarkerCollision(
            f"Pin marker of {brane} sits on a triangle corner"
        )
    return math.floor(hi - c) - math.floor(lo - c)


def _chain(phi2: FloerElement, phi1: FloerElement):
    b0, b1 = phi1.space.l0, phi1.space.l1
    b1b, b2 = phi2.space.l0, phi2.space.l1
    if b1 != b1b:
        raise ValueError(
            "mu2 inputs are not composable: phi1 lands in a different "
            "brane than phi2 starts from"
        )
    v0, v1, v2 = b0.slope, b1.slope, b2.slope
    d01, d02, d12 = det2(v0, v1), det2(v0, v2), det2(v1, v2)
    if d01 == 0 or d02 == 0 or d12 == 0:
        raise NonTransverse("mu2 needs pairwise non-parallel slopes")
    return b0, b1, b2, d01, d02, d12


def _transport_cache(brane: Brane):
    cache: Dict[Fraction, Matrix] = {}

    def get(t: Fraction) -> Matrix:
        if t not in cache:
            cache[t] = brane.local_system.transport(t)
        return cache[t]

    return get


class _EntrySum:
    """One matrix entry of a mu2 output as exponent -> coefficient.

    Adding a contribution gives the same terms and cutoff as repeated
    NovikovSeries addition: contributions arrive in triangle order, a
    key is dropped as soon as its partial sum has |c| <= ZERO_TOL, and
    the weakest cutoff wins.  Terms at or above that cutoff are left in
    the map; `series` drops them, as each addition would have.
    """

    __slots__ = ("terms", "cutoff")

    def __init__(self):
        self.terms: Dict[Fraction, complex] = {}
        self.cutoff: Optional[Fraction] = None

    def add(self, x: NovikovSeries) -> None:
        terms = self.terms
        for e, c in x.terms:
            total = terms.get(e, 0) + c
            if abs(total) <= ZERO_TOL:
                terms.pop(e, None)
            else:
                terms[e] = total
        self.cutoff = _min_cutoff(self.cutoff, x.cutoff)

    def series(self, cutoff: Fraction) -> NovikovSeries:
        cut = _min_cutoff(self.cutoff, cutoff)
        return NovikovSeries(self.terms.items(), cut)


def mu2(
    phi2: FloerElement,
    phi1: FloerElement,
    cutoff: Rational,
    _collect: Optional[List[dict]] = None,
) -> FloerElement:
    """The triangle product CF(L1,L2) x CF(L0,L1) -> CF(L0,L2),
    truncated at `cutoff`."""
    b0, b1, b2, d01, d02, d12 = _chain(phi2, phi1)
    cutoff = Fraction(cutoff)
    out_space = cf(b0, b2)
    cf(b1, b2)  # marker/transversality validation for the second pair
    if (d01 * d02 * d12) > 0:
        # the corner cycle of every candidate triangle is negatively
        # oriented for this ordered product; nothing contributes
        return FloerElement(out_space, {})
    assert index_of(b0, b2) == index_of(b0, b1) + index_of(b1, b2)
    i_y1 = index_of(b0, b1)
    v0, v1, v2 = b0.slope, b1.slope, b2.slope
    t0_of, t1_of, t2_of = (
        _transport_cache(b0),
        _transport_cache(b1),
        _transport_cache(b2),
    )
    out_coords = set(out_space.coords())
    phi2_at = dict(phi2.components)
    rows, cols = out_space.hom_shape
    acc: Dict[Vec, List[List[_EntrySum]]] = {}
    base2v = det2(b2.base_point, v2)
    area_coeff = Fraction(abs(d01), 2 * abs(d02 * d12))
    for y1c, a1 in phi1.components:
        r = base2v - det2(y1c, v2)
        if r.denominator == 1:
            raise DegenerateConfiguration(
                f"the three supports share a point over generator {y1c}"
            )

        def process(k: int) -> bool:
            u = k + r
            area = area_coeff * u * u
            if area >= cutoff:
                return False
            s = Fraction(u, 1) / d02
            t = Fraction(u, 1) / d12
            p0 = (y1c[0] + s * v0[0], y1c[1] + s * v0[1])
            p2 = (y1c[0] + t * v1[0], y1c[1] + t * v1[1])
            if __debug__:
                signed = det2(
                    (y1c[0] - p0[0], y1c[1] - p0[1]),
                    (p2[0] - p0[0], p2[1] - p0[1]),
                )
                assert signed > 0, "triangle orientation selection broke"
            y0g = (p0[0] % 1, p0[1] % 1)
            y2g = (p2[0] % 1, p2[1] % 1)
            assert y0g in out_coords
            a2 = phi2_at.get(y2g)
            if a2 is None and _collect is None:
                return True
            d_arc = _ratio_along((p0[0] - p2[0], p0[1] - p2[1]), v2)
            crossings = (
                _count_markers(b0, y1c, p0)
                + _count_markers(b1, y1c, p2)
                + _count_markers(b2, p2, p0)
            )
            sign = (-1) ** i_y1 * (-1) ** (crossings + 1)
            if _collect is not None:
                _collect.append(
                    {
                        "n": k,
                        "corners": [
                            [str(p0[0]), str(p0[1])],
                            [str(y1c[0]), str(y1c[1])],
                            [str(p2[0]), str(p2[1])],
                        ],
                        "area": {"num": area.numerator, "den": area.denominator},
                        "sign": sign,
                        "arcs": [
                            {"num": e.numerator, "den": e.denominator}
                            for e in (s, -t, -d_arc)
                        ],
                        "crossings": crossings,
                        "output": [str(y0g[0]), str(y0g[1])],
                    }
                )
            if a2 is None:
                return True
            weight = NovikovSeries.q_power(area, sign)
            m = mat_mul(t2_of(-d_arc), mat_mul(a2, mat_mul(t1_of(-t),
                mat_mul(a1, t0_of(s)))))
            m = mat_scale(weight, m)
            sums = acc.get(y0g)
            if sums is None:
                sums = acc[y0g] = [
                    [_EntrySum() for _ in range(cols)] for _ in range(rows)
                ]
            for sum_row, m_row in zip(sums, m):
                for entry, x in zip(sum_row, m_row):
                    entry.add(x)
            return True

        kc = math.floor(-r)
        k = kc
        while process(k):
            k -= 1
        k = kc + 1
        while process(k):
            k += 1
    final = {
        c: tuple(tuple(x.series(cutoff) for x in row) for row in sums)
        for c, sums in acc.items()
    }
    return FloerElement(out_space, final)


def mu2_triangles(
    phi2: FloerElement, phi1: FloerElement, cutoff: Rational
) -> Tuple[FloerElement, List[dict]]:
    """mu2 together with the JSON-ready list of contributing triangles."""
    tris: List[dict] = []
    out = mu2(phi2, phi1, cutoff, _collect=tris)
    return out, tris


def mu2_bruteforce(
    phi2: FloerElement, phi1: FloerElement, cutoff: Rational
) -> FloerElement:
    """Independent oracle for mu2: enumerate all lifts of all three
    lines in a bounding box sized from the cutoff, take pairwise
    intersections as corners, filter by orientation and area (shoelace),
    and deduplicate modulo the deck group."""
    b0, b1, b2, d01, d02, d12 = _chain(phi2, phi1)
    cutoff = Fraction(cutoff)
    out_space = cf(b0, b2)
    if (d01 * d02 * d12) > 0:
        return FloerElement(out_space, {})
    i_y1 = index_of(b0, b1)
    v0, v1, v2 = b0.slope, b1.slope, b2.slope
    supp1 = dict(phi1.components)
    supp2 = dict(phi2.components)
    s_max = math.sqrt(2 * float(cutoff) * abs(d12) / (abs(d01) * abs(d02))) + 1
    t_max = math.sqrt(2 * float(cutoff) * abs(d02) / (abs(d01) * abs(d12))) + 1
    reach = 2 + max(
        s_max * (abs(v0[0]) + abs(v0[1])), t_max * (abs(v1[0]) + abs(v1[1]))
    )
    offsets = [
        int(reach * (abs(v[0]) + abs(v[1])) + abs(det2(b.base_point, v)) + 2)
        for b, v in ((b0, v0), (b1, v1), (b2, v2))
    ]

    def line_meet(va, ca, vb, cb) -> Vec:
        # det(p, va) = ca and det(p, vb) = cb
        d = det2(va, vb)
        x = Fraction(ca * (-vb[0]) - cb * (-va[0]), d)
        y = Fraction(va[1] * cb - vb[1] * ca, d)
        return (x, y)

    acc: Dict[Vec, Matrix] = {}
    seen = set()
    c0_base = det2(b0.base_point, v0)
    c1_base = det2(b1.base_point, v1)
    c2_base = det2(b2.base_point, v2)
    for k0 in range(-offsets[0], offsets[0] + 1):
        c0 = c0_base + k0
        for k1 in range(-offsets[1], offsets[1] + 1):
            c1 = c1_base + k1
            y1 = line_meet(v0, c0, v1, c1)
            if not (-reach <= y1[0] <= reach and -reach <= y1[1] <= reach):
                continue
            y1g = (y1[0] % 1, y1[1] % 1)
            a1 = supp1.get(y1g)
            if a1 is None:
                continue
            for k2 in range(-offsets[2], offsets[2] + 1):
                c2 = c2_base + k2
                p0 = line_meet(v0, c0, v2, c2)
                p2 = line_meet(v1, c1, v2, c2)
                area = Fraction(1, 2) * det2(
                    (y1[0] - p0[0], y1[1] - p0[1]),
                    (p2[0] - p0[0], p2[1] - p0[1]),
                )
                if area <= 0 or area >= cutoff:
                    continue
                shift = (math.floor(y1[0]), math.floor(y1[1]))
                key = (
                    y1[0] - shift[0], y1[1] - shift[1],
                    p0[0] - shift[0], p0[1] - shift[1],
                    p2[0] - shift[0], p2[1] - shift[1],
                )
                if key in seen:
                    continue
                seen.add(key)
                y1n = (key[0], key[1])
                p0n = (key[2], key[3])
                p2n = (key[4], key[5])
                y0g = (p0n[0] % 1, p0n[1] % 1)
                y2g = (p2n[0] % 1, p2n[1] % 1)
                a2 = supp2.get(y2g)
                if a2 is None:
                    continue
                s = _ratio_along((p0n[0] - y1n[0], p0n[1] - y1n[1]), v0)
                t = _ratio_along((p2n[0] - y1n[0], p2n[1] - y1n[1]), v1)
                d_arc = _ratio_along((p0n[0] - p2n[0], p0n[1] - p2n[1]), v2)
                crossings = (
                    _count_markers(b0, y1n, p0n)
                    + _count_markers(b1, y1n, p2n)
                    + _count_markers(b2, p2n, p0n)
                )
                sign = (-1) ** i_y1 * (-1) ** (crossings + 1)
                weight = NovikovSeries.q_power(area, sign)
                m = mat_mul(
                    b2.local_system.transport(-d_arc),
                    mat_mul(
                        a2,
                        mat_mul(
                            b1.local_system.transport(-t),
                            mat_mul(a1, b0.local_system.transport(s)),
                        ),
                    ),
                )
                m = mat_scale(weight, m)
                acc[y0g] = mat_add(acc[y0g], m) if y0g in acc else m
    final = {
        c: tuple(tuple(x.truncated(cutoff) for x in row) for row in m)
        for c, m in acc.items()
    }
    return FloerElement(out_space, final)


def assoc_defect(
    a: FloerElement,
    b: FloerElement,
    c: FloerElement,
    cutoff: Rational,
    slack: Rational = 1,
) -> float:
    """max |coefficient| of mu2(mu2(c,b),a) - mu2(c,mu2(b,a)) on
    exponents < cutoff - slack, for a composable chain
    a in CF(L0,L1), b in CF(L1,L2), c in CF(L2,L3).

    This is the unsigned difference of the two bracketings, so it is
    (near) zero only when deg(a) is even.  For odd deg(a) the bracketings
    are exact negatives (see the module docstring) and the defect is
    twice the largest coefficient of either bracketing."""
    cutoff = Fraction(cutoff)
    lhs = mu2(mu2(c, b, cutoff), a, cutoff)
    rhs = mu2(c, mu2(b, a, cutoff), cutoff)
    return (lhs - rhs).max_abs_coeff(below=cutoff - Fraction(slack))


def vanishes_truncated(
    elem: FloerElement, cutoff: Rational, slack: Rational = 1
) -> bool:
    """True when every coefficient of `elem` sits at valuation >=
    (effective cutoff - slack): zero within the reliable window."""
    window = Fraction(cutoff)
    for _, m in elem.components:
        for row in m:
            for x in row:
                if x.is_zero():
                    continue
                eff = window if x.cutoff is None else min(window, x.cutoff)
                if x.val() < eff - Fraction(slack):
                    return False
    return True


ElementOrSummands = Union[FloerElement, Sequence[FloerElement]]


def _as_summands(e: ElementOrSummands) -> Tuple[FloerElement, ...]:
    if isinstance(e, FloerElement):
        return (e,)
    return tuple(e)


def cone_criterion_mu2_checks(
    c1: FloerElement,
    c2: ElementOrSummands,
    c3: ElementOrSummands,
    cutoff: Rational,
) -> Tuple[bool, bool]:
    """The two mu^2 vanishing conditions of the exact-triangle test for
    Y0 -> Y1 -> Y2 -> Y0[1], with c1 in CF(Y0,Y1), c2 in CF(Y1,Y2),
    c3 in CF(Y2,Y0).

    When Y2 is a direct sum, pass c2 and c3 as aligned sequences of
    per-summand elements; the first product is then the sum over
    summands of mu2(c3_i, c2_i) and the second requires every
    mu2(c1, c3_i) to vanish.  Verdicts use truncated vanishing at
    valuation >= cutoff - 1.
    """
    c2s, c3s = _as_summands(c2), _as_summands(c3)
    if len(c2s) != len(c3s):
        raise ValueError("c2 and c3 need one element per summand of Y2")
    total = None
    for c2i, c3i in zip(c2s, c3s):
        prod = mu2(c3i, c2i, cutoff)
        total = prod if total is None else total + prod
    first = vanishes_truncated(total, cutoff)
    second = all(
        vanishes_truncated(mu2(c1, c3i, cutoff), cutoff) for c3i in c3s
    )
    return first, second
