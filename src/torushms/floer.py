"""Floer cochain spaces and the products mu^1, mu^2 for transverse
straight branes, computed by exact triangle enumeration in the
universal cover.

For three pairwise non-parallel branes L0, L1, L2 and generators
y1 in L0 ∩ L1, y2 in L1 ∩ L2, the triangles contributing to
mu2(phi2, phi1) are enumerated by fixing the lift of y1 in [0,1)^2 and
walking the Z-family of lifts of L2: the signed offset u = k + r of
lift k is affine in k and the triangle area is A u^2, so the lifts with
area below the cutoff are one `novikov.lattice_window` (one isqrt).
`_walk` yields these triangles and has two consumers: `mu2` sums the
ones whose y2 corner phi2 weights, and `mu2_triangles` also lists every
triangle with its exact boundary data (`_boundary`) as a plain tuple,
which `cli` renders.  Each triangle contributes

    sign * q^area * T2 . phi2(y2) . T1 . phi1(y1) . T0

where the T_i are local-system parallel transports along the boundary
arcs (arc fractions s, -t, -d against each brane's oriented direction)
and sign = (-1)^(i(y1)) * (-1)^(crossings+1), with `crossings` the
number of Pin markers met by the triangle boundary.  When all three
local systems have rank 1, `_sum` forms this product without matrices,
with the same factors in the same order; a transport whose eigenvalue is
one exact term c0 is then the scalar exp(t log c0).  A local system of
rank 2 or more sends the whole product through the matrix loop: matrix
transports and four `mat_mul`s per triangle.  Both add each triangle's
entries with `novikov._RunningSum.add_product`.  Only triangles
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
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import record
from .errors import (
    DegenerateConfiguration,
    MarkerCollision,
    NonTransverse,
)
from .novikov import (
    NovikovSeries,
    Rational,
    _kept,
    _RunningSum,
    _largest,
    lattice_window,
    vanishes,
    verdict_window,
)
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
    mat_max_abs,
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


@record
class CFSpace:
    """The cochain space CF(L0, L1) = sum over y of Hom(E0|_y, E1|_y)."""

    l0: Brane
    l1: Brane
    points: Tuple[IntersectionPoint, ...]

    @property
    def hom_shape(self) -> Tuple[int, int]:
        """(rows, cols) of a component matrix: rk(E1) x rk(E0)."""
        return (self.l1.rank, self.l0.rank)

    def coords(self) -> Tuple[Vec, ...]:
        return tuple(p.coords for p in self.points)


def cf(l0: Brane, l1: Brane) -> CFSpace:
    """Build CF(L0,L1); raises NonTransverse for parallel slopes and
    MarkerCollision if a Pin marker sits on an intersection point."""
    return CFSpace(l0, l1, intersections(l0, l1))


def _mat_is_zero(m: Matrix) -> bool:
    return all(x.is_zero() for row in m for x in row)


@record
class FloerElement:
    """An element of CF(L0,L1): matrix-valued coefficients on the
    intersection points (shape rk(E1) x rk(E0) each), at most one per
    point, sorted on the coordinates as given."""

    space: CFSpace
    components: Tuple[Tuple[Vec, Matrix], ...]

    def __init__(self, space: CFSpace, components):
        if isinstance(components, dict):
            components = components.items()
        # keys are the space's own coordinate objects, shared, not copies
        valid = {c: c for c in space.coords()}
        shape = space.hom_shape
        clean, seen = [], set()
        for coords, matrix in sorted(components, key=itemgetter(0)):
            coords = (Fraction(coords[0]) % 1, Fraction(coords[1]) % 1)
            if coords not in valid:
                raise ValueError(
                    f"{coords} is not an intersection point of the pair"
                )
            if coords in seen:
                raise ValueError(f"generator {coords} is given twice")
            seen.add(coords)
            coords = valid[coords]
            matrix = tuple(tuple(row) for row in matrix)
            widths = {len(row) for row in matrix}
            if len(widths) > 1:
                raise ValueError(
                    f"component at {coords} has rows of lengths "
                    f"{sorted(widths)}, expected {shape[1]} each"
                )
            got = (len(matrix), widths.pop() if widths else 0)
            if got != shape:
                raise ValueError(
                    f"component at {coords} has shape {got}, expected {shape}"
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
        return _largest(mat_max_abs(m, below) for _, m in self.components)

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


def _unit_matrix(space: CFSpace, scale=1) -> Matrix:
    """A generator's default component: `scale` times the matrix unit e00
    (1 in the top-left entry, 0 elsewhere).  Unless both local systems
    have rank 1 the corner is complex: `NovikovSeries.one()` at scale 1."""
    rows, cols = space.hom_shape
    corner = NovikovSeries.constant(scale if rows == cols == 1 else complex(scale))
    zero = NovikovSeries.zero()
    return tuple(
        tuple(corner if r == c == 0 else zero for c in range(cols)) for r in range(rows)
    )


def generator_element(
    l0: Brane, l1: Brane, coords: Vec, matrix=None, scale=1
) -> FloerElement:
    """The generator at `coords` with the hom-space `matrix`, by default
    `_unit_matrix`: `scale`, or `scale` times e00 on higher ranks."""
    space = cf(l0, l1)
    if matrix is None:
        matrix = _unit_matrix(space, scale)
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


def _triangle_window(d01: int, d02: int, d12: int, cutoff: Fraction):
    """X with a triangle's area |d01| u^2 / (2 |d02 d12|) below `cutoff`
    exactly when u^2 < X, or None when d01 d02 d12 > 0: then every corner
    cycle is negatively oriented for this ordered product, none counts."""
    return None if d01 * d02 * d12 > 0 else 2 * abs(d02 * d12) * cutoff / abs(d01)


def _walk(phi1: FloerElement, chain, cutoff: Fraction):
    """Yield each triangle of mu2(phi2, phi1) with area below `cutoff` as
    (k, y1c, a1, s, t, area, p0, p2), where phi1 is a1 at y1c and the
    lift k of L2 meets L0 at p0 = y1c + s*v0 and L1 at p2 = y1c + t*v1.
    Per generator, u = k + r and k runs through `lattice_window(r, X)`:
    down from floor(-r), then up.  `chain` is `_chain(phi2, phi1)`."""
    b0, b1, b2, d01, d02, d12 = chain
    X = _triangle_window(d01, d02, d12, cutoff)
    if X is None:
        return
    assert index_of(b0, b2) == index_of(b0, b1) + index_of(b1, b2)
    v0, v1, v2 = b0.slope, b1.slope, b2.slope
    base2v = det2(b2.base_point, v2)
    area_coeff = Fraction(abs(d01), 2 * abs(d02 * d12))
    for y1c, a1 in phi1.components:
        r = base2v - det2(y1c, v2)
        if r.denominator == 1:
            raise DegenerateConfiguration(
                f"the three supports share a point over generator {y1c}"
            )
        lo, hi = lattice_window(r, X)
        kc = math.floor(-r)
        for ks in (range(kc, lo - 1, -1), range(kc + 1, hi)):
            for k in ks:
                u = k + r
                area = area_coeff * u * u
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
                yield k, y1c, a1, s, t, area, p0, p2


def _boundary(
    b0: Brane, b1: Brane, b2: Brane, i_y1: int, y1c: Vec, p0: Vec, p2: Vec
) -> Tuple[Fraction, int, int]:
    """(d_arc, crossings, sign) of one triangle: the arc from p2 to p0
    along L2, the Pin markers on its boundary, and its sign."""
    d_arc = _ratio_along((p0[0] - p2[0], p0[1] - p2[1]), b2.slope)
    crossings = (
        _count_markers(b0, y1c, p0)
        + _count_markers(b1, y1c, p2)
        + _count_markers(b2, p2, p0)
    )
    return d_arc, crossings, (-1) ** i_y1 * (-1) ** (crossings + 1)


def _term_series(term) -> NovikovSeries:
    """The exact one-term series of a term (e, c) whose c is kept."""
    return NovikovSeries._canonical((term,), None)


def _add_rank1(entry: _RunningSum, ops, area: Fraction, sign: int) -> None:
    """Add q_power(area, sign) * (f4 * (f3 * (f2 * (f1 * f0)))) to `entry`,
    with the same products in the same order as the 1 x 1 matrix chain,
    for ops = (f0, ..., f4): a series, an exact term (e, c) with c kept,
    or None for the exact zero, which makes the whole product zero.

    Exact terms before the first series x fold into one term `right`,
    those after it go to `lefts`, and `add_product` applies both in its
    one pass over x.  Only a second series (a series-unit transport and a
    multi-term generator) forms a product series."""
    x = right = None
    lefts = []
    for op in ops:
        if op is None:
            return
        if type(op) is not tuple and op.cutoff is None and len(op.terms) <= 1:
            if not op.terms:
                return
            op = op.terms[0]
        if type(op) is not tuple:
            if x is not None:
                if right is not None:
                    x = x * _term_series(right)
                for term in lefts:
                    x = _term_series(term) * x
                right, lefts = None, []
                op = op * x
            x = op
        elif x is not None:
            lefts.append(op)
        elif right is None:
            right = op
        else:
            c = _kept(op[1] * right[1])
            if c is None:
                return
            right = (right[0] + op[0] if op[0] else right[0], c)
    if x is None:  # every factor is an exact term
        x, right = _term_series(right), None
    shift = area
    for e, _ in lefts if right is None else [right, *lefts]:
        if e:
            shift = shift + e
    entry.add_product(
        shift.numerator,
        shift.denominator,
        x,
        None if right is None else right[1],
        [c for _, c in lefts] + [sign],
        shift,
    )


def _sum(phi2: FloerElement, chain, cutoff: Fraction, triangles) -> FloerElement:
    """mu2(phi2, phi1) over `triangles` from `_walk` on `chain`, skipping
    those whose y2 corner phi2 does not weight.

    When all three local systems have rank 1, each triangle's product is
    formed by `_add_rank1` from the 1 x 1 entries and the rank-1
    transports (`LocalSystem._rank1_transport`), without matrices.  Any
    higher rank takes the matrix loop: transports sharing each system's
    eps power tables, four `mat_mul`s, and q_power(area, sign) applied by
    `add_product` as each entry is added."""
    b0, b1, b2, _, _, _ = chain
    out_space = cf(b0, b2)
    i_y1 = index_of(b0, b1)
    phi2_at = dict(phi2.components)
    start = NovikovSeries.zero(cutoff)
    if b0.rank == b1.rank == b2.rank == 1:
        t0, t1, t2 = [b.local_system._rank1_transport() for b in (b0, b1, b2)]
        entries: Dict[Vec, _RunningSum] = {}
        for _, y1c, a1, s, t, area, p0, p2 in triangles:
            a2 = phi2_at.get((p2[0] % 1, p2[1] % 1))
            if a2 is None:
                continue
            d_arc, _, sign = _boundary(b0, b1, b2, i_y1, y1c, p0, p2)
            y0g = (p0[0] % 1, p0[1] % 1)
            entry = entries.get(y0g)
            if entry is None:
                entry = entries[y0g] = _RunningSum(start)
            ops = (t0(s), a1[0][0], t1(-t), a2[0][0], t2(-d_arc))
            _add_rank1(entry, ops, area, sign)
        return FloerElement(
            out_space, {c: ((x.series(),),) for c, x in entries.items()}
        )
    (l0, e0), (l1, e1), (l2, e2) = [
        (b.local_system, b.local_system._eps_tables()) for b in (b0, b1, b2)
    ]
    rows, cols = out_space.hom_shape
    acc: Dict[Vec, List[List[_RunningSum]]] = {}
    for _, y1c, a1, s, t, area, p0, p2 in triangles:
        a2 = phi2_at.get((p2[0] % 1, p2[1] % 1))
        if a2 is None:
            continue
        d_arc, _, sign = _boundary(b0, b1, b2, i_y1, y1c, p0, p2)
        m = mat_mul(l2.transport(-d_arc, e2), mat_mul(a2, mat_mul(
            l1.transport(-t, e1), mat_mul(a1, l0.transport(s, e0)))))
        y0g = (p0[0] % 1, p0[1] % 1)
        sums = acc.get(y0g)
        if sums is None:
            sums = acc[y0g] = [
                [_RunningSum(start) for _ in range(cols)] for _ in range(rows)
            ]
        lefts = (sign,)
        for sum_row, m_row in zip(sums, m):
            for entry, x in zip(sum_row, m_row):
                entry.add_product(
                    area.numerator, area.denominator, x, None, lefts, area
                )
    final = {
        c: tuple(tuple(x.series() for x in row) for row in sums)
        for c, sums in acc.items()
    }
    return FloerElement(out_space, final)


def mu2(phi2: FloerElement, phi1: FloerElement, cutoff: Rational) -> FloerElement:
    """The triangle product CF(L1,L2) x CF(L0,L1) -> CF(L0,L2),
    truncated at `cutoff`."""
    cutoff = Fraction(cutoff)
    chain = _chain(phi2, phi1)
    return _sum(phi2, chain, cutoff, _walk(phi1, chain, cutoff))


def mu2_triangles(
    phi2: FloerElement, phi1: FloerElement, cutoff: Rational
) -> Tuple[FloerElement, List[tuple]]:
    """mu2 and every triangle of its walk, weighted by phi2 or not, as
    (n, (p0, y1, p2), area, sign, (s, -t, -d_arc), crossings): the lift n
    of L2, the corners on L0∩L2, L0∩L1 and L1∩L2, the exact area, the
    sign, the transported arcs along L0, L1, L2, and the Pin markers met."""
    b0, b1, b2, _, _, _ = chain = _chain(phi2, phi1)
    cutoff = Fraction(cutoff)
    i_y1 = index_of(b0, b1)
    tris: List[tuple] = []

    def listed():
        for tri in _walk(phi1, chain, cutoff):
            k, y1c, _, s, t, area, p0, p2 = tri
            d_arc, crossings, sign = _boundary(b0, b1, b2, i_y1, y1c, p0, p2)
            tris.append((k, (p0, y1c, p2), area, sign, (s, -t, -d_arc), crossings))
            yield tri

    return _sum(phi2, chain, cutoff, listed()), tris


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
) -> float:
    """max |coefficient| of mu2(mu2(c,b),a) - mu2(c,mu2(b,a)) on
    exponents below `novikov.verdict_window(cutoff)`, for a composable chain
    a in CF(L0,L1), b in CF(L1,L2), c in CF(L2,L3).

    This is the unsigned difference of the two bracketings, so it is
    (near) zero only when deg(a) is even.  For odd deg(a) the bracketings
    are exact negatives (see the module docstring) and the defect is
    twice the largest coefficient of either bracketing."""
    cutoff = Fraction(cutoff)
    lhs = mu2(mu2(c, b, cutoff), a, cutoff)
    rhs = mu2(c, mu2(b, a, cutoff), cutoff)
    return (lhs - rhs).max_abs_coeff(below=verdict_window(cutoff))


def vanishes_truncated(elem: FloerElement, cutoff: Rational) -> bool:
    """True when every entry of `elem` vanishes at `cutoff`
    (`novikov.vanishes`): zero within the reliable window."""
    return all(
        vanishes(x, cutoff) for _, m in elem.components for row in m for x in row
    )


def cone_criterion_mu2_checks(
    c1: FloerElement,
    c2: Sequence[FloerElement],
    c3: Sequence[FloerElement],
    cutoff: Rational,
) -> Tuple[bool, bool]:
    """The two mu^2 vanishing conditions of the exact-triangle test for
    Y0 -> Y1 -> Y2 -> Y0[1], with c1 in CF(Y0,Y1) and, for each summand
    Y2_i of Y2, c2[i] in CF(Y1,Y2_i) and c3[i] in CF(Y2_i,Y0).

    c2 and c3 are aligned, non-empty sequences of per-summand elements,
    one each when Y2 is indecomposable.  The first product is the sum over
    summands of mu2(c3[i], c2[i]) and the second requires every
    mu2(c1, c3[i]) to vanish.  Each verdict is `vanishes_truncated`,
    the one rule of `novikov.vanishes`.
    """
    if len(c2) != len(c3):
        raise ValueError("c2 and c3 need one element per summand of Y2")
    if not c2:
        raise ValueError("Y2 needs at least one summand")
    total = mu2(c3[0], c2[0], cutoff)
    for c2i, c3i in zip(c2[1:], c3[1:]):
        total = total + mu2(c3i, c2i, cutoff)
    first = vanishes_truncated(total, cutoff)
    second = all(
        vanishes_truncated(mu2(c1, c3i, cutoff), cutoff) for c3i in c3
    )
    return first, second
