"""Floer cochain spaces and the products mu^1, mu^2 for transverse
straight branes, computed by exact triangle enumeration in the
universal cover.

For three pairwise non-parallel branes L0, L1, L2 and generators
y1 in L0 ∩ L1, y2 in L1 ∩ L2, the triangles contributing to
mu2(phi2, phi1) are enumerated by fixing the lift of y1 in [0,1)^2 and
walking the Z-family of lifts of L2: the signed offset u = k + r of
lift k is affine in k and the triangle area is A u^2, so the lifts with
area below the cutoff are one `novikov.lattice_window` (one isqrt).
A generator is an index into its `CFSpace`, which stores the pair's
lattice: one denominator and the sorted integer numerator pairs of its
intersection points; a `FloerElement` holds its components by index.
`_walk` steps on integers read off the three spaces' lattices: U = R u
for one denominator R per call, corners as integer numerators reduced
mod 1 by `%` and found in one map per space, and marker counts as
floors of affine functions of U.  It yields the triangles whose y2
corner phi2 weights, which `mu2` sums, and for `mu2_triangles` lists
every triangle with its exact boundary data as a plain tuple, which
`cli` renders.  It forms a few Fractions per call and none per
generator or triangle, except in that listing.
Per brane, its base and marker points are integer numerators held on it
(`torus.held_lattice`); per product, R, the area denominator 2|d02
d12|R^2, the arcs' denominators, the marker forms, the transports and the
path are formed once; per triangle, only what depends on U.
Each triangle contributes

    sign * q^area * T2 . phi2(y2) . T1 . phi1(y1) . T0

where the T_i are local-system parallel transports along the boundary
arcs (arc fractions s, -t, -d against each brane's oriented direction)
and sign = (-1)^(i(y1)) * (-1)^(crossings+1), with `crossings` the
number of Pin markers met by the triangle boundary.  `_sum` forms it
with the factors, products and sums of four `mat_mul`s in their order:
on three rank-1 systems without matrices, where a triangle of exact
one-term factors (`torus.scalar_power` for a constant eigenvalue: the
constant 1, without log or exp, on a trivial system) is one scalar chain
and builds no series; where every eigenvalue and generator
entry is an exact constant, on scalars (`torus.scalar_chain`: a Jordan
transport is one scalar per superdiagonal, and exact zeros form no
product, so an e00 generator touches one row or column); otherwise by
the matrix loop.
Only triangles whose corner cycle (y0, y1, y2) has positive signed area
contribute to this ordered product; when the slope data forces the
opposite orientation the product is identically zero (and degree
additivity i(y0) = i(y1) + i(y2) fails, consistently).

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
import bisect
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import record
from .errors import DegenerateConfiguration, MarkerCollision, NonTransverse
from .novikov import (
    NovikovSeries,
    Rational,
    _kept,
    _RunningSum,
    _largest,
    lattice_bound,
    lattice_window,
    vanishes,
    verdict_window,
)
from .torus import (
    Brane,
    Matrix,
    Vec,
    bezout,
    det2,
    held_lattice,
    index_of,
    intersections,
    lattice_denominator,
    mat_add,
    mat_max_abs,
    mat_mul,
    mat_scale,
    scalar_chain,
    scalar_columns,
    scalar_power,
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
    """The cochain space CF(L0, L1) = sum over y of Hom(E0|_y, E1|_y),
    and the owner of the generator format: generator i is the point
    nums[i] / den on the pair's lattice, as `torus.intersections` sorts
    them; `points` forms the coordinates on read, and `index` maps them
    back.  Each has degree `torus.index_of(l0, l1)`."""

    l0: Brane
    l1: Brane
    den: int
    nums: Tuple[Tuple[int, int], ...]

    def __repr__(self):
        return f"CFSpace(l0={self.l0!r}, l1={self.l1!r}, points={self.points!r})"

    @property
    def hom_shape(self) -> Tuple[int, int]:
        """(rows, cols) of a component matrix: rk(E1) x rk(E0)."""
        return (self.l1.rank, self.l0.rank)

    def point(self, i: int) -> Vec:
        """The coordinates of generator i."""
        x, y = self.nums[i]
        return Fraction(x, self.den), Fraction(y, self.den)

    def coords(self) -> Tuple[Vec, ...]:
        return tuple(map(self.point, range(len(self.nums))))

    points = property(coords)

    def index(self, coords) -> Optional[int]:
        """The index of the generator at `coords` (read mod 1), or None
        where no generator sits."""
        den, key = self.den, []
        for c in (coords[0], coords[1]):
            num, d = (c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio()
            if den % d:
                return None
            key.append(num * (den // d) % den)
        i = bisect.bisect_left(self.nums, key := tuple(key))
        return i if self.nums[i:i + 1] == (key,) else None


def cf(l0: Brane, l1: Brane) -> CFSpace:
    """Build CF(L0,L1); raises NonTransverse for parallel slopes and
    MarkerCollision if a Pin marker sits on an intersection point."""
    return CFSpace(l0, l1, lattice_denominator(l0, l1), intersections(l0, l1))


@record
class FloerElement:
    """An element of CF(L0,L1): matrix-valued coefficients on the
    generators (shape rk(E1) x rk(E0) each), held by generator index
    (`entries`, ascending, no zero matrix).  It is built from (coordinates,
    matrix) pairs, or a dict of them; `components` forms those on read."""

    space: CFSpace
    entries: Tuple[Tuple[int, Matrix], ...]

    def __init__(self, space: CFSpace, components):
        if isinstance(components, dict):
            components = components.items()
        shape = space.hom_shape
        entries = {}
        for coords, matrix in sorted(components, key=itemgetter(0)):
            i = space.index(coords)
            if i is None or i in entries:
                coords = (Fraction(coords[0]) % 1, Fraction(coords[1]) % 1)
                raise ValueError(f"generator {coords} is given twice" if i is not None
                                 else f"{coords} is not an intersection point of the pair")
            matrix = tuple(tuple(row) for row in matrix)
            widths = {len(row) for row in matrix}
            if len(widths) > 1:
                raise ValueError(
                    f"component at {space.point(i)} has rows of lengths "
                    f"{sorted(widths)}, expected {shape[1]} each"
                )
            got = (len(matrix), widths.pop() if widths else 0)
            if got != shape:
                raise ValueError(
                    f"component at {space.point(i)} has shape {got}, expected {shape}"
                )
            entries[i] = matrix
        _fill(self, space, sorted(entries.items()))

    def __repr__(self):
        return f"FloerElement(space={self.space!r}, components={self.components!r})"

    # -- queries -------------------------------------------------------

    @property
    def components(self) -> Tuple[Tuple[Vec, Matrix], ...]:
        return tuple((self.space.point(i), m) for i, m in self.entries)

    def component(self, coords: Vec) -> Optional[Matrix]:
        return dict(self.entries).get(self.space.index(coords))

    def support(self) -> Tuple[Vec, ...]:
        return tuple(self.space.point(i) for i, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def degree(self) -> int:
        return index_of(self.space.l0, self.space.l1)

    def max_abs_coeff(self, below: Optional[Rational] = None) -> float:
        return _largest(mat_max_abs(m, below) for _, m in self.entries)

    # -- linear structure -----------------------------------------------

    def __add__(self, other: "FloerElement") -> "FloerElement":
        if not isinstance(other, FloerElement):
            return NotImplemented
        if (self.space.l0, self.space.l1) != (other.space.l0, other.space.l1):
            raise ValueError("cannot add elements of different CF spaces")
        acc: Dict[int, Matrix] = dict(self.entries)
        for i, m in other.entries:
            acc[i] = mat_add(acc[i], m) if i in acc else m
        return _fill(object.__new__(FloerElement), self.space, sorted(acc.items()))

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar) -> "FloerElement":
        if isinstance(scalar, (int, float, complex, Fraction)):
            scalar = NovikovSeries.constant(scalar)
        if not isinstance(scalar, NovikovSeries):
            return NotImplemented
        return _fill(object.__new__(FloerElement), self.space,
                     [(i, mat_scale(scalar, m)) for i, m in self.entries])

    __rmul__ = __mul__


def _fill(elem: FloerElement, space: CFSpace, entries) -> FloerElement:
    """Set elem's fields: `space`, and the (index, matrix) pairs `entries`,
    ascending by index, without their zero matrices."""
    object.__setattr__(elem, "space", space)
    object.__setattr__(elem, "entries", tuple(
        (i, m) for i, m in entries if not all(x.is_zero() for row in m for x in row)))
    return elem


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


def _composed(phi2: FloerElement, phi1: FloerElement) -> Tuple[Brane, Brane, Brane]:
    """(L0, L1, L2) of mu2(phi2, phi1); ValueError unless phi2 starts where phi1 lands."""
    if phi1.space.l1 != phi2.space.l0:
        raise ValueError(
            "mu2 inputs are not composable: phi1 lands in a different "
            "brane than phi2 starts from"
        )
    return phi1.space.l0, phi1.space.l1, phi2.space.l1


def _chain(b0: Brane, b1: Brane, b2: Brane):
    """(b0, b1, b2, d01, d02, d12); NonTransverse for a parallel pair."""
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


def _marker_form(held, R: int, arc: Fraction, drift: Fraction):
    """(M, F, Z, C, A, B, forward) for one brane's boundary arc of the
    triangles over each generator y1 = Y/R: the arc is arc*U, and the
    Pin-marker lift (held = `torus.held_lattice` of the brane: the marker
    lift mk = (mx, my)/D and the bezout pair (a, b) of the slope) sits
    c1 - drift*U along it from its start, for c1 = a (mk - y1)_x + b (mk -
    y1)_y, so M c1 = C - A Y_x - B Y_y.  The arc meets floor((F U - M
    c1)/M) - floor((Z U - M c1)/M) marker lifts, negated when it runs
    backwards (`forward` is arc > 0, for U > 0); a numerator divisible by
    M puts a lift on a corner."""
    D, _, (mx, my), (a, b) = held
    hi = arc + drift
    M = math.lcm(hi.denominator, drift.denominator, D, R)
    return (M, hi.numerator * (M // hi.denominator),
            drift.numerator * (M // drift.denominator),
            (a * mx + b * my) * (M // D), a * (M // R), b * (M // R), arc > 0)


def _walk(s1: CFSpace, comps1, s2: CFSpace, comps2, s0: CFSpace, chain, R: int,
          cutoff: Fraction, listing: Optional[list] = None):
    """Yield each triangle of mu2(phi2, phi1) with area below `cutoff`
    whose y2 corner phi2 weights, as (y0, a1, a2, U, sign): y0 an index
    of s0 = CF(L0, L2), a1 and a2 values of the (index, value) pairs
    comps1 and comps2 on s1 and s2; with `listing`, append every triangle
    as `mu2_triangles` lists it.  `chain` is `_chain` of the three branes.

    One lattice per call, read off the spaces and the branes' held
    lattices: every y1 = Y/R and r are integers over R = lcm(s1.den, L2's
    shift denominator), which `_sum` passes.  Per y1, u =
    k + r, and k runs through `lattice_window(r, X)` (|U| <= m for U = R
    u): down from floor(-r), then up.  U gives s = U/(R d02), t = U/(R
    d12), the L2 arc d_arc = -U d01/(R d02 d12) (as d12 v0 - d02 v1 =
    -d01 v2), the area |d01| U^2/(2 |d02 d12| R^2), and the corners p0 =
    y1 + s v0 and p2 = y1 + t v1 as integer vectors over D0 = R|d02| and
    D2 = R|d12|, found in one map each of s0's and s2's generators."""
    b0, b1, b2, d01, d02, d12 = chain
    X = _triangle_window(d01, d02, d12, cutoff)
    if X is None:
        return
    assert index_of(b0, b2) == index_of(b0, b1) + index_of(b1, b2)
    branes = (b0, b1, b2)
    v0, v1, v2 = b0.slope, b1.slope, b2.slope
    D0, D2 = R * abs(d02), R * abs(d12)
    f0, f1, f2 = D0 // s0.den, R // s1.den, D2 // s2.den
    y0_at = {(x * f0, y * f0): i for i, (x, y) in enumerate(s0.nums)}
    y2_at = {(s2.nums[j][0] * f2, s2.nums[j][1] * f2): a2 for j, a2 in comps2}
    m = lattice_window(0, X * R * R)[1] - 1  # |U| <= m, or m = -1: none
    held = [held_lattice(b) for b in branes]
    Db, base2, _, bez2 = held[2]
    drift = bez2[0] * v1[0] + bez2[1] * v1[1]  # L2's marker per unit t
    arcs = (Fraction(1, R * d02), 0), (Fraction(1, R * d12), 0), (
        Fraction(-d01, R * d02 * d12), Fraction(drift, R * d12))
    forms = [_marker_form(h, R, *a) for h, a in zip(held, arcs)]
    base2v = det2(base2, v2) * R // Db
    deg = (-1) ** index_of(b0, b1)
    e0, e2 = (1 if d02 > 0 else -1), (1 if d12 > 0 else -1)
    for j, a1 in comps1:
        Y = (s1.nums[j][0] * f1, s1.nums[j][1] * f1)
        Rr = base2v - det2(Y, v2)
        if Rr % R == 0:
            raise DegenerateConfiguration(
                f"the three supports share a point over generator {s1.point(j)}"
            )
        marks = [(M, F, Z, C - A * Y[0] - B * Y[1], forward)
                 for M, F, Z, C, A, B, forward in forms]
        # p0 = (Y |d02| + U e0 v0) / D0 and p2 = (Y |d12| + U e2 v1) / D2
        n0, g0 = (Y[0] * abs(d02), Y[1] * abs(d02)), (e0 * v0[0], e0 * v0[1])
        n2, g2 = (Y[0] * abs(d12), Y[1] * abs(d12)), (e2 * v1[0], e2 * v1[1])
        lo, hi = -((m + Rr) // R), (m - Rr) // R + 1
        kc = -Rr // R
        for ks in (range(kc, lo - 1, -1), range(kc + 1, hi)):
            for k in ks:
                U = k * R + Rr
                p2x, p2y = n2[0] + U * g2[0], n2[1] + U * g2[1]
                a2 = y2_at.get((p2x % D2, p2y % D2))
                if a2 is None and listing is None:
                    continue
                p0x, p0y = n0[0] + U * g0[0], n0[1] + U * g0[1]
                if __debug__:  # R D0 (y1 - p0) x D0 D2 (p2 - p0) > 0
                    ex, ey = Y[0] * D0 - p0x * R, Y[1] * D0 - p0y * R
                    fx, fy = p2x * D0 - p0x * D2, p2y * D0 - p0y * D2
                    assert ex * fy - ey * fx > 0, "triangle orientation selection broke"
                crossings = 0
                for brane, (M, F, Z, C, forward) in zip(branes, marks):
                    f, z = F * U - C, Z * U - C
                    if not (f % M and z % M):
                        raise MarkerCollision(
                            f"Pin marker of {brane} sits on a triangle corner"
                        )
                    n = f // M - z // M
                    crossings += n if (U > 0) == forward else -n
                sign = -deg if crossings % 2 == 0 else deg
                if listing is not None:
                    p0, p2 = (Fraction(p0x, D0), Fraction(p0y, D0)), (
                        Fraction(p2x, D2), Fraction(p2y, D2))
                    area = Fraction(abs(d01) * U * U, 2 * abs(d02 * d12) * R * R)
                    turns = Fraction(U, R * d02), Fraction(-U, R * d12), Fraction(
                        U * d01, R * d02 * d12)  # s, -t, -d_arc
                    listing.append((k, (p0, s1.point(j), p2), area, sign, turns, crossings))
                if a2 is not None:
                    yield y0_at[p0x % D0, p0y % D0], a1, a2, U, sign


def _rank1_factor(x: NovikovSeries):
    """x as an `_add_rank1` factor: c or (key, den, c) for one exact term, else x."""
    if x.cutoff is not None or len(x._keys) != 1:
        return x
    k = x._keys[0]
    return (k, x._den, x._coeffs[0]) if k else x._coeffs[0]


def _add_rank1(entry: _RunningSum, ops, num: int, den: int, sign: int) -> None:
    """Add q_power(num/den, sign) * (f4 * (f3 * (f2 * (f1 * f0)))) to
    `entry` by the products of the 1 x 1 matrix chain, in their order, for
    ops = (f0, ..., f4): a kept coefficient c at exponent 0, an exact term
    (key, den, c), a series, or None, the exact zero (no product at all).

    Exact factors before the first series x fold into one scalar `right`,
    signed and added (`add_term`) if there is no x; those after x go to
    `lefts`, which `add_product` applies with `right` in one pass over x,
    unless a second series multiplies x after them.  Exponents of exact
    factors shift every product alike: their sum joins the area's."""
    x = right = None
    lefts = []
    en, ed = 0, 1  # the summed exponent of the exact factors
    for op in ops:
        if op is None:
            return
        if type(op) is tuple:
            k, d, op = op
            en, ed = en * d + k * ed, ed * d
        elif type(op) is NovikovSeries:
            if x is not None:  # x times its factors so far, then op * x
                x = x if right is None else x * right
                for f in lefts:
                    x = NovikovSeries.constant(f) * x
                right, lefts = None, []
            x = op if x is None else op * x
            continue
        if x is not None:
            lefts.append(op)
        elif right is None:
            right = op
        elif (right := _kept(op * right)) is None:
            return
    if en:
        num, den = num * ed + en * den, den * ed
    if x is not None:
        entry.add_product(num, den, x, right, lefts + [sign])
    elif (right := _kept(sign * right)) is not None:
        entry.add_term(num, den, right)


def _arc_transport(system, scalar, path: str):
    """(num, den) -> `system`'s transport over num/den as `path` takes it
    (`scalar` is `system.scalar_transport()`); "rank1" an `_add_rank1` op."""
    if path == "matrix":
        return lambda num, den: system.transport(Fraction(num, den))
    if scalar is None:  # a series eigenvalue on rank 1
        return lambda num, den: system.transport(Fraction(num, den))[0][0]
    if path == "rank1":
        return scalar_power(system.blocks[0][0]._coeffs[0])
    scalars, blocks = scalar
    return lambda num, den: (scalars(num, den), blocks)


def _sum(phi2: FloerElement, phi1: FloerElement, cutoff: Rational,
         listing: Optional[list] = None) -> FloerElement:
    """mu2(phi2, phi1) over the triangles `_walk` yields.

    The inputs pick the path (module docstring), never the bits: rank 1
    by `_add_rank1`; exact constants by `scalar_chain`, each entry signed
    and added at the area (`add_term`); else four `mat_mul`s and
    `add_product`.  Transports are over s = U/(R d02), -t = -U/(R d12) and
    -d_arc = U d01/(R d02 d12) as (num, den); an eigenvalue series holds
    its eps powers and inverse, shared by every arc (see `novikov`)."""
    chain = b0, b1, b2, d01, d02, d12 = _chain(*_composed(phi2, phi1))
    cutoff = Fraction(cutoff)
    out_space = cf(b0, b2)
    rows, cols = out_space.hom_shape
    start = NovikovSeries.zero(cutoff)
    systems = [b.local_system for b in (b0, b1, b2)]
    scalars = [ls.scalar_transport() for ls in systems]
    comps1, comps2 = phi1.entries, phi2.entries
    path = "rank1" if rows == cols == systems[1].rank == 1 else "matrix"
    if path == "rank1":
        comps1, comps2 = ([(c, _rank1_factor(m[0][0])) for c, m in comps]
                          for comps in (comps1, comps2))
    elif None not in scalars:
        by_cols = [[(c, scalar_columns(m)) for c, m in comps] for comps in (comps1, comps2)]
        if all(m is not None for comps in by_cols for _, m in comps):
            path, (comps1, comps2) = "scalar", by_cols
    t0, t1, t2 = (_arc_transport(ls, f, path) for ls, f in zip(systems, scalars))
    # per output generator index, the running sum of each entry a product reaches
    acc: Dict[int, Dict[Tuple[int, int], _RunningSum]] = defaultdict(
        lambda: defaultdict(lambda: _RunningSum(start)))
    R = math.lcm(phi1.space.den, b2.shift.denominator)
    triangles = _walk(phi1.space, comps1, phi2.space, comps2, out_space, chain, R,
                      cutoff, listing)
    # per call: the area |d01| U^2 / den, the arcs' denominators and the path
    a01, den = abs(d01), 2 * abs(d02 * d12) * R * R
    q0, q1, q2 = R * d02, R * d12, R * d02 * d12
    rank1, scalar = path == "rank1", path == "scalar"
    for y0, a1, a2, U, sign in triangles:
        sums, num = acc[y0], a01 * U * U
        T0, T1, T2 = t0(U, q0), t1(-U, q1), t2(U * d01, q2)
        if rank1:
            _add_rank1(sums[0, 0], (T0, a1, T1, a2, T2), num, den, sign)
        elif scalar:
            for i, m_row in scalar_chain(a1, T0, T1, a2, T2).items():
                for j, c in m_row.items():
                    c = _kept(sign * c)
                    if c is not None:
                        sums[i, j].add_term(num, den, c)
        else:
            m = mat_mul(T2, mat_mul(a2, mat_mul(T1, mat_mul(a1, T0))))
            lefts = (sign,)
            for i, m_row in enumerate(m):
                for j, x in enumerate(m_row):
                    if x._keys or x.cutoff is not None:
                        sums[i, j].add_product(num, den, x, None, lefts)
    return _fill(object.__new__(FloerElement), out_space, [  # an entry no product reached is `start`
        (y0, tuple(tuple(sums[i, j].series() if (i, j) in sums else start
                         for j in range(cols)) for i in range(rows)))
        for y0, sums in sorted(acc.items())])


def mu2(phi2: FloerElement, phi1: FloerElement, cutoff: Rational) -> FloerElement:
    """The triangle product CF(L1,L2) x CF(L0,L1) -> CF(L0,L2),
    truncated at `cutoff`."""
    return _sum(phi2, phi1, cutoff)


def mu2_triangles(
    phi2: FloerElement, phi1: FloerElement, cutoff: Rational
) -> Tuple[FloerElement, List[tuple]]:
    """mu2 and every triangle of its walk, weighted by phi2 or not, as
    (n, (p0, y1, p2), area, sign, (s, -t, -d_arc), crossings): the lift n
    of L2, the corners on L0∩L2, L0∩L1 and L1∩L2, the exact area, the
    sign, the transported arcs along L0, L1, L2, and the Pin markers met."""
    tris: List[tuple] = []
    return _sum(phi2, phi1, cutoff, tris), tris


def mu2_bruteforce(phi2: FloerElement, phi1: FloerElement,
                   cutoff: Rational) -> FloerElement:
    """Independent oracle for mu2: enumerate all lifts of all three
    lines in a bounding box sized from the cutoff, take pairwise
    intersections as corners, filter by orientation and area (shoelace),
    and deduplicate modulo the deck group."""
    b0, b1, b2, d01, d02, d12 = _chain(*_composed(phi2, phi1))
    cutoff = Fraction(cutoff)
    out_space = cf(b0, b2)
    if (d01 * d02 * d12) > 0:
        return FloerElement(out_space, {})
    i_y1 = index_of(b0, b1)
    v0, v1, v2 = b0.slope, b1.slope, b2.slope
    supp1, supp2 = dict(phi1.components), dict(phi2.components)
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
    c0_base, c1_base, c2_base = (det2(b.base_point, b.slope) for b in (b0, b1, b2))
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
                y1n, p0n, p2n = key[:2], key[2:4], key[4:]
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
                m = mat_mul(b2.local_system.transport(-d_arc), mat_mul(a2, mat_mul(
                    b1.local_system.transport(-t), mat_mul(a1, b0.local_system.transport(s)))))
                m = mat_scale(weight, m)
                acc[y0g] = mat_add(acc[y0g], m) if y0g in acc else m
    final = {
        c: tuple(tuple(x.truncated(cutoff) for x in row) for row in m)
        for c, m in acc.items()
    }
    return FloerElement(out_space, final)


#: The products of `assoc_defect` in the order it forms them, as (L0, L1, L2,
#: phi1, phi2): indices into the chain's branes, and for each input the index
#: of the product that forms it, or None for the chain's own element.
_ASSOC_PRODUCTS = ((1, 2, 3, None, None), (0, 1, 3, None, 0),  # mu2(c, b), then (c b) a
                   (0, 1, 2, None, None), (0, 2, 3, 2, None))  # mu2(b, a), then c (b a)


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
    chain, out = (a, b, c), []
    for i0, i1, _, in1, in2 in _ASSOC_PRODUCTS:
        out.append(mu2(chain[i1] if in2 is None else out[in2],
                       chain[i0] if in1 is None else out[in1], cutoff))
    lhs, rhs = out[1], out[3]
    return (lhs - rhs).max_abs_coeff(below=verdict_window(cutoff))


def _work(branes: Sequence[Brane], cutoff: Rational):
    """What `cf` (two branes), `mu2` (three) and `assoc_defect` (four) form on
    e00 generators, counted in O(1) at any rank: the points of every CF space
    and entries of every component matrix built, and per product (comps1,
    per, weighted, steps, series, squares): phi1's most components, the
    triangles `_walk` steps through per component, the most phi2 weights (y2
    corners have period |d12|), and per weighted triangle: the scalar steps,
    r0 + r1 + r2 transport diagonals plus 4 s0 chain products on generators
    (s0: L0's first Jordan block); the series products `mat_mul` forms on a
    mu2 output, all of whose entries hold its cutoff ((2 + r2 + t2) s0 as
    phi2, r1 t0 + t1 r0 + 2 r0 as phi1, t_i = sum of s (s + 1) / 2 over L_i's
    blocks); and the squared bit lengths of the transports' exact binomials,
    whose gcds are quadratic in them.  On an arc t = p/q with |t| <= T,
    binom(t, d) has fewer than d B bits, B = bits(q) + bits(bits(q)) +
    bits(T) + 3: |binom(t, d)| < (e (T + 1))^d, and its denominator divides
    q^d times q's part of d!.  Exact where no entry drops; the first
    parallel pair ends it."""
    points = entries = 0
    products, outs = [], []  # outs: each product's most output components
    for b0, b1 in zip(branes, branes[1:]):
        if not (d := abs(det2(b0.slope, b1.slope))):
            return points, entries, products
        points, entries = points + d, entries + b0.rank * b1.rank * (len(branes) > 2)
    plan = {3: ((0, 1, 2, None, None),), 4: _ASSOC_PRODUCTS}
    for i0, i1, i2, in1, in2 in plan.get(len(branes), ()):
        try:
            b0, b1, b2, d01, d02, d12 = _chain(branes[i0], branes[i1], branes[i2])
        except NonTransverse:
            break
        X = _triangle_window(d01, d02, d12, Fraction(cutoff))
        per = 0 if X is None else lattice_bound(X)
        comps1, comps2 = (1 if i is None else outs[i] for i in (in1, in2))
        weighted = comps1 * min(per, comps2 * (per // abs(d12) + 1))
        (r0, s0, t0), (r1, _, t1), (r2, _, t2) = (
            (b.rank, b.local_system.blocks[0][1],
             sum(s * (s + 1) // 2 for _, s in b.local_system.blocks)) for b in (b0, b1, b2))
        formed = (r1 * t0 + t1 * r0 + 2 * r0 if in1 is not None
                  else (2 + r2 + t2) * s0 if in2 is not None else 4 * s0)
        series = 0 if (in1, in2) == (None, None) else formed
        # the arcs (U, R d02), (-U, R d12), (U d01, R d02 d12) as `_sum` forms them, |U| <= m
        R = math.lcm(lattice_denominator(b0, b1), b2.shift.denominator)
        m = 0 if X is None else lattice_window(0, X * R * R)[1] - 1
        squares = 0
        for b, q, top in ((b0, R * d02, m), (b1, R * d12, m), (b2, R * d02 * d12, m * d01)):
            q = abs(q)
            nq = q.bit_length()
            B = nq + nq.bit_length() + (-(-abs(top) // q)).bit_length() + 3
            squares += B * B * sum((s - 1) * s * (2 * s - 1) // 6  # (d B)^2, d = 1 .. s - 1
                                   for _, s in b.local_system.blocks)
        products.append((comps1, per, weighted, r0 + r1 + r2 + formed - series, series, squares))
        outs.append(min(abs(d02), weighted))
        points, entries = points + abs(d02), entries + outs[-1] * r0 * r2
    return points, entries, products


def vanishes_truncated(elem: FloerElement, cutoff: Rational) -> bool:
    """True when every entry of `elem` vanishes at `cutoff`
    (`novikov.vanishes`): zero within the reliable window."""
    return all(
        vanishes(x, cutoff) for _, m in elem.entries for row in m for x in row
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
