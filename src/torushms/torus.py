"""Straight Lagrangian branes on the flat torus R^2/Z^2.

A brane is an oriented straight line of primitive slope (m,n) through a
rational base point, together with

  * an integer grading offset (the full grading is alpha0(slope) + k,
    where alpha0 in [-1,1) solves e^(pi*i*alpha0) = (m+in)/|(m,n)|;
    odd offsets flip the orientation),
  * a Pin marker: one crossing point at a rational arc position along
    the curve, measured from the base point in the canonical positive
    direction of the unoriented line (upward, or rightward when
    horizontal) — parallel transport picks up a sign each time a
    boundary arc passes the marker,
  * a local system, stored in its Jordan normal form: blocks
    (eigenvalue, size) with valuation-zero eigenvalues.

Index computations never touch floating-point angles: every floor of a
grading difference reduces to sign tests on integer cross products.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Optional, Tuple

from ._record import record
from .errors import MarkerCollision, NonTransverse, NonUnit
from .novikov import (
    NovikovSeries,
    Rational,
    _ZERO,
    _binom,
    _eps_powers,
    _kept,
    _largest,
    _Powers,
    fractional_power,
    invert,
)

Slope = Tuple[int, int]
Vec = Tuple[Fraction, Fraction]

#: default Pin-marker arc position: 1/2 - 1/64 of the primitive period
DEFAULT_MARKER = Fraction(31, 64)


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def is_primitive(v: Slope) -> bool:
    return v != (0, 0) and math.gcd(v[0], v[1]) == 1


def bezout(m: int, n: int) -> Tuple[int, int]:
    """(a, b) with a*m + b*n = 1 for coprime m, n (extended Euclid)."""
    old_r, r = m, n
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_a, a = a, old_a - quo * a
        old_b, b = b, old_b - quo * b
    if old_r == -1:
        old_a, old_b = -old_a, -old_b
    elif old_r != 1:
        raise ValueError(f"{m} and {n} are not coprime")
    return old_a, old_b


def canonical_direction(v: Slope) -> Slope:
    """The positive direction of the unoriented line through v:
    second coordinate positive, or first positive when horizontal."""
    return v if upper_half(v) else (-v[0], -v[1])


def upper_half(v: Slope) -> int:
    """1 when alpha0(v) >= 0 (direction in the closed upper half plane
    minus the negative x-axis), else 0."""
    m, n = v
    return 1 if (n > 0 or (n == 0 and m > 0)) else 0


def alpha0_floor_diff(v0: Slope, v1: Slope) -> int:
    """floor(alpha0(v1) - alpha0(v0)), exactly, for non-parallel slopes."""
    c = det2(v0, v1)
    if c == 0:
        raise NonTransverse(f"slopes {v0} and {v1} are parallel")
    h0, h1 = upper_half(v0), upper_half(v1)
    diff_positive = (h1 > h0) if h0 != h1 else (c > 0)
    if diff_positive:
        return 0 if c > 0 else 1
    return -1 if c < 0 else -2


# ---------------------------------------------------------------------------
# matrices over NovikovSeries (small, dense, immutable tuples)
# ---------------------------------------------------------------------------

Matrix = Tuple[Tuple[NovikovSeries, ...], ...]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product, each entry summed in order of the inner index.

    A product with an exact-zero factor (no terms, cutoff None) is the
    exact zero, which adds no term and no window to a sum, so it is not
    formed; an entry with no other product is `zero()`.  A zero that
    carries a cutoff is still multiplied: its cutoff reaches the entry.
    """
    cols = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = None
            for x, y in zip(row, col):
                if (x.terms or x.cutoff is not None) and (
                    y.terms or y.cutoff is not None
                ):
                    p = x * y
                    acc = p if acc is None else acc + p  # zero() + p is p
            out_row.append(NovikovSeries.zero() if acc is None else acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_max_abs(a: Matrix, below: Optional[Rational] = None) -> float:
    return _largest(x.max_abs_coeff(below) for row in a for x in row)


# ---------------------------------------------------------------------------
# local systems
# ---------------------------------------------------------------------------


@record
class LocalSystem:
    """Flat bundle in its Jordan normal form: blocks of (eigenvalue,
    size), with all eigenvalues valuation-zero units.  Monodromy and
    every transport are block diagonal in this gauge, each block upper
    triangular."""

    blocks: Tuple[Tuple[NovikovSeries, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("local system needs at least one block")
        norm_blocks = []
        for eig, size in self.blocks:
            if not isinstance(eig, NovikovSeries):
                eig = NovikovSeries.constant(eig)
            if eig.is_zero() or eig.val() != 0:
                raise NonUnit("local-system eigenvalues must have val = 0")
            if size < 1:
                raise ValueError("Jordan block size must be >= 1")
            if size % 1:
                raise ValueError(
                    f"Jordan block size must be an integer, got {size!r}"
                )
            norm_blocks.append((eig, int(size)))
        object.__setattr__(self, "blocks", tuple(norm_blocks))

    @classmethod
    def trivial(cls, rank: int = 1) -> "LocalSystem":
        return cls(((NovikovSeries.one(), 1),) * rank)

    @classmethod
    def from_eigenvalue(cls, eigenvalue, size: int = 1) -> "LocalSystem":
        """The indecomposable system E_M^size: one Jordan block."""
        return cls(((eigenvalue, size),))

    @property
    def rank(self) -> int:
        return sum(size for _, size in self.blocks)

    def is_trivial_rank_one(self) -> bool:
        return self.rank == 1 and (self.blocks[0][0] - 1).is_zero()

    def transport(self, t: Rational, _eps_tables=None) -> Matrix:
        """Parallel transport over an oriented arc fraction t.

        Each Jordan block J = lam*(I + N/lam) contributes
        lam^t * sum_k binom(t,k) (N/lam)^k  (a finite sum since N is
        nilpotent); fractional eigenvalue powers use the principal
        branch, so transport(s) * transport(t) = transport(s+t).  Each
        block is written straight into the output matrix, and its
        diagonal (k = 0) is lam^t itself.

        `_eps_tables`, when given, is `self._eps_tables()`, shared by a
        caller that transports over many arcs.
        """
        t = Fraction(t)
        if _eps_tables is None:
            _eps_tables = self._eps_tables()
        n = self.rank
        zero = NovikovSeries.zero()
        out = [[zero] * n for _ in range(n)]
        offset = 0
        for (eig, size), table in zip(self.blocks, _eps_tables):
            lam_t = fractional_power(eig, t, table)
            inv_eig = invert(eig) if size > 1 else None
            for k in range(size):
                coeff = lam_t if k == 0 else lam_t * _binom(t, k) * inv_eig ** k
                for i in range(offset, offset + size - k):
                    out[i][i + k] = coeff
            offset += size
        return tuple(tuple(row) for row in out)

    def _rank1_transport(self):
        """For a rank-1 system, t -> transport(t)[0][0] without the
        matrix, for a Fraction t.  An eigenvalue that is one exact term c0
        gives the exact term (0, c) with c = 0 + cmath.exp(t * log(c0)),
        the expression `fractional_power` ends in, with log(c0) taken
        once here, or None where the drop rule makes that term zero.  A
        series eigenvalue gives its `fractional_power`, which shares one
        table of eps powers across t."""
        (eig, _), = self.blocks
        if eig.cutoff is None and len(eig.terms) == 1:
            log_c0 = cmath.log(eig.terms[0][1])

            def scalar(t: Fraction):
                c = _kept(cmath.exp(t * log_c0) if t != 0 else 1.0 + 0.0j)
                return None if c is None else (_ZERO, c)

            return scalar
        table = _eps_powers(eig)
        return lambda t: fractional_power(eig, t, table)

    def _eps_tables(self) -> List[_Powers]:
        """The table of eps powers of each block eigenvalue."""
        return [_eps_powers(eig) for eig, _ in self.blocks]

    def monodromy(self) -> Matrix:
        return self.transport(1)

    def inverse_eigen(self) -> "LocalSystem":
        """The system with every eigenvalue inverted (same block shapes)."""
        return LocalSystem(tuple((invert(e), s) for e, s in self.blocks))


def ls_ses_triple(m_eigen, h: int):
    """The short-exact-sequence triple (E^1, E^(h+1), E^h) of
    indecomposable systems with a common eigenvalue."""
    if h < 1:
        raise ValueError("tower height h must be >= 1")
    return (
        LocalSystem.from_eigenvalue(m_eigen, 1),
        LocalSystem.from_eigenvalue(m_eigen, h + 1),
        LocalSystem.from_eigenvalue(m_eigen, h),
    )


# ---------------------------------------------------------------------------
# branes
# ---------------------------------------------------------------------------


@record
class Brane:
    """A straight brane L_{(m,n),x}[k] with Pin marker and local system."""

    slope: Slope
    shift: Fraction = Fraction(0)
    grading_offset: int = 0
    marker: Fraction = DEFAULT_MARKER
    local_system: LocalSystem = LocalSystem.trivial()  # immutable, so shared

    def __post_init__(self):
        if not is_primitive(self.slope):
            raise ValueError(f"slope {self.slope} must be primitive nonzero")
        object.__setattr__(self, "slope", (int(self.slope[0]), int(self.slope[1])))
        # integer translations of the base point give the same circle
        object.__setattr__(self, "shift", Fraction(self.shift) % 1)
        marker = Fraction(self.marker) % 1
        object.__setattr__(self, "marker", marker)

    @property
    def base_point(self) -> Vec:
        """(shift, 0), or (0, shift) for horizontal branes."""
        if self.slope[1] != 0:
            return (self.shift, Fraction(0))
        return (Fraction(0), self.shift)

    @property
    def marker_point(self) -> Vec:
        """Lift of the Pin marker: base + marker * canonical direction."""
        c = canonical_direction(self.slope)
        b = self.base_point
        return (b[0] + self.marker * c[0], b[1] + self.marker * c[1])

    @property
    def homology_class(self) -> Slope:
        """The oriented class; odd grading offsets reverse orientation."""
        m, n = self.slope
        return (m, n) if self.grading_offset % 2 == 0 else (-m, -n)

    def shifted(self, k: int = 1) -> "Brane":
        return Brane(
            self.slope, self.shift, self.grading_offset + k, self.marker,
            self.local_system,
        )

    @property
    def rank(self) -> int:
        return self.local_system.rank

    def __str__(self):
        s = f"L({self.slope[0]},{self.slope[1]};{self.shift})"
        if self.grading_offset:
            s += f"[{self.grading_offset}]"
        return s


@record
class IntersectionPoint:
    """One transverse intersection y of an ordered brane pair, with its
    degree and the arc parameters (fractions of the primitive period
    from each base point, mod 1) at which the branes pass through y."""

    __slots__ = ("coords", "index", "s", "t")
    coords: Vec
    index: int
    s: Fraction
    t: Fraction


def index_of(l0: Brane, l1: Brane) -> int:
    """Degree of every intersection point of the ordered pair:
    floor(alpha1 - alpha0) + 1 with the integer offsets included."""
    return (
        alpha0_floor_diff(l0.slope, l1.slope)
        + l1.grading_offset
        - l0.grading_offset
        + 1
    )


def intersections(l0: Brane, l1: Brane) -> Tuple[IntersectionPoint, ...]:
    """All |det(v0,v1)| intersection points, sorted by coordinates.

    With d = det(v0,v1) and c = det(p1-p0, v1), the points are
    y_j = p0 + s_j*v0 (mod 1) for s_j = (c+j)/d, j = 0..|d|-1; the arc
    parameter on L1 is t = a*(y-p1)_x + b*(y-p1)_y (mod 1), where
    a*v1_x + b*v1_y = 1.

    Raises NonTransverse for parallel slopes and MarkerCollision when a
    Pin marker sits on an intersection point.
    """
    v0, v1 = l0.slope, l1.slope
    d = det2(v0, v1)
    if d == 0:
        raise NonTransverse(f"branes {l0} and {l1} are parallel")
    p0, p1 = l0.base_point, l1.base_point
    idx = index_of(l0, l1)
    a, b = bezout(*v1)
    c = det2((p1[0] - p0[0], p1[1] - p0[1]), v1)
    found = {}
    for j in range(abs(d)):
        s = (c + j) / d
        y = ((p0[0] + s * v0[0]) % 1, (p0[1] + s * v0[1]) % 1)
        t = (a * (y[0] - p1[0]) + b * (y[1] - p1[1])) % 1
        found[y] = (s % 1, t)
    if len(found) != abs(d):
        raise AssertionError(
            f"expected {abs(d)} intersection points, found {len(found)}"
        )
    marker_lifts = (
        (l0, (l0.marker_point[0] % 1, l0.marker_point[1] % 1)),
        (l1, (l1.marker_point[0] % 1, l1.marker_point[1] % 1)),
    )
    pts = []
    for y in sorted(found):
        for brane, mk in marker_lifts:
            if y == mk:
                raise MarkerCollision(
                    f"Pin marker of {brane} sits on intersection point {y}"
                )
        s, t = found[y]
        pts.append(IntersectionPoint(y, idx, s, t))
    return tuple(pts)
