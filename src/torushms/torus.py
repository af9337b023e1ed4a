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

Two branes of different slopes v0, v1 meet in |det(v0, v1)| points, all
on one lattice (1/N)Z^2, N = `lattice_denominator`: |det(v0, v1)| times
the shifts' common denominator.  `intersections` gives their integer
numerators over N in [0, N)^2, sorted, which `floer.CFSpace` stores as
its generators; every point of the ordered pair has the one degree
`index_of` gives.  Index computations never touch floating-point
angles: every floor of a grading difference reduces to sign tests on
integer cross products.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Tuple

from ._record import record
from .errors import MarkerCollision, NonTransverse, NonUnit
from .novikov import (
    NovikovSeries,
    Rational,
    _binomials,
    _fraction_multiple,
    _kept,
    _largest,
    _ratio_dropped,
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
    Each entry's test is read once per call, not once per product.
    """
    cols = tuple(zip(*b))
    live_cols = [[bool(y._keys) or y.cutoff is not None for y in col] for col in cols]
    zero = NovikovSeries.zero()
    out = []
    for row in a:
        live_row = [bool(x._keys) or x.cutoff is not None for x in row]
        out_row = []
        for col, live_col in zip(cols, live_cols):
            acc = None
            for x, y, x_live, y_live in zip(row, col, live_row, live_col):
                if x_live and y_live:
                    p = x * y
                    acc = p if acc is None else acc + p  # zero() + p is p
            out_row.append(zero if acc is None else acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_max_abs(a: Matrix, below: Optional[Rational] = None) -> float:
    return _largest(x.max_abs_coeff(below) for row in a for x in row)


# Scalar matrices: where every entry is an exact constant (one term at q^0,
# no cutoff) or the exact zero, `mat_mul` reduces to products of scalars.
# A generator is held by its columns, {k: [(i, c), ...]}; a product by its
# rows, {i: {j: c}}; a `LocalSystem.scalar_transport` as (diagonals, blocks).
# Only nonzero entries are held, so an e00 generator touches one row or one
# column of the transports beside it.


def scalar_columns(m: Matrix):
    """m by its columns, or None unless every entry is an exact constant
    or the exact zero."""
    cols = {}
    for i, row in enumerate(m):
        for k, x in enumerate(row):
            if x.cutoff is not None or x._keys not in ((), (0,)):
                return None
            if x._keys:
                cols.setdefault(k, []).append((i, x._coeffs[0]))
    return cols


def _jordan_row(t, k: int) -> dict:
    """Row k of the scalar transport t: the block's diagonals from k on."""
    diags, blocks = t
    lo, hi = blocks[k]
    return {j: c for j in range(k, hi) if (c := diags[lo + j - k]) is not None}


def _jordan_col(t, k: int) -> list:
    """Column k of the scalar transport t, from the block's first row down."""
    diags, blocks = t
    lo = blocks[k][0]
    return [(i, c) for i in range(lo, k + 1) if (c := diags[lo + k - i]) is not None]


def _scalar_mul(col, rows: dict) -> dict:
    """A B with A by col(k) -> [(i, x), ...] (or None) and B by its rows, as
    `mat_mul` forms each entry: `0 + x * y` per product, the inner index
    ascending, the running sum's `+`, the drop rule after each step.  An
    inner index where either factor is the exact zero forms nothing."""
    out = {}
    for k in sorted(rows):
        a = col(k)
        if not a:
            continue
        row = rows[k].items()
        for i, x in a:
            acc = out.get(i)
            if acc is None:
                acc = out[i] = {}
            for j, y in row:
                p = _kept(x * y)
                if p is None:
                    continue
                v = acc.get(j)
                if v is not None:
                    p = _kept(v + p)
                    if p is None:
                        del acc[j]
                        continue
                acc[j] = p
    return out


def scalar_chain(a1: dict, t0, t1, a2: dict, t2) -> dict:
    """The rows of T2 . (a2 . (T1 . (a1 . T0))): generators a1 and a2 by
    their columns, scalar transports t0, t1 and t2."""
    m = _scalar_mul(a1.get, {k: _jordan_row(t0, k) for k in a1})
    m = _scalar_mul(lambda k: _jordan_col(t1, k), m)
    m = _scalar_mul(a2.get, m)
    return _scalar_mul(lambda k: _jordan_col(t2, k), m)


def scalar_power(c0):
    """(num, den) -> c0^(num/den) as `fractional_power` forms it for a one-term
    c0: 0 + exp(complex(num / den) * log(c0)), 1.0 + 0.0j at 0, None if it drops;
    for c0 == 1, 1.0 + 0.0j without log or exp (exp(+-0 +- 0j) = 1 +- 0j, and 0 +)."""
    if c0 == 1:
        return lambda num, den: 1.0 + 0.0j
    log = cmath.log(c0)
    return lambda num, den: _kept(cmath.exp(complex(num / den) * log) if num else 1.0 + 0.0j)


def _power_steps(c, k: int):
    """The coefficient of `constant(c) ** k` for a kept c and k >= 1: from
    1.0 + 0.0j by `__pow__`'s squarings and products, each through the drop
    rule; None once one drops (the exact zero then stays zero)."""
    out = 1.0 + 0.0j
    while k:
        if k & 1:
            out = _kept(out * c)
            if out is None:
                return None
        k >>= 1
        if k:
            c = _kept(c * c)
            if c is None:
                return None
    return out


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

    def transport(self, t: Rational) -> Matrix:
        """Parallel transport over an oriented arc fraction t.

        Each Jordan block J = lam*(I + N/lam) contributes
        lam^t * sum_k binom(t,k) (N/lam)^k  (a finite sum since N is
        nilpotent); fractional eigenvalue powers use the principal
        branch, so transport(s) * transport(t) = transport(s+t).  Each
        block is written straight into the output matrix, and its
        diagonal (k = 0) is lam^t itself.  An eigenvalue series holds its
        eps powers and its inverse (see `novikov`), so transports over
        many arcs form each of them once.  `scalar_transport` forms the
        same entries on scalars where every eigenvalue is one exact term.
        """
        t = t if type(t) is Fraction else Fraction(t)  # floer's arcs are not copied
        n = self.rank
        zero = NovikovSeries.zero()
        out = [[zero] * n for _ in range(n)]
        offset = 0
        for eig, size in self.blocks:
            lam_t = fractional_power(eig, t)
            if size > 1:
                inv_eig, binomials = invert(eig), _binomials(t.numerator, t.denominator)
            for k in range(size):
                coeff = lam_t if k == 0 else (
                    _fraction_multiple(*next(binomials), lam_t) * inv_eig ** k)
                for i in range(offset, offset + size - k):
                    out[i][i + k] = coeff
            offset += size
        return tuple(tuple(row) for row in out)

    def scalar_transport(self):
        """(scalars, blocks) for a system whose every eigenvalue is one
        exact term c0, else None: scalars(num, den) is the list of
        diagonals of `transport(num/den)`, for ints num and den != 0 at any
        common scale, and blocks[k] = (lo, hi) the rows of index k's
        Jordan block.  `diagonals[lo + d]` is the entry on that block's
        d-th superdiagonal, or None where it is the exact zero.

        Each entry is formed by the float steps of `transport`, with the
        drop rule after each step: lam from `scalar_power`; for d >= 1,
        complex(binom(t, d)) * lam, the binomial from `_binomials`; then
        times (1/c0)^d in `__pow__`'s order, each power formed once here.
        A rank-1 system gives [lam] and [(0, 1)]."""
        parts, blocks = [], []
        for eig, size in self.blocks:
            if eig.cutoff is not None or len(eig._keys) != 1:
                return None
            c0 = eig._coeffs[0]
            inv = _kept(1.0 / c0)
            powers = [inv and _power_steps(inv, d) for d in range(1, size)]
            parts.append((scalar_power(c0), powers))
            blocks += [(len(blocks), len(blocks) + size)] * size

        def scalars(num: int, den: int) -> list:
            diagonals = []
            for power, powers in parts:
                lam = power(num, den)
                diagonals.append(lam)
                if not powers:
                    continue
                if lam is None:
                    diagonals += [None] * len(powers)
                    continue
                for power, (b_num, b_den) in zip(powers, _binomials(num, den)):
                    c = None if _ratio_dropped(b_num, b_den) else _kept(
                        complex(b_num / b_den) * lam)
                    diagonals.append(c and power and _kept(c * power))
            return diagonals

        return scalars, blocks

    def monodromy(self) -> Matrix:
        return self.transport(1)

    def inverse_eigen(self) -> "LocalSystem":
        """The system with every eigenvalue inverted (same block shapes)."""
        return LocalSystem(tuple((invert(e), s) for e, s in self.blocks))


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


def held_lattice(brane: Brane):
    """(D, base, marker, (a, b)): `base_point` and `marker_point` as integer
    numerator pairs over D = lcm of the shift's and the marker's
    denominators, and the Bezout pair of the slope.  Formed on the first
    read and held in the brane's `_held_lattice` slot, which `==`, `hash`,
    `repr` and pickle do not see."""
    held = brane.__dict__.get("_held_lattice")
    if held is None:
        D = math.lcm(brane.shift.denominator, brane.marker.denominator)
        s, k = int(brane.shift * D), int(brane.marker * D)
        base = (s, 0) if brane.slope[1] else (0, s)
        cx, cy = canonical_direction(brane.slope)
        held = D, base, (base[0] + k * cx, base[1] + k * cy), bezout(*brane.slope)
        object.__setattr__(brane, "_held_lattice", held)
    return held


def index_of(l0: Brane, l1: Brane) -> int:
    """Degree of every intersection point of the ordered pair:
    floor(alpha1 - alpha0) + 1 with the integer offsets included."""
    return (
        alpha0_floor_diff(l0.slope, l1.slope)
        + l1.grading_offset
        - l0.grading_offset
        + 1
    )


def lattice_denominator(l0: Brane, l1: Brane) -> int:
    """N = |det(v0,v1)| * D, for D the least common denominator of the two
    shifts: every intersection point of the pair lies in (1/N)Z^2."""
    return abs(det2(l0.slope, l1.slope)) * math.lcm(
        l0.shift.denominator, l1.shift.denominator)


def intersections(l0: Brane, l1: Brane) -> Tuple[Tuple[int, int], ...]:
    """All |det(v0,v1)| intersection points, sorted, each as the integer
    numerators (x, y) in [0, N)^2 of the point (x/N, y/N) for
    N = `lattice_denominator(l0, l1)`.  Every point of the pair has the
    degree `index_of` gives.

    With d = det(v0,v1) and c = det(p1-p0, v1), the points are
    y_j = p0 + s_j*v0 (mod 1) for s_j = (c+j)/d, j = 0..|d|-1, and N s_j
    is an integer.

    Raises NonTransverse for parallel slopes and MarkerCollision when a
    Pin marker sits on an intersection point.
    """
    v0, v1 = l0.slope, l1.slope
    d = det2(v0, v1)
    if d == 0:
        raise NonTransverse(f"branes {l0} and {l1} are parallel")
    n = lattice_denominator(l0, l1)
    def scaled(D, p):  # N p mod 1 for p over D, or None off the lattice
        x, y = p[0] * n, p[1] * n
        return None if x % D or y % D else (x // D % n, y // D % n)
    (D0, b0, m0, _), (D1, b1, m1, _) = held_lattice(l0), held_lattice(l1)
    (x0, y0), (x1, y1) = scaled(D0, b0), scaled(D1, b1)
    c = det2((x1 - x0, y1 - y0), v1)  # N c
    found = set()
    for j in range(abs(d)):
        s = (c + j * n) // d  # N s_j, exactly
        found.add(((x0 + s * v0[0]) % n, (y0 + s * v0[1]) % n))
    if len(found) != abs(d):
        raise AssertionError(
            f"expected {abs(d)} intersection points, found {len(found)}"
        )
    # N times each marker point mod 1, which is in `found` only on the
    # lattice; the least point hit is named, L0's marker first
    hits = [(mk, i) for i, mk in enumerate((scaled(D0, m0), scaled(D1, m1))) if mk in found]
    if hits:
        (x, y), i = min(hits)
        raise MarkerCollision(f"Pin marker of {(l0, l1)[i]} sits on intersection point "
                              f"{(Fraction(x, n), Fraction(y, n))}")
    return tuple(sorted(found))
