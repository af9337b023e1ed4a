"""Surgery calculus on oriented straight curves and the cobordism
group of the flat torus.

The group is (R/Z) + Z^2.  A straight oriented curve of primitive slope
v through a point p has flux det(p, v) mod 1 (the area of the cylinder
it bounds against the through-origin curve of the same slope).  The
class of a brane is

    normal_form(b) = (flux(b) - rho(v) mod 1, v),

where rho(v) = (|m| + |n| - 1)/2 mod 1 is the flux of the reference
curve of slope v built from |m| horizontal and |n| vertical unit curves
by |m| + |n| - 1 elementary surgeries, each adding a handle correction
of exactly 1/2.  An odd homological shift negates the class: a brane
together with its shift is null-cobordant.

The handle correction is not taken on faith: `pl_surgery_flux` builds
the piecewise-linear surgered curve through the actual crossing point
and evaluates its flux exactly from the polygon area (shoelace), and
`rho_values_by_recursion` recomputes rho(v) along every Farey
decomposition of v into unit vectors.  Both must agree with the
algebraic formulas exactly -- any mismatch is a bug, not a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

from ._record import record
from .errors import NonElementary, NullClass
from .torus import Brane, bezout, det2, is_primitive

__all__ = [
    "CurveClass",
    "CobordClass",
    "flux_of",
    "curve_of",
    "surgery",
    "rho_reference",
    "normal_form",
    "zeta",
    "eta",
    "class_of_sum",
    "relation_check",
    "pl_polyline_flux",
    "pl_surgery_flux",
    "farey_splits",
    "rho_values_by_recursion",
]

Vec = Tuple[int, int]
Point = Tuple[Fraction, Fraction]


@record
class CurveClass:
    """An oriented straight curve up to translation along itself:
    primitive slope plus flux in [0, 1)."""

    v: Vec
    flux: Fraction

    def __post_init__(self):
        m, n = self.v
        object.__setattr__(self, "v", (int(m), int(n)))
        if not is_primitive(self.v):
            raise ValueError(f"slope {self.v} is not primitive")
        object.__setattr__(self, "flux", Fraction(self.flux) % 1)

    def __str__(self):
        return f"curve(v={self.v}, flux={self.flux})"


@record
class CobordClass:
    """Element of (R/Z) + Z^2: (zeta-part, homology class)."""

    zeta_part: Fraction
    hom: Vec

    def __post_init__(self):
        object.__setattr__(self, "zeta_part", Fraction(self.zeta_part) % 1)
        m, n = self.hom
        object.__setattr__(self, "hom", (int(m), int(n)))

    @classmethod
    def identity(cls) -> "CobordClass":
        return cls(Fraction(0), (0, 0))

    def is_identity(self) -> bool:
        return self.zeta_part == 0 and self.hom == (0, 0)

    def __add__(self, other: "CobordClass") -> "CobordClass":
        return CobordClass(
            self.zeta_part + other.zeta_part,
            (self.hom[0] + other.hom[0], self.hom[1] + other.hom[1]),
        )

    def __neg__(self) -> "CobordClass":
        return CobordClass(-self.zeta_part, (-self.hom[0], -self.hom[1]))

    def __sub__(self, other: "CobordClass") -> "CobordClass":
        return self + (-other)

    def __str__(self):
        return f"({self.zeta_part}, {self.hom})"


def flux_of(b: Brane) -> Fraction:
    """det(p, v) mod 1 for any point p on the brane's support."""
    px, py = b.base_point
    m, n = b.slope
    return (px * n - py * m) % 1


def curve_of(b: Brane) -> CurveClass:
    return CurveClass(b.slope, flux_of(b))


def surgery(c0: CurveClass, c1: CurveClass) -> CurveClass:
    """Elementary surgery: slopes add, fluxes add plus the 1/2 handle
    correction.  Requires |det(v0, v1)| = 1 (one crossing per
    fundamental domain); the sum is then primitive, since
    det(v0, v0 + v1) = det(v0, v1) = +-1."""
    v = (c0.v[0] + c1.v[0], c0.v[1] + c1.v[1])
    if v == (0, 0):
        raise NullClass("surgery of opposite slopes has no homology class")
    d = det2(c0.v, c1.v)
    if abs(d) != 1:
        raise NonElementary(
            f"|det{c0.v, c1.v}| = {abs(d)} != 1: surgery is not elementary"
        )
    return CurveClass(v, c0.flux + c1.flux + Fraction(1, 2))


def rho_reference(v: Vec) -> Fraction:
    """Flux of the reference composite of slope v: |m| + |n| - 1
    elementary surgeries on unit curves, each contributing 1/2."""
    m, n = v
    if not is_primitive((m, n)):
        raise ValueError(f"slope {(m, n)} is not primitive")
    return Fraction(abs(m) + abs(n) - 1, 2) % 1


def normal_form(b: Brane) -> CobordClass:
    """(flux - rho(v) mod 1, v), negated for odd homological shift."""
    cls = CobordClass(flux_of(b) - rho_reference(b.slope), b.slope)
    return cls if b.grading_offset % 2 == 0 else -cls


def zeta(x) -> CobordClass:
    """The central circle: zeta(x) = [vertical brane at x] - [vertical
    brane at 0]."""
    return CobordClass(Fraction(x), (0, 0))


def eta(c: CobordClass) -> Vec:
    """Projection to the homology class."""
    return c.hom


BraneTerm = Union[Brane, Tuple[Brane, int]]


def class_of_sum(terms: Iterable[BraneTerm]) -> CobordClass:
    """The class of a formal sum: each term `brane` or `(brane, mult)`.
    Classes are exact, so mult * class is one product, not |mult|
    additions."""
    total = CobordClass.identity()
    for term in terms:
        brane, mult = term if isinstance(term, tuple) else (term, 1)
        c, n = normal_form(brane), int(mult)
        total = total + CobordClass(
            n * c.zeta_part, (n * c.hom[0], n * c.hom[1])
        )
    return total


def relation_check(
    lhs: Iterable[BraneTerm], rhs: Iterable[BraneTerm]
) -> bool:
    """True iff both formal sums of branes have the same class."""
    return class_of_sum(lhs) == class_of_sum(rhs)


# ---------------------------------------------------------------------------
# Piecewise-linear oracle
# ---------------------------------------------------------------------------


def pl_polyline_flux(points: Sequence[Point], v: Vec) -> Fraction:
    """Exact flux of the closed PL curve lifted to the polyline
    P_0, ..., P_k with P_k = P_0 + v.

    Equals det(P_0, v) plus the signed area (shoelace) of the polygon
    closed by the straight chord from P_k back to P_0; invariant mod 1
    under subdivision, lattice translation and change of cut point.
    """
    if len(points) < 2:
        raise ValueError("need at least two polyline vertices")
    p0, pk = points[0], points[-1]
    if (pk[0] - p0[0], pk[1] - p0[1]) != (Fraction(v[0]), Fraction(v[1])):
        raise ValueError("polyline endpoints must differ by the slope vector")
    twice_area = Fraction(0)
    loop = list(points) + [p0]
    for a, b in zip(loop, loop[1:]):
        twice_area += a[0] * b[1] - a[1] * b[0]
    base = p0[0] * v[1] - p0[1] * v[0]
    return (base + twice_area / 2) % 1


def pl_surgery_flux(c0: CurveClass, c1: CurveClass) -> Fraction:
    """Flux of the PL surgered curve built at the actual crossing: from
    the crossing X, run one period along v1, then one period along v0.
    Used to certify the algebraic 1/2 handle correction."""
    if (c0.v[0] + c1.v[0], c0.v[1] + c1.v[1]) == (0, 0):
        raise NullClass("opposite slopes bound no surgered class")
    d = det2(c0.v, c1.v)
    if abs(d) != 1:
        raise NonElementary("PL oracle needs an elementary crossing")
    reps: List[Point] = []
    for c in (c0, c1):
        w = bezout(c.v[1], -c.v[0])  # det(w, v) = 1
        reps.append((c.flux * w[0], c.flux * w[1]))
    p0, p1 = reps
    # p0 + s v0 = p1 + u v1  =>  s = det(p1 - p0, v1) / det(v0, v1)
    diff = (p1[0] - p0[0], p1[1] - p0[1])
    s = (diff[0] * c1.v[1] - diff[1] * c1.v[0]) / d
    x = (p0[0] + s * c0.v[0], p0[1] + s * c0.v[1])
    polyline = [
        x,
        (x[0] + c1.v[0], x[1] + c1.v[1]),
        (x[0] + c1.v[0] + c0.v[0], x[1] + c1.v[1] + c0.v[1]),
    ]
    return pl_polyline_flux(
        polyline, (c0.v[0] + c1.v[0], c0.v[1] + c1.v[1])
    )


# ---------------------------------------------------------------------------
# Farey decomposition of the reference flux
# ---------------------------------------------------------------------------


def farey_splits(v: Vec) -> List[Tuple[Vec, Vec]]:
    """All ways to write v = a + b with a, b primitive and nonzero,
    |det(a, b)| = 1, and |a|_1 + |b|_1 = |v|_1 (no cancellation), up to
    swapping a and b."""
    m, n = v
    out: List[Tuple[Vec, Vec]] = []
    seen = set()
    span_x = range(-abs(m), abs(m) + 1) if m else (0,)
    span_y = range(-abs(n), abs(n) + 1) if n else (0,)
    for ax in span_x:
        for ay in span_y:
            a = (ax, ay)
            b = (m - ax, n - ay)
            if a == (0, 0) or b == (0, 0):
                continue
            if abs(det2(a, b)) != 1:
                continue
            if (abs(ax) + abs(ay) + abs(b[0]) + abs(b[1])) != abs(m) + abs(n):
                continue
            if not (is_primitive(a) and is_primitive(b)):
                continue
            key = frozenset((a, b))
            if key in seen:
                continue
            seen.add(key)
            out.append((a, b))
    return out


def rho_values_by_recursion(
    v: Vec, _cache: Dict[Vec, FrozenSet[Fraction]] = None
) -> FrozenSet[Fraction]:
    """Every value (mod 1) the reference flux can take across all Farey
    decomposition paths of v; a one-element set certifies the
    decomposition independence of rho(v)."""
    if _cache is None:
        _cache = {}
    if v in _cache:
        return _cache[v]
    if abs(v[0]) + abs(v[1]) == 1:
        vals = frozenset({Fraction(0)})
    else:
        acc = set()
        for a, b in farey_splits(v):
            for fa in rho_values_by_recursion(a, _cache):
                for fb in rho_values_by_recursion(b, _cache):
                    acc.add((fa + fb + Fraction(1, 2)) % 1)
        vals = frozenset(acc)
    _cache[v] = vals
    return vals
