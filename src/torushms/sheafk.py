"""Coherent-sheaf bookkeeping on the Tate curve and K-theory classes.

Indecomposable sheaves are recorded by their classification data, not
constructed module-theoretically: a bundle is (rank, degree,
determinant point), a skyscraper is (support point, thickness), each
with an integer homological shift whose parity flips the K-class sign.

K0 is presented as (rank, degree, determinant point) with the
degree-zero Picard group identified with the curve itself via
O(P - O) <-> P; consequently the class group law multiplies points.

The relation generators come in four families:
  1. isomorphism pairs (same sheaf, two presentations),
  2. divisor sequences  0 -> O(D-Q) -> O(D) -> O_Q -> 0,
  3. coprime-bundle sequences
     0 -> (r-1)*O(-3n.O-twist) -> E(r,d) -> det E ((r-1)n-twist) -> 0,
     where one hyperplane twist has degree 3 and leaves the
     determinant point fixed (the hyperplane divisor is 3.O),
  4. Jordan towers 0 -> Y_1 -> Y_(h+1) -> Y_h -> 0 over a simple
     skyscraper or a coprime stable bundle.

Cost.  Each family has one private builder, which the public
constructor and `relation_suite` both call, and which builds once what
its relations share: the point of O(D - Q) and the sum O_Q per
(D's point, Q), the sub-sum (r-1)*O(-3n) per (r, n), and each tower
member Y_k per (base, k).  A suite keeps one table per call of the
bundle sums on its points, keyed by (rank, degree, index of the point),
never by value: O(D) is shared across Q, E(r, d) across n, and an
Atiyah quotient is the divisor total of its degree.  A sum of one sheaf
hashes nothing.  A shared piece is equal, bit for bit, to a fresh build.

Each SheafSum holds its class in one private slot, `_held_k0`, filled
on first use, so a suite classes each distinct sum once.  `==`, `hash`,
`repr`, pickle and copy ignore it, a copy starts empty, and equal sums
do not share it: 1 and 1+0j compare equal but give other bits.

The K-class group law runs on a lane of plain scalars (`_Lane`) while
every class in a sum has a constant unit, one exact term.  Each sheaf is
classed straight onto it, a sum holds its lane, `sum_with_multiplicities`
and `RelationTriple.k0_defect` build one K0Class at the end, and
`RelationTriple.holds` reads its verdict off the defect's lane.  Its
coefficient steps are those of `point_mul`, `point_pow` and
`conjugate_zero` (`tate._unit_product`, `tate._unit_inverse`), taken in
the order of K0Class + and -, so the lane keeps every bit.  Any other
unit, or a coefficient the drop rule removes, sends that sheaf or sum
back to K0Class + and - from the start: the same bits and the same NonUnit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ._record import record
from .errors import BadBase, BadGcd
from .tate import (
    TatePoint, _scalar, _scalar_point, _unit_at_origin, _unit_inverse,
    _unit_multiple, conjugate_zero, point_mul, point_pow,
)

__all__ = [
    "Bundle",
    "Skyscraper",
    "IndecSheaf",
    "SheafSum",
    "K0Class",
    "k0_class",
    "line_bundle",
    "o_of_n_p0",
    "iso_pair",
    "ses_divisor",
    "ses_atiyah_coprime",
    "ses_jordan_tower",
    "RelationTriple",
    "RelationBounds",
    "relation_suite",
]


@record
class Bundle:
    """Indecomposable vector bundle, defined by its classification data."""

    rank: int
    degree: int
    det_pt: TatePoint
    shift: int = 0

    def __init__(
        self, rank: int, degree: int, det_pt: TatePoint, shift: int = 0
    ):
        # written out: ~1,000 per K-theory task, and the generic one read 4% slower
        if rank < 1:
            raise ValueError("bundle rank must be >= 1")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "det_pt", det_pt)
        object.__setattr__(self, "shift", shift)

    def __hash__(self):  # written out: each formal sum hashes its sheaves
        return hash((self.rank, self.degree, self.det_pt, self.shift))

    def shifted(self, k: int = 1) -> "Bundle":
        return Bundle(self.rank, self.degree, self.det_pt, self.shift + k)

    def __str__(self):
        s = f"Bun({self.rank},{self.degree},{self.det_pt})"
        return s + (f"[{self.shift}]" if self.shift else "")


@record
class Skyscraper:
    """Skyscraper of thickness h supported at a point."""

    pt: TatePoint
    h: int = 1
    shift: int = 0

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("skyscraper thickness must be >= 1")

    def __hash__(self):  # written out, as Bundle's is
        return hash((self.pt, self.h, self.shift))

    def shifted(self, k: int = 1) -> "Skyscraper":
        return Skyscraper(self.pt, self.h, self.shift + k)

    def __str__(self):
        s = f"Sky({self.pt},{self.h})"
        return s + (f"[{self.shift}]" if self.shift else "")


IndecSheaf = Union[Bundle, Skyscraper]


@record
class SheafSum:
    """Canonicalized formal integer combination of indecomposables."""

    terms: Tuple[Tuple[IndecSheaf, int], ...] = ()

    def __init__(self, terms: Iterable = ()):
        if isinstance(terms, (Bundle, Skyscraper)):
            # one sheaf: its canonical terms, with no dict and no hash
            object.__setattr__(self, "terms", ((terms, 1),))
            return
        acc = {}  # sheaf -> [multiplicity]: setdefault hashes each sheaf once
        for entry in terms:
            if isinstance(entry, (Bundle, Skyscraper)):
                sheaf, mult = entry, 1
            else:
                sheaf, mult = entry
            acc.setdefault(sheaf, [0])[0] += int(mult)
        clean = [(s, m) for s, (m,) in acc.items() if m != 0]
        if len(clean) > 1:  # repr renders every point's unit series
            clean.sort(key=lambda kv: repr(kv[0]))
        object.__setattr__(self, "terms", tuple(clean))

    def __add__(self, other):
        other = as_sum(other)
        return SheafSum(self.terms + other.terms)

    def __neg__(self):
        return SheafSum(tuple((s, -m) for s, m in self.terms))

    def __sub__(self, other):
        return self + (-as_sum(other))

    def __rmul__(self, k: int):
        return SheafSum(tuple((s, k * m) for s, m in self.terms))

    def is_empty(self) -> bool:
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{m}*{s}" if m != 1 else str(s)) for s, m in self.terms
        )


def as_sum(x) -> SheafSum:
    return x if isinstance(x, SheafSum) else SheafSum(x)


@record
class K0Class:
    """(rank, degree, determinant point); the point part is the
    Pic^0-coordinate under O(P - O) <-> P."""

    rk: int
    deg: int
    pt: TatePoint

    @classmethod
    def zero(cls) -> "K0Class":
        """(0, 0, O), one shared instance (classes are immutable)."""
        return _K0_ZERO

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(
            self.rk + other.rk, self.deg + other.deg,
            point_mul(self.pt, other.pt),
        )

    def __neg__(self):
        return K0Class(-self.rk, -self.deg, conjugate_zero(self.pt))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self, tol: float = 1e-9) -> bool:
        return (
            self.rk == 0 and self.deg == 0 and self.pt.is_zero_point(tol)
        )

    def approx_eq(self, other: "K0Class", tol: float = 1e-9) -> bool:
        return (
            self.rk == other.rk
            and self.deg == other.deg
            and self.pt.approx_eq(other.pt, tol)
        )

    def __str__(self):
        return f"({self.rk}, {self.deg}, {self.pt})"


_K0_ZERO = K0Class(0, 0, TatePoint.zero())


#: a class on the lane: (rk, deg, num, den, c) for the ints rk and deg,
#: x = num / den in [0, 1) and the unit c q^0, one exact term
_Lane = Tuple[int, int, int, int, object]


def _on_lane(rk, deg, pt: TatePoint) -> Optional[_Lane]:
    """The class (rk, deg, pt) on the lane, or None where pt's unit is not
    one exact term or rk or deg is not an int."""
    unit = pt.unit
    if not (_scalar(unit) and type(rk) is int and type(deg) is int):
        return None
    return (rk, deg, *pt.x.as_integer_ratio(), unit._coeffs[0])


_ZERO_LANE = _on_lane(0, 0, _K0_ZERO.pt)


def _negated(a: _Lane) -> Optional[_Lane]:
    """-a, as `K0Class.__neg__` forms it; None where the drop rule removes
    the coefficient."""
    rk, deg, num, den, c = a
    c = _unit_inverse(c)
    if c is None:
        return None
    return (-rk, -deg, den - num if num else 0, den, c)


def _added(a: Optional[_Lane], b: Optional[_Lane], m: int = 1) -> Optional[_Lane]:
    """a + b + ... + b (m times), as repeated `K0Class.__add__` forms it:
    one coefficient product per step, the exact parts in closed form;
    None where a or b is None or the drop rule removes a coefficient."""
    if a is None or b is None:
        return None
    if not m:
        return a
    rk, deg, num, den, c = a
    b_rk, b_deg, b_num, b_den, b_c = b
    c = _unit_multiple(c, b_c, m)
    if c is None:
        return None
    d = lcm(den, b_den)
    num = (num * (d // den) + m * b_num * (d // b_den)) % d
    return (rk + m * b_rk, deg + m * b_deg, num, d, c)


def _as_class(held: Union[_Lane, K0Class]) -> K0Class:
    """The K0Class of a lane (or a K0Class itself)."""
    if type(held) is not tuple:
        return held
    if held is _ZERO_LANE:
        return _K0_ZERO
    rk, deg, num, den, c = held
    return K0Class(rk, deg, _scalar_point(Fraction(num, den), c))


def _class_of_sum(
    terms: Sequence[Tuple[object, int]], class_of: Callable
) -> Union[_Lane, K0Class]:
    """The class of the (obj, mult) pairs, each class_of(obj) a lane or a
    K0Class: its lane while every step stays on it, else the object path's."""
    lane = _ZERO_LANE
    for obj, mult in terms:
        if type(step := class_of(obj)) is not tuple:
            step = _on_lane(step.rk, step.deg, step.pt)
        if step is not None and not mult > 0:
            step = _negated(step)
        moved = None if step is None else _added(lane, step, abs(int(mult)))
        if moved is None:
            break
        lane = moved
    else:
        return lane
    total = _K0_ZERO  # the object path, from the start
    for obj, mult in terms:
        cls = _as_class(class_of(obj))
        step = cls if mult > 0 else -cls
        for _ in range(abs(int(mult))):
            total = total + step
    return total


def sum_with_multiplicities(terms: Iterable, class_of: Callable) -> K0Class:
    """The class of a formal sum: for each term `obj` or `(obj, mult)`,
    in order, class_of(obj) is added to the zero class |mult| times
    (negated for mult <= 0).

    The addition is repeated on purpose, one coefficient product per
    step, on the lane where it can be: a closed-form multiple, a power of
    the unit's coefficient, rounds that coefficient differently.
    """
    pairs = [term if isinstance(term, tuple) else (term, 1) for term in terms]
    return _as_class(_class_of_sum(pairs, class_of))


def _class_of(sheaf: IndecSheaf) -> Union[_Lane, K0Class]:
    """The class of one sheaf, on the lane unless its unit or a dropped
    step sends it off (a skyscraper's point is h steps from O)."""
    bundle = isinstance(sheaf, Bundle)
    lane = (_on_lane(sheaf.rank, sheaf.degree, sheaf.det_pt) if bundle
            else _added(_ZERO_LANE, _on_lane(0, 1, sheaf.pt), sheaf.h))
    lane = _negated(lane) if lane is not None and sheaf.shift % 2 else lane
    if lane is not None:
        return lane
    base = (K0Class(sheaf.rank, sheaf.degree, sheaf.det_pt) if bundle
            else K0Class(0, sheaf.h, point_pow(sheaf.pt, sheaf.h)))
    return base if sheaf.shift % 2 == 0 else -base


def _held_class(s: SheafSum) -> Union[_Lane, K0Class]:
    """The class s holds in its slot, formed on first use."""
    held = s.__dict__.get("_held_k0")
    if held is None:
        held = _class_of_sum(s.terms, _class_of)
        object.__setattr__(s, "_held_k0", held)
    return held


def k0_class(s) -> K0Class:
    """The K-theory class of a sheaf or formal sum (a group morphism:
    additive, and homological shift flips the sign), formed once per
    SheafSum object and held in its slot."""
    return _as_class(_held_class(as_sum(s)))


def line_bundle(
    plus: Sequence[TatePoint], minus: Sequence[TatePoint] = ()
) -> Bundle:
    """O(D) for the divisor D = sum(plus) - sum(minus)."""
    pt = TatePoint.zero()
    for p in plus:
        pt = point_mul(pt, p)
    for p in minus:
        pt = point_mul(pt, conjugate_zero(p))
    return Bundle(1, len(plus) - len(minus), pt)


def o_of_n_p0(n: int) -> Bundle:
    """O(n P0): degree n, determinant point the n-fold multiple of P0
    (the origin for even n, P0 for odd n)."""
    return Bundle(1, n, point_pow(TatePoint.two_torsion(), n))


@record
class RelationTriple:
    """A K0 relation [total] - [sub] - [quot] = 0 from a short exact
    sequence (or an isomorphism pair, with empty quotient)."""

    sub: SheafSum
    total: SheafSum
    quot: SheafSum
    label: str = ""

    def _defect_lane(self) -> Optional[_Lane]:
        """(T + (-S)) + (-Q) on the lane, or None off it."""
        t, s, q = _held_class(self.total), _held_class(self.sub), _held_class(self.quot)
        if type(t) is type(s) is type(q) is tuple:
            return _added(_added(t, _negated(s)), _negated(q))
        return None  # a class off the lane

    def k0_defect(self) -> K0Class:
        """[total] - [sub] - [quot], formed as (T + (-S)) + (-Q)."""
        defect = self._defect_lane()
        if defect is not None:
            return _as_class(defect)
        return k0_class(self.total) - k0_class(self.sub) - k0_class(self.quot)

    def holds(self, tol: float = 1e-9) -> bool:
        """`k0_defect().is_zero(tol)`, read off the lane where it can be."""
        defect = self._defect_lane()
        if defect is None:
            return self.k0_defect().is_zero(tol)
        rk, deg, num, _, c = defect
        return rk == 0 and deg == 0 and num == 0 and _unit_at_origin(c, tol)


def iso_pair(f, g, label: str = "iso") -> RelationTriple:
    """Two presentations of one sheaf: relation [g] - [f] = 0."""
    return RelationTriple(as_sum(f), as_sum(g), SheafSum(), label)


def _bundle_sum(table: dict, rank: int, degree: int, pt: TatePoint, i: int):
    """SheafSum(Bundle(rank, degree, pt)), one per (rank, degree, i)."""
    s = table.get((rank, degree, i))
    if s is None:
        s = table[rank, degree, i] = SheafSum(Bundle(rank, degree, pt))
    return s


def _divisor_sequences(
    d_pt: TatePoint, q: TatePoint, quot: SheafSum, table: dict, i: int
) -> Callable[[int], RelationTriple]:
    """d -> the divisor sequence of degree d over (d_pt, q), O(D) from
    `table` and the sum O_Q as `quot`.  The point of O(D - Q) is built once."""
    sub_pt = point_mul(d_pt, conjugate_zero(q))

    def relation(d_deg: int) -> RelationTriple:
        return RelationTriple(
            SheafSum(Bundle(1, d_deg - 1, sub_pt)),
            _bundle_sum(table, 1, d_deg, d_pt, i),
            quot,
            "divisor",
        )

    return relation


def ses_divisor(d_deg: int, d_pt: TatePoint, q: TatePoint) -> RelationTriple:
    """0 -> O(D - Q) -> O(D) -> O_Q -> 0 for a degree-d divisor D."""
    return _divisor_sequences(d_pt, q, SheafSum(Skyscraper(q, 1)), {}, 0)(d_deg)


def _atiyah_sequences(
    r: int, n: int, table: dict
) -> Callable[[int, TatePoint, int], RelationTriple]:
    """(d, det_pt, i) -> the coprime-bundle sequence of rank r and twist
    n, E(r, d) and its quotient line from `table`.  The sub-sum
    (r-1)*O(-3n) is built once."""
    sub = SheafSum([(Bundle(1, -3 * n, TatePoint.zero()), r - 1)])

    def relation(d: int, det_pt: TatePoint, i: int) -> RelationTriple:
        if r < 2 or gcd(r, abs(d)) != 1:
            raise BadGcd(f"need r >= 2 and gcd(r,d) = 1, got ({r}, {d})")
        return RelationTriple(
            sub,
            _bundle_sum(table, r, d, det_pt, i),
            _bundle_sum(table, 1, d + 3 * n * (r - 1), det_pt, i),
            "atiyah-coprime",
        )

    return relation


def ses_atiyah_coprime(
    r: int, d: int, det_pt: TatePoint, n: int
) -> RelationTriple:
    """0 -> (O(-n-twist))^(r-1) -> E(r,d) -> (det E)((r-1)n-twist) -> 0
    for a stable bundle with coprime (r, d).

    One twist has degree 3 (hyperplane divisor 3.O), so the sub-line
    has degree -3n and the quotient line degree d + 3n(r-1); the
    determinant point is carried entirely by the quotient.
    """
    return _atiyah_sequences(r, n, {})(d, det_pt, 0)


def _tower_member(base: IndecSheaf, h: int) -> IndecSheaf:
    if isinstance(base, Skyscraper):
        return Skyscraper(base.pt, h)
    return Bundle(
        h * base.rank, h * base.degree, point_pow(base.det_pt, h)
    )


def _jordan_towers(base: IndecSheaf, y1=None) -> Callable[[int], RelationTriple]:
    """h -> the Jordan-tower sequence of height h over `base`.  Each
    member Y_k is built once, when a sequence first needs it, and its
    sum is shared by the (up to three) sequences that hold it; Y_1's sum
    is `y1` when given."""
    if isinstance(base, Skyscraper):
        if base.h != 1 or base.shift:
            raise BadBase("tower base must be a simple unshifted skyscraper")
    elif isinstance(base, Bundle):
        if gcd(base.rank, abs(base.degree)) != 1 or base.shift:
            raise BadBase("tower base bundle must have coprime (rank, degree)")
    else:
        raise BadBase(f"unsupported tower base {base!r}")
    members = {} if y1 is None else {1: y1}  # k -> SheafSum(Y_k)

    def member(k: int) -> SheafSum:
        y = members.get(k)
        if y is None:
            y = members[k] = SheafSum(_tower_member(base, k))
        return y

    def relation(h: int) -> RelationTriple:
        if h < 1:
            raise ValueError("tower height must be >= 1")
        return RelationTriple(member(1), member(h + 1), member(h), "jordan-tower")

    return relation


def ses_jordan_tower(base: IndecSheaf, h: int) -> RelationTriple:
    """0 -> Y_1 -> Y_(h+1) -> Y_h -> 0, where Y_k is the k-th member of
    the Jordan-type tower over `base` (a simple skyscraper or a
    coprime stable bundle)."""
    return _jordan_towers(base)(h)


@record
class RelationBounds:
    """Sweep bounds for the K-theory relation suite (each >= 0)."""

    r_max: int = 4
    d_max: int = 4
    n_max: int = 3
    h_max: int = 3

    def __post_init__(self):
        for name in ("r_max", "d_max", "n_max", "h_max"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )


def relation_suite(
    bounds: RelationBounds, points: Sequence[TatePoint]
) -> List[RelationTriple]:
    """All four relation families over the parameter grid: isomorphism
    pairs, divisor sequences for |d| <= d_max, coprime-bundle sequences
    for r <= r_max, |d| <= d_max, n <= n_max, and Jordan towers up to
    height h_max over skyscraper and bundle bases."""
    out: List[RelationTriple] = []
    table: dict = {}
    for n in range(-bounds.n_max, bounds.n_max + 1):
        out.append(
            iso_pair(
                o_of_n_p0(n),
                Bundle(1, n, point_pow(TatePoint.two_torsion(), n)),
            )
        )
    # O_Q per point index, never per value: 1 and 1+0j compare equal but
    # give other bits
    skies = [SheafSum(Skyscraper(q, 1)) for q in points]
    divisors = [_divisor_sequences(d_pt, q, sky, table, i)
                for i, d_pt in enumerate(points) for q, sky in zip(points, skies)]
    for d in range(-bounds.d_max, bounds.d_max + 1):
        out.extend(relation(d) for relation in divisors)
    for r in range(2, bounds.r_max + 1):
        twists = [_atiyah_sequences(r, n, table) for n in range(1, bounds.n_max + 1)]
        for d in range(-bounds.d_max, bounds.d_max + 1):
            if gcd(r, abs(d)) != 1:
                continue
            for relation in twists:
                out.extend(relation(d, pt, i) for i, pt in enumerate(points))
    bases = [(Skyscraper(p, 1), sky) for p, sky in zip(points, skies)]
    for r in range(1, bounds.r_max + 1):
        for d in range(-bounds.d_max, bounds.d_max + 1):
            if gcd(r, abs(d)) == 1:
                bases.append((Bundle(r, d, points[0]), None))
    for base, y1 in bases:
        relation = _jordan_towers(base, y1)
        out.extend(relation(h) for h in range(1, bounds.h_max + 1))
    return out
