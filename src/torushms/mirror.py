"""Object-level mirror dictionary, the anchored K-class map, and the
theta/Floer vanishing bridge.

The dictionary sends degree-n line bundles O(n P0) to slope-(1,-n)
branes with trivial local system, and a thickness-h skyscraper at the
point [-q^x M] to the vertical brane at x carrying the rank-h
indecomposable system with monodromy eigenvalue M.  Bundles of higher
rank only determine slope and local-system rank; their shift and
monodromy have no normalization here and the result is flagged
unanchored rather than guessed.

theta_sharp inverts the dictionary on K-classes for the anchored
generating slopes {(1, k)} and {(0, +-1)}; a slope-(0,1) brane is the
orientation reversal (odd shift) of the slope-(0,-1) brane on the same
circle with inverted monodromy.

theta_floer_equiv checks, at a common truncation, that the Floer
product mu2(c1, c3) in the standard three-brane configuration vanishes
exactly when the corresponding theta section vanishes at the conjugate
point -- the two sides of the bridge must return the same verdict.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple

from ._record import record
from .errors import DegenerateConfiguration, UnanchoredSlope
from .floer import cf, FloerElement, mu2, vanishes_truncated
from .novikov import NovikovSeries, Rational
from .sheafk import (
    Bundle, IndecSheaf, K0Class, Skyscraper, sum_with_multiplicities,
)
from .tate import (
    SectionCoeffs,
    TatePoint,
    conjugate_zero,
    point_mul,
    point_pow,
    section_vanishes_at,
)
from .torus import Brane, LocalSystem

__all__ = [
    "MirrorPair",
    "mirror_of_sheaf",
    "theta_sharp",
    "theta_floer_equiv",
    "zeta_injectivity_witness",
]


@record
class MirrorPair:
    """A sheaf with its mirror brane.  `anchored` is False when only
    the slope and local-system rank are meaningful."""

    sheaf: IndecSheaf
    brane: Brane
    anchored: bool = True
    note: str = ""


def mirror_of_sheaf(s: IndecSheaf) -> MirrorPair:
    """Dictionary rows:
    O(n P0)            -> slope (1, -n), trivial system;
    Sky([-q^x M], h)   -> vertical brane at x, rank-h system E_M;
    Bundle, gcd = h    -> slope (r/h, -d/h), rank-h system
                          (unanchored: shift and monodromy unknown).
    Homological shift carries over to the grading offset."""
    if isinstance(s, Skyscraper):
        brane = Brane(
            (0, -1),
            shift=s.pt.x,
            grading_offset=s.shift,
            local_system=LocalSystem.from_eigenvalue(s.pt.unit, s.h),
        )
        return MirrorPair(s, brane)
    h = gcd(s.rank, abs(s.degree)) if s.degree else s.rank
    slope = (s.rank // h, -s.degree // h)
    if s.rank == 1 and s.det_pt.approx_eq(
        point_pow(TatePoint.two_torsion(), s.degree)
    ):
        brane = Brane((1, -s.degree), grading_offset=s.shift)
        return MirrorPair(s, brane)
    brane = Brane(
        slope,
        grading_offset=s.shift,
        local_system=LocalSystem.from_eigenvalue(1, h),
    )
    return MirrorPair(
        s,
        brane,
        anchored=False,
        note="only slope and rank are normalized for this bundle",
    )


def _sharp_one(b: Brane) -> K0Class:
    m, n = b.slope
    if (m, n) in ((0, -1), (0, 1)):
        system = b.local_system
        offset = b.grading_offset
        if (m, n) == (0, 1):
            # orientation reversal: odd shift of the (0,-1) brane on the
            # same circle, traversed backwards (monodromy inverted)
            system = system.inverse_eigen()
            offset += 1
        total = K0Class.zero()
        for eig, size in system.blocks:
            total = total + K0Class(
                0, size, point_pow(TatePoint(b.shift, eig), size)
            )
        return total if offset % 2 == 0 else -total
    if m == 1:
        if b.shift != 0 or not b.local_system.is_trivial_rank_one():
            raise UnanchoredSlope(
                "slope (1, k) is anchored only with zero shift and the "
                "trivial rank-1 system"
            )
        cls = K0Class(1, -n, point_pow(TatePoint.two_torsion(), -n))
        return cls if b.grading_offset % 2 == 0 else -cls
    raise UnanchoredSlope(
        f"slope {b.slope} is outside the anchored generating set"
    )


def theta_sharp(b) -> K0Class:
    """K-class of an anchored brane (or formal sum of them, summed by
    `sheafk.sum_with_multiplicities`, on its scalar lane where it can)."""
    if isinstance(b, Brane):
        return _sharp_one(b)
    return sum_with_multiplicities(b, _sharp_one)


def theta_floer_equiv(
    x: Rational,
    m_unit,
    sigma: SectionCoeffs,
    cutoff: Rational,
) -> Tuple[bool, bool]:
    """Both verdicts of the vanishing bridge.

    Left: in the configuration (slope (1,2) brane, slope (1,0) brane,
    vertical brane at x with monodromy M), does every entry of
    mu2(c1, c3) vanish by `novikov.vanishes`, where c1 weights the two
    horizontal-chain generators by (sigma0, sigma1) and c3 is the
    unique generator of the vertical-to-(1,2) space?

    Right: does the section (sigma0, sigma1) vanish at the conjugate
    point [-q^-x M^-1], by the same verdict on its value?

    The bridge asserts the answers agree."""
    x = Fraction(x) % 1
    if x in (Fraction(0), Fraction(1, 2)):
        raise DegenerateConfiguration(
            f"x = {x} puts the vertical brane through a triple point"
        )
    point = TatePoint(x, m_unit)
    y0 = Brane((1, 2))
    y1 = Brane((1, 0))
    y2 = Brane(
        (0, -1),
        shift=x,
        local_system=LocalSystem.from_eigenvalue(point.unit, 1),
    )
    space_01 = cf(y0, y1)
    c1 = FloerElement(
        space_01,
        {
            (Fraction(0), Fraction(0)): ((sigma.sigma0,),),
            (Fraction(1, 2), Fraction(0)): ((sigma.sigma1,),),
        },
    )
    space_20 = cf(y2, y0)
    (pt_20,) = space_20.coords()
    c3 = FloerElement(space_20, {pt_20: ((NovikovSeries.constant(1),),)})
    lhs = vanishes_truncated(mu2(c1, c3, cutoff), cutoff)
    rhs = section_vanishes_at(sigma, conjugate_zero(point), cutoff)
    return lhs, rhs


def zeta_injectivity_witness(x: Rational) -> K0Class:
    """[structure sheaf of the point [-1]] - [of the point [-q^x]]:
    the degree-0 class (0, 0, [q^-x]), zero exactly when x = 0 mod 1."""
    base = TatePoint(0, 1)
    moved = TatePoint(Fraction(x), 1)
    return K0Class(0, 0, point_mul(base, conjugate_zero(moved)))
