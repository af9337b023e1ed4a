#!/usr/bin/env python3
"""Compute the one-generator triangle product for the chain

    L(1,2;0),  L(1,0;0),  L(0,-1;x) with monodromy M = e^(2 pi i m),

print its q-series next to the independent lattice closed form, and
optionally re-weight the inputs by the theta section vanishing at the
conjugate point, which kills the series below the truncation window.
"""

import argparse
import cmath
import sys
from fractions import Fraction as F

from torushms.floer import (
    FloerElement,
    cf,
    mu2_triangles,
    vanishes_truncated,
)
from torushms.novikov import NovikovSeries, series_text
from torushms.tate import TatePoint, conjugate_zero, section_through
from torushms.torus import Brane, LocalSystem

C = NovikovSeries.constant


def closed_form(x, m, s0, s1, cutoff):
    acc = {}
    for n in range(-40, 41):
        e = (F(n) - x) ** 2
        if e < cutoff:
            acc[e] = acc.get(e, 0) - s0 * m ** float(2 * x - 2 * n)
        e = (F(n) + F(1, 2) - x) ** 2
        if e < cutoff:
            acc[e] = acc.get(e, 0) + s1 * m ** float(2 * x - (2 * n + 1))
    return {e: c for e, c in acc.items() if abs(c) > 1e-12}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x", type=F, default=F(1, 4),
                    help="shift of the vertical brane (default 1/4)")
    ap.add_argument("--m-phase", type=F, default=F(1, 3),
                    help="monodromy phase in turns (default 1/3)")
    ap.add_argument("--cutoff", type=F, default=F(6))
    ap.add_argument("--vanishing", action="store_true",
                    help="weight inputs by the section through the "
                         "conjugate point instead of (1, 1)")
    args = ap.parse_args()

    x, cutoff = args.x % 1, args.cutoff
    m = cmath.exp(2j * cmath.pi * float(args.m_phase))
    y0, y1 = Brane((1, 2)), Brane((1, 0))
    y2 = Brane((0, -1), shift=x,
               local_system=LocalSystem.from_eigenvalue(C(m)))

    if args.vanishing:
        sigma = section_through(conjugate_zero(TatePoint(x, m)), cutoff)
        s0, s1 = sigma.sigma0, sigma.sigma1
        print(f"weights: section through conjugate of [-q^{x} M]")
    else:
        s0, s1 = C(1), C(1)
        print("weights: (1, 1)")

    c1 = FloerElement(
        cf(y0, y1), {(F(0), F(0)): ((s0,),), (F(1, 2), F(0)): ((s1,),)}
    )
    space = cf(y2, y0)
    c3 = FloerElement(space, {space.coords()[0]: ((C(1),),)})
    out, triangles = mu2_triangles(c1, c3, cutoff)

    print(f"chain: L(1,2;0), L(1,0;0), L(0,-1;{x}) with M = exp(2 pi i "
          f"{args.m_phase})")
    print(f"triangles counted below cutoff {cutoff}: {len(triangles)}")
    if out.is_zero():
        print("product: 0")
    else:
        ((coords, matrix),) = out.components
        print(f"product at ({coords[0]}, {coords[1]}):")
        print("  " + series_text(matrix[0][0]))

    if args.vanishing:
        ok = vanishes_truncated(out, cutoff)
        print(f"vanishes below cutoff - 1: {'yes' if ok else 'NO'}")
        return 0 if ok else 1

    series = out.components[0][1][0][0]
    expected = closed_form(x, m, 1, 1, cutoff)
    same_support = {e for e, _ in series.terms} == set(expected)
    worst = max(
        (abs(c - expected.get(e, 0)) for e, c in series.terms), default=0.0
    )
    print(f"closed-form exponents match: {'yes' if same_support else 'NO'}")
    print(f"worst coefficient deviation: {worst:.3e}")
    return 0 if same_support and worst <= 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main())
