#!/usr/bin/env python3
"""Sweep the K-theory relation generators over a parameter box and
report, per family, how many short exact sequences were checked and the
worst defect seen in the determinant-point coordinate (the integer
rank/degree components are exact and must vanish identically)."""

import argparse
import cmath
import random
import sys
import time
from collections import Counter
from fractions import Fraction as F

from torushms.sheafk import RelationBounds, relation_suite
from torushms.tate import TatePoint


def unit_deviation(defect):
    """Distance of the defect's point coordinate from the identity."""
    if defect.pt.x % 1 != 0:
        return float("inf")
    terms = defect.pt.unit.terms
    lead = complex(terms[0][1]) if terms else 0.0
    return abs(lead + 1.0)  # the identity point carries unit -1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=int, default=4)
    ap.add_argument("--d-max", type=int, default=4)
    ap.add_argument("--n-max", type=int, default=3)
    ap.add_argument("--h-max", type=int, default=3)
    ap.add_argument("--extra-points", type=int, default=2,
                    help="random sample points beyond the fixed grid")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--tol", type=float, default=1e-9)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    points = [
        TatePoint.zero(),
        TatePoint.two_torsion(),
        TatePoint(F(1, 3), cmath.exp(2j * cmath.pi / 7)),
    ]
    for _ in range(args.extra_points):
        den = rng.randrange(2, 13)
        points.append(
            TatePoint(
                F(rng.randrange(1, den), den),
                cmath.exp(2j * cmath.pi * rng.random()),
            )
        )

    bounds = RelationBounds(args.r_max, args.d_max, args.n_max, args.h_max)
    started = time.monotonic()
    triples = relation_suite(bounds, points)
    counts = Counter(t.label for t in triples)
    worst = {}
    bad = []
    for t in triples:
        d = t.k0_defect()
        if d.rk != 0 or d.deg != 0:
            bad.append((t.label, "integer components", d.rk, d.deg))
            continue
        dev = unit_deviation(d)
        worst[t.label] = max(worst.get(t.label, 0.0), dev)
        if dev > args.tol:
            bad.append((t.label, "point deviation", dev))
    elapsed = time.monotonic() - started

    print(f"bounds: r<={bounds.r_max} |d|<={bounds.d_max} "
          f"n<={bounds.n_max} h<={bounds.h_max}, {len(points)} points")
    print(f"relations checked: {len(triples)}  ({elapsed:.3f} s)")
    for label in sorted(counts):
        print(f"  {label:15s} {counts[label]:5d}   worst point defect "
              f"{worst.get(label, 0.0):.3e}")
    if bad:
        print(f"FAILURES ({len(bad)}):")
        for item in bad[:20]:
            print("  ", item)
        return 1
    print(f"all hold (tol {args.tol:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
