"""Golden `repr` pin of the K-theory group-law path.

`--json` prints coefficients through `float(complex(c))`, so it hides
the coefficient type (int, float or complex) and the sign of a zero.
`repr` shows both.  This file pins the `repr` of

  * `k0_defect()` of every relation in the (8, 8, 4, 6) relation suite
    over five phase points,
  * `k0_class` of a mixed sum with multiplicities up to +-500,
  * `theta_sharp` of an anchored brane sum,

as one sha256 over all lines plus a few lines in clear, recorded once
from the code that still normalised every one-term product through the
general `NovikovSeries` constructor.  A mismatch is a change in what
torushms computes.  Never regenerate the file to make this test pass.

To print the current values (for a deliberate, documented change only):

    PYTHONPATH=src python tests/test_golden_repr.py
"""

import cmath
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

from torushms.mirror import theta_sharp
from torushms.novikov import NovikovSeries
from torushms.sheafk import (
    Bundle, RelationBounds, SheafSum, Skyscraper, k0_class, relation_suite,
)
from torushms.tate import TatePoint
from torushms.torus import Brane, LocalSystem

PIN = Path(__file__).parent / "golden" / "repr_pin.json"

#: line indices shown in clear in the pin file
CLEAR = (0, 13, 200, 434, 1000, 1834, 2000, 2385)


def phase(turns: F) -> complex:
    return cmath.exp(2j * cmath.pi * (turns.numerator / turns.denominator))


def points():
    """Five phase points: complex units, an int unit, a unit whose real
    phase carries a tiny imaginary part, and a unit with a finite
    cutoff (so the truncated branches of `invert` and `mul` run)."""
    return [
        TatePoint(F(1, 3), phase(F(1, 7))),
        TatePoint(F(2, 5), phase(F(-3, 11))),
        TatePoint(F(1, 2), 1),
        TatePoint(F(5, 7), phase(F(1, 2))),
        TatePoint(F(0), NovikovSeries.constant(phase(F(2, 9)), 6)),
    ]


def mixed_sum():
    p = points()
    return SheafSum([
        (Skyscraper(p[0], 3), 500),
        (Bundle(2, 3, p[1]), -500),
        (Skyscraper(p[2], 1, 1), 237),
        (Bundle(1, -2, p[3], 1), -311),
        (Skyscraper(p[4], 2), 64),
    ])


def brane_sum():
    return [
        (Brane((0, -1), F(1, 3), local_system=LocalSystem.from_eigenvalue(
            phase(F(1, 7)), 3)), 5),
        (Brane((1, 2), F(0)), -4),
        (Brane((0, 1), F(2, 5), local_system=LocalSystem.from_eigenvalue(
            phase(F(-2, 9)), 2)), 17),
        (Brane((1, -3), F(0), grading_offset=1), 9),
    ]


def repr_lines():
    suite = relation_suite(RelationBounds(8, 8, 4, 6), points())
    lines = [f"{r.label} {r.k0_defect()!r}" for r in suite]
    lines.append(f"k0_class {k0_class(mixed_sum())!r}")
    lines.append(f"theta_sharp {theta_sharp(brane_sum())!r}")
    return lines


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def snapshot(lines) -> dict:
    return {
        "count": len(lines),
        "sha256": digest(lines),
        "clear": {str(i): lines[i] for i in CLEAR if i < len(lines)},
        "k0_class": lines[-2],
        "theta_sharp": lines[-1],
    }


def test_repr_lines_match_pin():
    expected = json.loads(PIN.read_text())
    got = snapshot(repr_lines())
    # the clear lines first, so a mismatch names what moved
    assert got["count"] == expected["count"]
    assert got["k0_class"] == expected["k0_class"]
    assert got["theta_sharp"] == expected["theta_sharp"]
    assert got["clear"] == expected["clear"]
    assert got["sha256"] == expected["sha256"]


if __name__ == "__main__":
    print(json.dumps(snapshot(repr_lines()), indent=1))
