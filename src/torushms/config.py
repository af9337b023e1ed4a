"""Run-wide configuration objects.

Computations are exact in the exponents (rationals throughout); only
series *coefficients* are floating, as machine complex doubles, which is
far more precision than any tolerance used in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RunConfig:
    """Options shared by every CLI verb.

    cutoff     truncation exponent for Novikov series (reliable part is
               strictly below it)
    tolerance  comparison tolerance for floating coefficients
    output     "plain" or "json"
    """

    cutoff: Fraction = Fraction(8)
    tolerance: float = 1e-9
    output: str = "plain"

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.output not in ("plain", "json"):
            raise ValueError("output must be 'plain' or 'json'")


@dataclass(frozen=True)
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
