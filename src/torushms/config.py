"""Sweep bounds for the K-theory relation suite."""

from __future__ import annotations

from dataclasses import dataclass


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
