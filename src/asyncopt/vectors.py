"""Value types shared by every layer: hyperedges, problem constants, the
l-inf clamp region, and the squared distance.

The shared iterate is always a dense float64 array; per-step gradients and
updates are sparse (index/value pairs restricted to a hyperedge's support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hyperedge",
    "ProblemConstants",
    "LinfBall",
    "sq_distance",
]


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperedge:
    """The set of coordinates a single objective term depends on."""

    id: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.unique(np.asarray(self.coords, dtype=np.int64))
        if coords.size == 0:
            raise ValueError("hyperedge must be non-empty")
        if coords[0] < 0:
            raise ValueError("negative coordinate index")
        object.__setattr__(self, "coords", coords)

    def __len__(self):
        return int(self.coords.size)


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness/convexity constants of a decomposable objective.

    ``L`` bounds the Lipschitz constant of the full gradient; ``L_term``
    bounds the per-term gradient Lipschitz constants (>= L is not implied in
    either direction once regularizers are split across sparse terms, so both
    are kept).  ``M`` is a uniform bound on the norm of a stochastic gradient
    step over a default reference region; callers that need a bound over a
    specific region should recompute it via the objective's
    ``grad_norm_bound``.
    """

    L: float
    m: float
    M: float
    n: int
    d: int
    L_term: float = 0.0

    def __post_init__(self):
        if self.m < 0 or self.L < self.m:
            raise ValueError(f"need L >= m >= 0, got L={self.L}, m={self.m}")
        if self.L_term == 0.0:
            object.__setattr__(self, "L_term", self.L)

    @property
    def kappa(self):
        if self.m <= 0:
            return np.inf
        return self.L / self.m

    @property
    def strongly_convex(self):
        return self.m > 0


@dataclass(frozen=True)
class LinfBall:
    """Component-wise clamp region.  ``radius=None`` means unbounded."""

    radius: float | None = None

    def __post_init__(self):
        if self.radius is not None and self.radius <= 0:
            raise ValueError("radius must be positive when bounded")

    @property
    def bounded(self):
        return self.radius is not None


def sq_distance(x, y):
    """Squared Euclidean distance between two dense vectors."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    return float(diff @ diff)
