"""Phase points on the velocity and momentum charts.

A point is a base position x together with a fiber coordinate vector,
tagged by which chart the fiber lives in: VELOCITY (upper-index fiber)
or MOMENTUM (lower-index fiber). A PhasePoint holds one point, x and
fiber of shape (n,), or a batch of N points, both of shape (N, n).
"""

import enum

import numpy as np

from .errors import ValidationError


class Rep(enum.Enum):
    VELOCITY = "v"
    MOMENTUM = "p"


class PhasePoint:
    """Immutable (x, fiber) pair with a representation tag: one point or
    a batch. It holds read-only copies of the caller's arrays."""

    __slots__ = ("x", "fiber", "rep")

    def __init__(self, x, fiber, rep: Rep):
        x = np.array(x, dtype=float)
        fiber = np.array(fiber, dtype=float)
        if x.ndim not in (1, 2) or x.shape != fiber.shape:
            raise ValidationError(
                f"phase point needs coordinates of one shape, (n,) or (N, n), "
                f"got x{x.shape} fiber{fiber.shape}")
        x.setflags(write=False)
        fiber.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("PhasePoint is immutable")

    @classmethod
    def velocity(cls, x, v) -> "PhasePoint":
        return cls(x, v, Rep.VELOCITY)

    @classmethod
    def momentum(cls, x, p) -> "PhasePoint":
        return cls(x, p, Rep.MOMENTUM)

    def __repr__(self):
        which = "v" if self.rep is Rep.VELOCITY else "p"
        return f"PhasePoint(x={self.x.tolist()}, {which}={self.fiber.tolist()})"
