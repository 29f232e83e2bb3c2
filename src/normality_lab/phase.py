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
    a batch."""

    __slots__ = ("x", "fiber", "rep")

    def __init__(self, x, fiber, rep: Rep):
        x = np.asarray(x, dtype=float)
        fiber = np.asarray(fiber, dtype=float)
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

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @classmethod
    def velocity(cls, x, v) -> "PhasePoint":
        return cls(x, v, Rep.VELOCITY)

    @classmethod
    def momentum(cls, x, p) -> "PhasePoint":
        return cls(x, p, Rep.MOMENTUM)

    def __repr__(self):
        which = "v" if self.rep is Rep.VELOCITY else "p"
        return f"PhasePoint(x={self.x.tolist()}, {which}={self.fiber.tolist()})"

    def __eq__(self, other):
        if not isinstance(other, PhasePoint):
            return NotImplemented
        return (self.rep is other.rep
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.fiber, other.fiber))

    def __hash__(self):
        return hash((self.rep, self.x.tobytes(), self.fiber.tobytes()))
