"""Right-hand sides of the similarity ODEs as first-order systems."""

import math
from dataclasses import dataclass

from .ode import State3


@dataclass(frozen=True)
class BlasiusFamilyRhs:
    """f''' = -beta * f * f''.

    beta is 1/2 for the classic Blasius, moving-wall, and slip problems
    and 1 for the gasification and truncated-boundary forms; carrying it
    as a field keeps the convention explicit per problem.
    """

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")

    def __call__(self, eta: float, s: State3) -> State3:
        return State3(s.fp, s.fpp, -self.beta * s.f * s.fpp)


@dataclass(frozen=True)
class FalknerSkanRhs:
    """f''' = -f f'' - P (1 - f'^2), P the pressure-gradient parameter."""

    P: float

    def __post_init__(self):
        if not math.isfinite(self.P):
            raise ValueError(f"P must be finite, got {self.P}")

    def __call__(self, eta: float, s: State3) -> State3:
        return State3(s.fp, s.fpp, -s.f * s.fpp - self.P * (1.0 - s.fp * s.fp))

