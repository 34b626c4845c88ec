"""Fixed-step classical RK4 integration on uniform grids.

Fixed stepping is deliberate: the lambda-agreement test and the table
reproductions depend on deterministic grids, so no adaptive control is
offered. Grid nodes are computed as i*step (never by accumulation) to
keep the last node exactly on the requested boundary.
"""

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from .errors import BlowupError

DEFAULT_STEP = 0.01

# most nodes one grid may have, checked before anything is allocated:
# a solve's three float64 arrays then take at most 2.4 GB
MAX_NODES = 10**8


class State3(NamedTuple):
    """State of the similarity ODE written as a first-order system."""

    f: float
    fp: float
    fpp: float


def node_index(eta: float, step: float, name: str) -> int:
    """Index of the grid node at eta, which must be a positive whole number of steps."""
    ratio = eta / step
    if ratio >= MAX_NODES:
        raise ValueError(f"{name} = {eta} at step {step} needs more than "
                         f"{MAX_NODES} grid nodes")
    n = round(ratio) if math.isfinite(ratio) else 0
    # tolerate float representation of step*n, not genuine misalignment
    if n < 1 or abs(n * step - eta) > 1e-9 * max(1.0, eta):
        raise ValueError(
            f"{name} = {eta} is not a positive integer multiple of step {step}"
        )
    return n


@dataclass(frozen=True)
class GridConfig:
    """Uniform grid on [0, eta_max] with eta_max an integer multiple of step."""

    eta_max: float
    step: float = DEFAULT_STEP

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        node_index(self.eta_max, self.step, "eta_max")

    @classmethod
    def of_nodes(cls, nodes: int, step: float) -> "GridConfig":
        """Grid of nodes >= 2 nodes at a positive step, built without the checks.

        eta_max = (nodes - 1) * step is a whole number of steps by
        construction; the caller makes sure that it is finite.
        """
        grid = object.__new__(cls)
        object.__setattr__(grid, "eta_max", (nodes - 1) * step)
        object.__setattr__(grid, "step", step)
        return grid

    @property
    def nodes(self) -> int:
        return round(self.eta_max / self.step) + 1

    def etas(self) -> np.ndarray:
        """Node coordinates, exactly i*step for node i."""
        return np.arange(self.nodes) * self.step


@dataclass(frozen=True, eq=False)
class SolutionTable:
    """Dense solution on a uniform grid, one row per node."""

    grid: GridConfig
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray

    @property
    def fp_inf(self) -> float:
        """Last-node fp, the finite-boundary estimate of the asymptote."""
        return float(self.fp[-1])

    def etas(self) -> np.ndarray:
        return self.grid.etas()


def walk(beta: float, initial, step: float,
         stops) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Integrate f''' = -beta*f*f'' from node 0 through each stop index in turn.

    The arrays are allocated once, up to stops[-1], and (stop, f, fp,
    fpp) is yielded as soon as nodes 0..stop hold the solution. Nothing
    past the last stop a caller consumes is integrated.
    """
    start = State3(*initial)
    if not all(map(math.isfinite, start)):
        raise ValueError(f"initial state must be finite, got {start}")
    n = stops[-1] + 1
    f = np.empty(n)
    fp = np.empty(n)
    fpp = np.empty(n)
    f[0], fp[0], fpp[0] = start
    filled = 0
    for stop in stops:
        # looked up at each call, so a kernel patched onto the module is used
        bad = kernels.fill_blasius_family(beta, f, fp, fpp, step, filled, stop)
        if bad >= 0:
            raise BlowupError(bad * step)
        filled = stop
        yield stop, f, fp, fpp


def integrate(rhs, initial, grid: GridConfig) -> SolutionTable:
    """Integrate a Blasius-family rhs from eta=0 to grid.eta_max, storing every node."""
    from .models import BlasiusFamilyRhs  # deferred: models imports State3

    if not isinstance(rhs, BlasiusFamilyRhs):
        raise TypeError(f"integrate needs a BlasiusFamilyRhs, got {rhs!r}")
    [(_, f, fp, fpp)] = walk(rhs.beta, initial, grid.step, (grid.nodes - 1,))
    return SolutionTable(grid, f, fp, fpp)
