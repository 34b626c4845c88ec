"""Fixed-step classical RK4 integration on uniform grids.

Fixed stepping is deliberate: the lambda-agreement test and the table
reproductions depend on deterministic grids, so no adaptive control is
offered. Grid nodes are computed as i*step (never by accumulation) to
keep the last node exactly on the requested boundary.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from . import kernels
from .errors import BlowupError, check_finite, check_numbers, check_positive

if TYPE_CHECKING:
    import numpy as np

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


class Checked:
    """Base, before the NamedTuple, of a value type whose __new__ checks it.

    The NamedTuple's own _make copies its fields in unchecked, and its
    _replace goes through _make; this _make calls the constructor, so
    both run the same checks as construction.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class GridConfig(Checked, NamedTuple("GridConfig", [("eta_max", float),
                                                    ("step", float)])):
    """Uniform grid on [0, eta_max] with eta_max an integer multiple of step."""

    __slots__ = ()

    def __new__(cls, eta_max: float, step: float = DEFAULT_STEP):
        eta_max = check_finite("eta_max", eta_max)
        step = check_positive("step", step)
        node_index(eta_max, step, "eta_max")
        return tuple.__new__(cls, (eta_max, step))

    @classmethod
    def of_nodes(cls, nodes: int, step: float) -> "GridConfig":
        """Grid of nodes >= 2 nodes at a positive step, built without the checks.

        eta_max = (nodes - 1) * step is a whole number of steps by
        construction; the caller makes sure that it is finite.
        """
        return tuple.__new__(cls, ((nodes - 1) * step, step))

    @property
    def nodes(self) -> int:
        return round(self.eta_max / self.step) + 1

    def etas(self) -> np.ndarray:
        """Node coordinates, exactly i*step for node i."""
        import numpy as np
        return np.arange(self.nodes) * self.step


class Record:
    """Base of the read-only records that compare by identity.

    A subclass names its public fields in _fields, as a NamedTuple does,
    and keeps each in the slot _<name>: the field reads through a
    property with no setter, so assigning it raises AttributeError,
    while construction is plain slot stores. A field the subclass
    defines itself, as a property, keeps that definition. repr shows
    the fields.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls._fields:
            if name not in vars(cls):
                setattr(cls, name, property(attrgetter("_" + name)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class SolutionTable(Record):
    """Dense solution on a uniform grid, one row per node."""

    _fields = ("grid", "f", "fp", "fpp")
    __slots__ = tuple("_" + name for name in _fields)

    def __init__(self, grid: GridConfig, f: np.ndarray, fp: np.ndarray,
                 fpp: np.ndarray):
        self._grid, self._f, self._fp, self._fpp = grid, f, fp, fpp

    def etas(self) -> np.ndarray:
        return self.grid.etas()


class StarTableRecord(Record):
    """Base of a record whose table is rescaled from star values on first read.

    _star holds the star step, then f, fp and fpp as array('d') buffers,
    or a batched row's beta, seed and accepted stop: its walk kept no
    node, so the read fills nodes 0 .. stop from the seed with integrate,
    the walk's operations, so the walk's bits. The read rescales them by
    _lam, keeps the table in _table and drops _star; later reads return
    the same table. A subclass's table property passes its own module's
    rescale, looked up at the read as integrate is, so a wrapper patched
    onto that module, or onto integrate here, is used.
    """

    __slots__ = ("_star", "_table")

    def _read_table(self, rescale) -> SolutionTable:
        star = self._star
        if star is None:
            return self._table
        import numpy as np

        step, *columns = star
        if type(columns[0]) is float:       # beta, not a buffer
            beta, seed, stop = columns
            filled = integrate(beta, seed, GridConfig.of_nodes(stop + 1, step))
            columns = filled.f, filled.fp, filled.fpp
        else:
            columns = map(np.frombuffer, columns)
        table = rescale(step, *columns, self._lam)
        # the table before _star goes: a concurrent first read finds one of them
        self._table = table
        self._star = None
        return table


def integrate(beta: float, initial, grid: GridConfig) -> SolutionTable:
    """Integrate f''' = -beta*f*f'' from eta=0 to grid.eta_max, storing every node."""
    beta = check_positive("beta", beta)
    start = State3(*check_numbers("initial", initial, "initial state"))
    import numpy as np

    # every caller goes on to numpy work: exact-size buffers, not zero-filled
    n = grid.nodes
    f, fp, fpp = np.empty(n), np.empty(n), np.empty(n)
    f[0], fp[0], fpp[0] = start
    # looked up at each call, so a kernel patched onto the module is used
    bad = kernels.fill_blasius_family(beta, f, fp, fpp, grid.step, 0, n - 1)
    if bad >= 0:
        raise BlowupError(bad * grid.step)
    return SolutionTable(grid, f, fp, fpp)
