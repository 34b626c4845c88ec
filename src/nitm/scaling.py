"""Scaling-group algebra.

Recovers the group parameter lambda from a computed asymptote, rescales
star solutions to physical ones, maps invariant physical parameters,
and analyzes which power-law scalings leave an equation invariant.

All four solver variants share one group: f* = lambda f, eta* =
lambda^delta eta with delta = -1. Wall shear is a derived output
(fpp0 = p * lambda^(2*delta-1)), not a second group parameter.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ScalingBreakdownError
from .ode import GridConfig, SolutionTable, State3


@dataclass(frozen=True)
class ScalingGroup:
    """Power-law group f* = lambda f, eta* = lambda^delta eta.

    d is the asymptotic slope the physical solution must reach.
    """

    delta: float = -1.0
    d: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta == 1.0:
            raise ValueError(f"delta must be finite and != 1, got {self.delta}")
        if not math.isfinite(self.d) or self.d == 0.0:
            raise ValueError(f"d must be finite and nonzero, got {self.d}")


def lambda_from_asymptote(fp_inf_star: float, group: ScalingGroup) -> float:
    """Group parameter matching the star asymptote to slope d.

    lambda = (fp_inf_star / d) ** (1 / (1 - delta)).
    """
    ratio = fp_inf_star / group.d
    if not (ratio > 0.0) or not math.isfinite(ratio):
        raise ScalingBreakdownError(
            f"asymptote ratio fp_inf_star/d = {ratio:.6g} is not positive; "
            "the group cannot match the asymptote"
        )
    exponent = 1.0 / (1.0 - group.delta)
    if exponent == 0.5:
        return math.sqrt(ratio)
    return ratio ** exponent


def lambda_moving_wall(fp_inf_star: float, b_star: float) -> float:
    """Group parameter for the moving wall: lambda = sqrt(fp_inf_star + b*)."""
    base = fp_inf_star + b_star
    if not (base > 0.0) or not math.isfinite(base):
        raise ScalingBreakdownError(
            f"fp_inf_star + b_star = {base:.6g} is not positive; "
            "no real lambda matches this asymptote"
        )
    return math.sqrt(base)


def physical_values(lam: float, f, fp, fpp, delta: float = -1.0):
    """Physical f, fp, fpp from star values, for floats or arrays alike.

    f = lambda^(-1) f*, fp = lambda^(delta-1) fp*, fpp = lambda^(2*delta-1) fpp*.
    Each is one multiply by a float power of lambda, so a star value
    and an array entry holding it give the same bits.
    """
    return (f * lam ** -1.0,
            fp * lam ** (delta - 1.0),
            fpp * lam ** (2.0 * delta - 1.0))


def rescale_arrays(step_star: float, f, fp, fpp, lam: float,
                   delta: float = -1.0) -> SolutionTable:
    """Physical table from star arrays on the grid 0, step_star, 2 step_star, ...

    eta = lambda^(-delta) eta*; the values follow physical_values. The
    arrays may be views of a larger buffer: the table holds the fresh
    products only.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lambda must be positive, got {lam}")
    grid = GridConfig.of_nodes(len(f), lam ** -delta * step_star)
    if not (grid.step > 0.0 and math.isfinite(grid.eta_max)):
        raise ValueError(f"lambda = {lam} takes the grid out of float range")
    return SolutionTable(grid, *physical_values(lam, f, fp, fpp, delta))


def rescale(table_star: SolutionTable, lam: float, group: ScalingGroup) -> SolutionTable:
    """Apply the inverse transformation to a star-variable table.

    eta = lambda^(-delta) eta*; f, fp and fpp as in physical_values.
    """
    return rescale_arrays(table_star.grid.step, table_star.f, table_star.fp,
                          table_star.fpp, lam, group.delta)


def map_parameter(star_value: float, lam: float, k: float) -> float:
    """Physical parameter from its star value: star_value * lambda^(-k)."""
    return star_value * lam ** -k


@dataclass(frozen=True)
class ExponentSystem:
    """Linear invariance conditions on the scaling exponents.

    Each row holds the coefficients of (alpha_1, ..., alpha_n) in one
    homogeneous condition (scaling invariance never produces an
    inhomogeneous system).
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("system needs at least one condition row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("condition rows must have equal width")

    @property
    def unknowns(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class InvarianceSolution:
    """Null space of an ExponentSystem over the rationals."""

    nullity: int
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def trivial_only(self) -> bool:
        return self.nullity == 0

    @property
    def generator(self) -> tuple[Fraction, ...] | None:
        """One-parameter generator, normalized on its last nonzero entry."""
        if self.nullity != 1:
            return None
        vec = self.basis[0]
        pivot = next(v for v in reversed(vec) if v != 0)
        return tuple(v / pivot for v in vec)


def solve_invariance_exponents(system: ExponentSystem) -> InvarianceSolution:
    """Classify the scaling freedom of a homogeneous exponent system.

    Returns the null-space dimension and a rational basis: nullity 0
    means only the trivial scaling is invariant, nullity 1 a genuine
    one-parameter family.
    """
    width = system.unknowns
    rows = [list(r) for r in system.rows]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -rows[prow][fc]
        basis.append(tuple(vec))
    return InvarianceSolution(nullity=len(free), basis=tuple(basis))


def blasius_exponent_system() -> ExponentSystem:
    """Invariance conditions of f''' = -beta f f'' in (alpha_1, alpha_2).

    alpha_1 scales eta, alpha_2 scales f. Equating the weights of f'''
    (alpha_2 - 3 alpha_1) and f f'' (2 alpha_2 - 2 alpha_1) leaves the
    single condition -alpha_1 - alpha_2 = 0.
    """
    return ExponentSystem(rows=((Fraction(-1), Fraction(-1)),))


def falkner_skan_exponent_system() -> ExponentSystem:
    """Invariance conditions of the Falkner-Skan equation.

    Unknowns (alpha_1, alpha_2, alpha_3) scale eta, f, and P. The four
    term weights alpha_2 - 3 alpha_1, 2(alpha_2 - alpha_1), alpha_3,
    and alpha_3 + 2(alpha_2 - alpha_1) must all agree, giving three
    conditions whose only solution is alpha_1 = alpha_2 = alpha_3 = 0.
    """
    f = Fraction
    return ExponentSystem(rows=(
        (f(-1), f(-1), f(0)),
        (f(-2), f(2), f(-1)),
        (f(2), f(-2), f(0)),
    ))


def numeric_invariance_check(rhs, group: ScalingGroup, lam_test: float,
                             states) -> float:
    """Largest ODE residual after transforming sample states by the group.

    For each sample the state is mapped to star variables, the star
    third derivative demanded by the equation is compared against the
    group-transformed physical one, and the worst absolute mismatch is
    returned. The result is ~0 exactly when the equation is invariant
    under (delta, 1) scaling.
    """
    if not (lam_test > 0.0) or not math.isfinite(lam_test):
        raise ValueError(f"lam_test must be positive, got {lam_test}")
    delta = group.delta
    third_weight = lam_test ** (1.0 - 3.0 * delta)
    worst = 0.0
    for sample in states:
        s = State3(*sample)
        star = State3(
            lam_test * s.f,
            lam_test ** (1.0 - delta) * s.fp,
            lam_test ** (1.0 - 2.0 * delta) * s.fpp,
        )
        physical_third = rhs(0.0, s)[2]
        star_third = rhs(0.0, star)[2]
        worst = max(worst, abs(third_weight * physical_third - star_third))
    return worst
