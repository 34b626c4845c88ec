"""Topfer's scaling group, as the solvers apply it.

Every solver variant rests on one stretching group, Topfer's f* =
lambda f, eta* = lambda^-1 eta, so fp* = lambda^2 fp and fpp* =
lambda^3 fpp. It leaves f''' + beta f f'' = 0 invariant, and it is the
generator (-1, 1) that models.blasius_exponent_system() finds. This
module recovers lambda from a computed asymptote, rescales star
solutions to physical ones, and maps invariant physical parameters.
Wall shear is a derived output (fpp0 = p * lambda^-3), not a second
group parameter. Which scalings leave an equation invariant is found in
models, which no solve imports.
"""

import math

from .errors import ScalingBreakdownError, check_positive
from .ode import GridConfig, SolutionTable


def lambda_from_asymptote(fp_inf_star: float) -> float:
    """Group parameter matching the star asymptote to slope 1.

    lambda = sqrt(fp_inf_star), for every variant but the moving wall.
    """
    if not (fp_inf_star > 0.0) or not math.isfinite(fp_inf_star):
        raise ScalingBreakdownError(
            f"asymptote ratio fp_inf_star = {fp_inf_star:.6g} is not positive; "
            "the group cannot match the asymptote"
        )
    return math.sqrt(fp_inf_star)


def lambda_moving_wall(fp_inf_star: float, b_star: float) -> float:
    """Group parameter for the moving wall: lambda = sqrt(fp_inf_star + b*)."""
    base = fp_inf_star + b_star
    if not (base > 0.0) or not math.isfinite(base):
        raise ScalingBreakdownError(
            f"fp_inf_star + b_star = {base:.6g} is not positive; "
            "no real lambda matches this asymptote"
        )
    return math.sqrt(base)


def physical_values(lam: float, f, fp, fpp):
    """Physical f, fp, fpp from star values, for floats or arrays alike.

    f = lambda^-1 f*, fp = lambda^-2 fp*, fpp = lambda^-3 fpp*. Each is
    one multiply by a float power of lambda, so a star value and an
    array entry holding it give the same bits.
    """
    return f * lam ** -1.0, fp * lam ** -2.0, fpp * lam ** -3.0


def rescale(step_star: float, f, fp, fpp, lam: float) -> SolutionTable:
    """Physical table from star arrays on the grid 0, step_star, 2 step_star, ...

    eta = lambda eta*; the values follow physical_values. The arrays may
    be views of a larger buffer: the table holds the fresh products only.
    """
    lam = check_positive("lam", lam)
    grid = GridConfig.of_nodes(len(f), lam * step_star)
    if not (grid.step > 0.0 and math.isfinite(grid.eta_max)):
        raise ValueError(f"lambda = {lam} takes the grid out of float range")
    return SolutionTable(grid, *physical_values(lam, f, fp, fpp))


def map_parameter(star_value: float, lam: float, k: float) -> float:
    """Physical parameter from its star value: star_value * lambda^(-k)."""
    return star_value * lam ** -k
