"""Non-iterative transformation methods for Blasius-class boundary layers.

Scaling invariance turns each two-point boundary-value problem into a
single auxiliary initial-value problem: integrate once with seeded wall
data, read the far-field slope, recover the group parameter lambda, and
rescale. No shooting iteration is involved.
"""

from . import analysis, kernels, models, ode, scaling, solvers
from .analysis import (BlasiusSeries, RubelBound, TruncatedSolution,
                       rubel_bound, series_coefficients, series_deviation,
                       series_eval, truncated_solution)
from .errors import (BlowupError, BracketingError, NitmError,
                     NoConvergenceError, ScalingBreakdownError,
                     UnsupportedVariantError)
from .models import BlasiusFamilyRhs, FalknerSkanRhs
from .ode import GridConfig, SolutionTable, State3, integrate
from .scaling import (ExponentSystem, InvarianceSolution,
                      blasius_exponent_system, falkner_skan_exponent_system,
                      numeric_invariance_check, solve_invariance_exponents)
from .solvers import (DEFAULT_SCHEDULE, CriticalB, NitmConfig, NitmResult,
                      ProblemSpec, classic_problem, find_critical_b,
                      find_star_for_target, initial_state, solve_auxiliary,
                      solve_gasification, solve_many, solve_moving_wall,
                      solve_slip, solve_variant, sweep)

__version__ = "0.1.0"

__all__ = [
    "BlasiusFamilyRhs", "BlasiusSeries", "BlowupError", "BracketingError",
    "CriticalB", "DEFAULT_SCHEDULE", "ExponentSystem", "FalknerSkanRhs",
    "GridConfig", "InvarianceSolution", "NitmConfig", "NitmError",
    "NitmResult", "NoConvergenceError", "ProblemSpec", "RubelBound",
    "ScalingBreakdownError", "SolutionTable", "State3", "TruncatedSolution",
    "UnsupportedVariantError", "analysis", "blasius_exponent_system",
    "classic_problem", "falkner_skan_exponent_system", "find_critical_b",
    "find_star_for_target", "initial_state", "integrate", "kernels", "models",
    "numeric_invariance_check", "ode", "rubel_bound", "scaling",
    "series_coefficients", "series_deviation", "series_eval",
    "solve_auxiliary", "solve_gasification", "solve_invariance_exponents",
    "solve_many", "solve_moving_wall", "solve_slip", "solve_variant", "solvers", "sweep",
    "truncated_solution",
]
