"""Non-iterative transformation methods for Blasius-class boundary layers.

Scaling invariance turns each two-point boundary-value problem into a
single auxiliary initial-value problem: integrate once with seeded wall
data, read the far-field slope, recover the group parameter lambda, and
rescale. No shooting iteration is involved. The solve path loads on
import; analysis and models, with their names below, on first use.
"""

import importlib

from . import kernels, ode, scaling, solvers
from .errors import (BlowupError, BracketingError, NitmError,
                     NoConvergenceError, ScalingBreakdownError,
                     UnsupportedVariantError)
from .ode import GridConfig, SolutionTable, State3, integrate
from .solvers import (DEFAULT_SCHEDULE, CriticalB, NitmConfig, NitmResult,
                      ProblemSpec, classic_problem, find_critical_b,
                      find_star_for_target, initial_state, solve_auxiliary,
                      solve_gasification, solve_many, solve_moving_wall,
                      solve_slip, solve_variant, sweep)

__version__ = "0.1.0"

_LAZY = {
    "analysis": ("BlasiusSeries", "RubelBound", "RubelCheck", "TruncatedSolution",
                 "rubel_bound", "rubel_check", "series_coefficients",
                 "series_deviation", "series_eval", "truncated_solution"),
    "models": ("BlasiusFamilyRhs", "ExponentSystem", "FalknerSkanRhs",
               "InvarianceSolution", "blasius_exponent_system",
               "falkner_skan_exponent_system", "numeric_invariance_check",
               "solve_invariance_exponents"),
}

__all__ = [
    "BlowupError", "BracketingError", "CriticalB", "DEFAULT_SCHEDULE", "GridConfig",
    "NitmConfig", "NitmError", "NitmResult", "NoConvergenceError", "ProblemSpec",
    "ScalingBreakdownError", "SolutionTable", "State3", "UnsupportedVariantError",
    "classic_problem", "find_critical_b", "find_star_for_target", "initial_state",
    "integrate", "kernels", "ode", "scaling", "solve_auxiliary", "solve_gasification",
    "solve_many", "solve_moving_wall", "solve_slip", "solve_variant", "solvers",
    "sweep", *_LAZY, *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    module = next((m for m, names in _LAZY.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__getattr__(module), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
