"""Exception types shared across the package, and the checks of numeric inputs.

Each check refuses an input by an error whose message starts with its name."""

import math


def check_real(name: str, value) -> float:
    """float(value), refused unless a real number, no bool, within the float range.

    Runs ahead of any arithmetic, whose bare TypeError or OverflowError
    would not say which input was wrong. A float skips the abstract-class
    check (most of a microsecond) and the import of numbers.
    """
    if type(value) is float:
        return value
    from numbers import Real
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got one past the float range") from None


def check_finite(name: str, value) -> float:
    """float(value), refused unless value is a finite real number."""
    if type(value) is not float:
        value = check_real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_positive(name: str, value) -> float:
    """float(value), refused unless value is a positive, finite real number."""
    if type(value) is not float:
        value = check_real(name, value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_numbers(name: str, values, item: str) -> tuple[float, ...]:
    """The floats of a nonempty sequence of finite numbers; a bad one is named item."""
    try:
        values = tuple(values)
    except TypeError:
        raise TypeError(f"{name} must be a sequence of numbers, "
                        f"got {values!r}") from None
    if not values:
        raise ValueError(f"{name} must be nonempty")
    return tuple([check_finite(item, value) for value in values])


class NitmError(Exception):
    """Base class for numerical failures of the transformation method."""


class BlowupError(NitmError):
    """Integration produced a state outside the admissible range."""

    def __init__(self, eta: float):
        super().__init__(f"integration blew up at eta = {eta:.6g}")
        self.eta = eta


class ScalingBreakdownError(NitmError):
    """The scaling group cannot match the computed asymptote.

    Raised when the power-law base (fp_inf_star, or fp_inf_star + b_star
    for the moving wall) is not positive: the chosen star parameters and
    sign cannot represent the requested physical regime.
    """


class NoConvergenceError(NitmError):
    """An iteration exhausted its budget without meeting its tolerance."""

    def __init__(self, values, label: str = "lambda"):
        seq = ", ".join(f"{v:.9g}" for v in values)
        super().__init__(f"no {label} agreement (sequence: {seq})")
        self.values = tuple(values)


class BracketingError(NitmError):
    """A scan failed to bracket the requested root or minimum."""

    def __init__(self, message: str, scanned=()):
        self.scanned = tuple(scanned)
        if self.scanned:
            listing = ", ".join(f"{x:.6g}" for x in self.scanned)
            message = f"{message} (scanned: {listing})"
        super().__init__(message)
