"""Right-hand sides of the similarity ODEs as first-order systems.

Also which power-law scalings leave an equation invariant, found exactly
over the rationals. Topfer's group, which the solvers apply, is in scaling.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import check_finite, check_positive
from .ode import Checked, State3


class BlasiusFamilyRhs(Checked, NamedTuple("BlasiusFamilyRhs", [("beta", float)])):
    """f''' = -beta * f * f''.

    beta is 1/2 for the classic Blasius, moving-wall, and slip problems
    and 1 for the gasification and truncated-boundary forms; carrying it
    as a field keeps the convention explicit per problem.
    """

    __slots__ = ()

    def __new__(cls, beta: float):
        return tuple.__new__(cls, (check_positive("beta", beta),))

    def __call__(self, eta: float, s: State3) -> State3:
        return State3(s.fp, s.fpp, -self.beta * s.f * s.fpp)


class FalknerSkanRhs(Checked, NamedTuple("FalknerSkanRhs", [("P", float)])):
    """f''' = -f f'' - P (1 - f'^2), P the pressure-gradient parameter."""

    __slots__ = ()

    def __new__(cls, P: float):
        return tuple.__new__(cls, (check_finite("P", P),))

    def __call__(self, eta: float, s: State3) -> State3:
        return State3(s.fp, s.fpp, -s.f * s.fpp - self.P * (1.0 - s.fp * s.fp))


class ExponentSystem(Checked, NamedTuple("ExponentSystem", [
        ("rows", tuple[tuple[Fraction, ...], ...])])):
    """Linear invariance conditions on the scaling exponents.

    Each row holds the coefficients of (alpha_1, ..., alpha_n) in one
    homogeneous condition (scaling invariance never produces an
    inhomogeneous system).
    """

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[Fraction, ...], ...]):
        if not rows:
            raise ValueError("system needs at least one condition row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("condition rows must have equal width")
        return tuple.__new__(cls, (rows,))

    @property
    def unknowns(self) -> int:
        return len(self.rows[0])


class InvarianceSolution(NamedTuple):
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


def numeric_invariance_check(rhs, lam_test: float, states) -> float:
    """Largest ODE residual after transforming sample states by the group.

    For each sample the state is mapped to star variables, the star
    third derivative demanded by the equation is compared against the
    group-transformed physical one (f''' scales by lambda^4), and the
    worst absolute mismatch is returned. The result is ~0 exactly when
    the equation is invariant under the group.
    """
    lam_test = check_positive("lam_test", lam_test)
    third_weight = lam_test ** 4.0
    worst = 0.0
    for sample in states:
        s = State3(*sample)
        star = State3(lam_test * s.f, lam_test ** 2.0 * s.fp,
                      lam_test ** 3.0 * s.fpp)
        physical_third = rhs(0.0, s)[2]
        star_third = rhs(0.0, star)[2]
        worst = max(worst, abs(third_weight * physical_third - star_third))
    return worst
