"""The package's record types: repr, equality, hashing and read-only fields.

Value types are NamedTuples that validate in __new__; the records that
compare by identity are __slots__ classes whose fields are read-only
properties. The repr strings are pinned to what the package printed
when these types were frozen dataclasses.
"""

import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest

from nitm import analysis, models, solvers
from nitm.ode import GridConfig, SolutionTable


def _table():
    return SolutionTable(GridConfig(0.02, 0.01), np.array([0.0, 1.0, 2.0]),
                         np.array([0.5, 0.25, 0.125]), np.array([1.0, -1.0, 0.0]))


_TABLE_REPR = ("SolutionTable(grid=GridConfig(eta_max=0.02, step=0.01), "
               "f=array([0., 1., 2.]), fp=array([0.5  , 0.25 , 0.125]), "
               "fpp=array([ 1., -1.,  0.]))")


# (build, pinned repr); build() twice gives two equal values
_VALUES = {
    "GridConfig": (lambda: GridConfig(4.0, 0.01),
                   "GridConfig(eta_max=4.0, step=0.01)"),
    "GridConfig.of_nodes": (lambda: GridConfig.of_nodes(3, 0.5),
                            "GridConfig(eta_max=1.0, step=0.5)"),
    "ProblemSpec": (lambda: solvers.ProblemSpec("moving-wall", -0.5, 1.0),
                    "ProblemSpec(variant='moving-wall', star_param=-0.5, p=1.0)"),
    "classic ProblemSpec": (solvers.classic_problem,
                            "ProblemSpec(variant='classic', star_param=None, p=1.0)"),
    "NitmConfig": (lambda: solvers.NitmConfig(step=0.02, boundary_schedule=(4, 6),
                                              lambda_tol=1e-8),
                   "NitmConfig(step=0.02, boundary_schedule=(4.0, 6.0), "
                   "lambda_tol=1e-08)"),
    "default NitmConfig": (solvers.NitmConfig,
                           "NitmConfig(step=0.01, boundary_schedule=("
                           + ", ".join(f"{b:.1f}" for b in range(4, 52, 2))
                           + "), lambda_tol=1e-06)"),
    "BlasiusSeries": (lambda: analysis.series_coefficients(1.0),
                      "BlasiusSeries(shear=1.0, coefficients=(0.5, "
                      "-0.004166666666666667, 6.820436507936508e-05, "
                      "-1.1743175805675806e-06))"),
    "RubelBound": (lambda: analysis.RubelBound(M=3.0, fM_at_M=1.5, fppM_at_M=0.25,
                                               bound=0.5),
                   "RubelBound(M=3.0, fM_at_M=1.5, fppM_at_M=0.25, bound=0.5)"),
    "BlasiusFamilyRhs": (lambda: models.BlasiusFamilyRhs(0.5),
                         "BlasiusFamilyRhs(beta=0.5)"),
    "FalknerSkanRhs": (lambda: models.FalknerSkanRhs(P=0.25),
                       "FalknerSkanRhs(P=0.25)"),
    "ExponentSystem": (lambda: models.ExponentSystem(
                           rows=((Fraction(1, 2), Fraction(-3)),)),
                       "ExponentSystem(rows=((Fraction(1, 2), Fraction(-3, 1)),))"),
    "InvarianceSolution": (lambda: models.solve_invariance_exponents(
                               models.blasius_exponent_system()),
                           "InvarianceSolution(nullity=1, "
                           "basis=((Fraction(-1, 1), Fraction(1, 1)),))"),
}

# (build, pinned repr); build() twice gives two distinct records
_IDENTITIES = {
    "SolutionTable": (_table, _TABLE_REPR),
    "TruncatedSolution": (lambda: analysis.TruncatedSolution(t_star=1.5, lam=2.0,
                                                             table=_table()),
                          f"TruncatedSolution(t_star=1.5, lam=2.0, table={_TABLE_REPR})"),
    "RubelCheck": (lambda: analysis.RubelCheck(
                       analysis.TruncatedSolution(1.5, 2.0, _table()),
                       analysis.TruncatedSolution(3.0, 2.0, _table()),
                       analysis.RubelBound(M=0.02, fM_at_M=2.0, fppM_at_M=0.0,
                                           bound=0.0), 0.25),
                   f"RubelCheck(solution=TruncatedSolution(t_star=1.5, lam=2.0, "
                   f"table={_TABLE_REPR}), solution_2M=TruncatedSolution("
                   f"t_star=3.0, lam=2.0, table={_TABLE_REPR}), bound=RubelBound("
                   f"M=0.02, fM_at_M=2.0, fppM_at_M=0.0, bound=0.0), "
                   f"empirical_max_error=0.25)"),
    "NitmResult": (lambda: solvers.solve_moving_wall(1.0),
                   "NitmResult(lam=1.8548816156893206, lambdas=(1.8548532944196414, "
                   "1.8548816153585865, 1.8548816156893206), eta_inf_star=8.0, "
                   "fp_inf_star=2.4405858082222247, star_param=1.0, "
                   "physical_param=0.2906481790427157, f0=0.0, "
                   "fp0=0.2906481790427157, fpp0=0.15669365450835177)"),
    "classic NitmResult": (lambda: solvers.solve_auxiliary(solvers.classic_problem()),
                           "NitmResult(lam=1.4440945870745767, lambdas=("
                           "1.4428573388342476, 1.444094314636043, "
                           "1.4440945870745767), eta_inf_star=8.0, "
                           "fp_inf_star=2.0854091764180924, star_param=None, "
                           "physical_param=None, f0=0.0, fp0=0.0, "
                           "fpp0=0.3320573362199281)"),
}

_ALL = {**_VALUES, **_IDENTITIES}


@pytest.mark.parametrize("name", sorted(_ALL))
def test_repr_is_the_one_pinned(name):
    build, text = _ALL[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_types_compare_and_hash_by_value(name):
    build = _VALUES[name][0]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_value_types_tell_different_values_apart():
    assert GridConfig(4.0) != GridConfig(6.0)
    assert solvers.ProblemSpec("slip", 1.0, 1.0) != solvers.ProblemSpec("slip", 2.0, 1.0)
    assert solvers.NitmConfig() != solvers.NitmConfig(lambda_tol=1e-8)
    assert models.BlasiusFamilyRhs(0.5) != models.BlasiusFamilyRhs(1.0)
    # an int schedule is stored as floats, so it equals the float one
    assert solvers.NitmConfig(boundary_schedule=(4, 6)) == solvers.NitmConfig(
        boundary_schedule=(4.0, 6.0))


@pytest.mark.parametrize("name", sorted(_IDENTITIES))
def test_records_compare_and_hash_by_identity(name):
    build = _IDENTITIES[name][0]
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("name", sorted(_ALL))
def test_every_public_field_is_read_only(name):
    record = _ALL[name][0]()
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.unknown_field = 1.0


def test_nitm_result_builds_its_table_once_and_keeps_it():
    res = solvers.solve_moving_wall(1.0)
    table = res.table
    assert res.table is table
    assert table.grid.nodes == 801
    with pytest.raises(AttributeError):
        res.table = table


def test_nitm_result_can_be_weakly_referenced():
    res = solvers.solve_moving_wall(1.0)
    ref = weakref.ref(res)
    assert ref() is res
    del res
    assert ref() is None


def test_nitm_config_derives_stops_and_takes_none():
    config = solvers.NitmConfig(step=0.5, boundary_schedule=(4, 6))
    assert config.stops == (8, 12)
    with pytest.raises(TypeError):
        solvers.NitmConfig(stops=(8, 12))
    assert pickle.loads(pickle.dumps(config)) == config
    assert config._replace(step=0.25) == solvers.NitmConfig(0.25, (4, 6))
    assert config._replace(step=0.25).stops == (16, 24)
    with pytest.raises(ValueError):
        config._replace(step=0.3)


# the other types' checks are tested with their modules
@pytest.mark.parametrize("build", [
    lambda: models.BlasiusFamilyRhs(0.0),
    lambda: models.FalknerSkanRhs(float("inf")),
    lambda: models.ExponentSystem(rows=()),
])
def test_model_types_validate_on_construction(build):
    with pytest.raises(ValueError):
        build()


_NAN = float("nan")


# (valid value, fields _make refuses, a change _replace refuses) per type
_CHECKED = {
    "GridConfig": (GridConfig(4.0), (4.0, 0.03), {"step": 0.03}),
    "ProblemSpec": (solvers.ProblemSpec("slip", 1.0, 1.0), ("nope", 1.0, 1.0),
                    {"star_param": _NAN}),
    "NitmConfig": (solvers.NitmConfig(), (0.01, (4.0,), -1.0, (400,)),
                   {"boundary_schedule": (6.0, 4.0)}),
    "BlasiusFamilyRhs": (models.BlasiusFamilyRhs(0.5), (-1.0,), {"beta": 0.0}),
    "FalknerSkanRhs": (models.FalknerSkanRhs(0.25), (_NAN,), {"P": float("inf")}),
    "ExponentSystem": (models.ExponentSystem(rows=((Fraction(1), Fraction(2)),)),
                       (((Fraction(1),), (Fraction(1), Fraction(2))),),
                       {"rows": ()}),
}


@pytest.mark.parametrize("name", _CHECKED)
def test_make_runs_the_constructor_checks(name):
    value, refused, _ = _CHECKED[name]
    assert type(value)._make(tuple(value)) == value
    with pytest.raises(ValueError):
        type(value)._make(refused)


@pytest.mark.parametrize("name", _CHECKED)
def test_replace_runs_the_constructor_checks(name):
    value, _, refused = _CHECKED[name]
    assert value._replace() == value
    with pytest.raises(ValueError):
        value._replace(**refused)


def test_nitm_config_make_derives_stops_again():
    config = solvers.NitmConfig._make((0.5, (4, 6), 1e-6, (999, 1000)))
    assert config.stops == (8, 12)
    assert config == solvers.NitmConfig(0.5, (4, 6))
    with pytest.raises(ValueError):
        solvers.NitmConfig._make((0.5, (4, 6), 1e-6))
