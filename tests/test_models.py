"""Right-hand-side definitions for the two model families."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from nitm import BlasiusFamilyRhs, FalknerSkanRhs, State3

finite = st.floats(min_value=-10.0, max_value=10.0)


@settings(max_examples=100)
@given(finite, finite, finite, st.sampled_from([0.5, 1.0, 2.0]))
def test_blasius_family_rhs_formula(f, fp, fpp, beta):
    out = BlasiusFamilyRhs(beta)(0.0, State3(f, fp, fpp))
    assert out.f == fp
    assert out.fp == fpp
    assert out.fpp == -beta * f * fpp


@settings(max_examples=100)
@given(finite, finite, finite, finite)
def test_falkner_skan_rhs_formula(f, fp, fpp, pressure):
    out = FalknerSkanRhs(pressure)(0.0, State3(f, fp, fpp))
    assert out.f == fp
    assert out.fp == fpp
    assert out.fpp == -f * fpp - pressure * (1.0 - fp * fp)


@settings(max_examples=100)
@given(finite, finite, finite)
def test_falkner_skan_zero_pressure_is_unit_beta_blasius(f, fp, fpp):
    # With no pressure-gradient term the two right-hand sides coincide
    # exactly, float for float.
    s = State3(f, fp, fpp)
    assert FalknerSkanRhs(0.0)(0.0, s) == BlasiusFamilyRhs(1.0)(0.0, s)


@pytest.mark.parametrize("beta", [0.0, -0.5, math.nan, math.inf])
def test_blasius_family_rejects_bad_beta(beta):
    with pytest.raises(ValueError):
        BlasiusFamilyRhs(beta)


def test_rhs_is_autonomous():
    s = State3(0.3, 0.7, -0.2)
    rhs = BlasiusFamilyRhs(0.5)
    assert rhs(0.0, s) == rhs(17.5, s)
