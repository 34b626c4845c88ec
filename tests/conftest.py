"""Fixtures shared by every test module."""

import pytest

from nitm import analysis


@pytest.fixture(autouse=True)
def empty_first_pass_store(monkeypatch):
    """Each test starts with an empty store of truncated_solution's first passes.

    A test that patches in a counting, jittered or blowing-up fill then
    neither sees a trajectory that earlier tests stored nor leaves one
    that it filled for the tests after it.
    """
    monkeypatch.setattr(analysis, "_FIRST_PASSES", {})
