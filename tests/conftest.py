"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture(scope="session")
def sympy():
    """sympy as an optional oracle: a test that asks for it skips without it."""
    return pytest.importorskip("sympy")
