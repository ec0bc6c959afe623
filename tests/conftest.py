"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def recursion_limit_1000():
    """Run a test at CPython's default recursion limit of 1,000 frames."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)
