"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.predicates import STATS


@pytest.fixture(autouse=True)
def _reset_predicate_stats():
    """Each test sees fresh predicate counters."""
    STATS.reset()
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(20200715)  # SPAA'20 conference date
