"""Shared fixtures for the test suite.

Datasets are loaded at reduced scale (structure preserved, cost bounded) and
cached per session.  The noise fixtures are function-scoped and seeded afresh
for every test, so a test's draws never depend on which tests ran before it.

Hypothesis profiles: ``ci`` (the PR fuzz leg — derandomized so a red run is
reproducible from the log, failing examples printed as ``@reproduce_failure``
blobs) and ``nightly`` (10x examples for the cron sweep).  Select with
``HYPOTHESIS_PROFILE=ci|nightly``; unset runs the library default.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.timeseries import load

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.register_profile("nightly", max_examples=1000, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def taxi_small():
    """Taxi reconstruction at ~1/4 scale (daily/weekly structure intact)."""
    return load("taxi", scale=0.25)


@pytest.fixture(scope="session")
def sine_dataset():
    """The Sine dataset at full scale (it is only 800 points)."""
    return load("sine")


@pytest.fixture
def white_noise_series(rng):
    """Pure IID Gaussian noise — the Section 4.2 analysis setting."""
    return rng.normal(0.0, 1.0, size=4000)


@pytest.fixture
def periodic_series(rng):
    """Known-period sinusoid plus noise — the Section 4.3 setting."""
    t = np.arange(2400, dtype=np.float64)
    return np.sin(2 * np.pi * t / 60) + 0.3 * rng.normal(size=t.size)
