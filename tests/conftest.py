"""Shared test configuration."""

import pytest
from hypothesis import settings

import capdisc.cli

# One derandomized profile: every run, local or CI, draws the same examples.
settings.register_profile("capdisc", derandomize=True, database=None, deadline=None)
settings.load_profile("capdisc")


@pytest.fixture(autouse=True)
def no_held_point_set():
    # main keeps the last point set disc loaded; no test sees another's.
    capdisc.cli._held = None
    yield
    capdisc.cli._held = None
