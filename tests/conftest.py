"""Shared test configuration."""

from hypothesis import settings

# One derandomized profile: every run, local or CI, draws the same examples.
settings.register_profile("capdisc", derandomize=True, database=None, deadline=None)
settings.load_profile("capdisc")
