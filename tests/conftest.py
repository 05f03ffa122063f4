"""Test-suite settings: every hypothesis property draws the same examples on
every run and checkout (a seed derived from the test, no example database)."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
