"""Test-suite settings: every hypothesis property draws the same examples on
every run and checkout (a seed derived from the test, no example database).
``pytest --hypothesis-profile=random`` draws fresh examples instead."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
# derandomize is stated, not inherited: a profile registered after load_profile
# below would inherit derandomize=True from the deterministic one
settings.register_profile("random", derandomize=False, database=None)
settings.load_profile("deterministic")
