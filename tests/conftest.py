"""Shared test configuration.

Property tests run derandomized and without a per-example deadline, so the
suite draws the same examples on every run and on every machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
