"""Shared test settings.

Every `hypothesis` test runs without a deadline and draws its examples
from a fixed seed, so the suite is deterministic; a test sets only its
own max_examples.
"""

from hypothesis import settings

settings.register_profile("driftplan", deadline=None, derandomize=True)
settings.load_profile("driftplan")
