"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples and a failure reproduces; no deadline, since the
tests share a small machine with other work; few examples, to keep the suite
short; and no example database on disk.
"""

from hypothesis import settings

settings.register_profile(
    "kronecker", derandomize=True, deadline=None, max_examples=12, database=None
)
settings.load_profile("kronecker")
