"""One hypothesis profile for the suite: the same examples on every run, and
no example database read from or written to the working tree."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
