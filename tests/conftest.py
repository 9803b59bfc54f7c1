"""Hypothesis draws the same examples on every run and keeps no example
database, so two runs of the suite test the same cases and leave no files.
Tests with their own @settings keep their example counts.

The `random` profile draws fresh examples, from the seed that
`--hypothesis-seed` gives, and keeps no database either:
`--hypothesis-profile=random --hypothesis-seed=N` selects it."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, database=None)
settings.load_profile("deterministic")
