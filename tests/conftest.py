"""Hypothesis draws the same examples on every run and keeps no example
database, so two runs of the suite test the same cases and leave no files.
Tests with their own @settings keep their example counts."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
