"""Test-wide settings.

Hypothesis draws the same examples on every run and keeps no example
database, so a failure found once is found on every run. No deadline
applies: a slow scheduling slice on a loaded host is not a failure.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
