"""Test-wide settings.

Hypothesis draws the same examples on every run and keeps no example
database, so a failure found once is found on every run. No deadline
applies: a slow scheduling slice on a loaded host is not a failure.
What Hypothesis still writes to disk (its cache of constants) goes to a
temporary directory that the session removes at its end, so a run leaves
no .hypothesis/ in the checkout.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
