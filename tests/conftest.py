"""Hypothesis profiles for the test suite.

`HYPOTHESIS_PROFILE=ci` loads the "ci" profile, which derandomizes the
examples: a failing CI run then shows the same examples when it is run
again locally with that variable set.  Without it the default profile
draws fresh examples on every run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
