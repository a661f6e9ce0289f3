"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci replays a fixed set of examples
with no deadline, so property tests cannot flake a CI run; local runs keep
the default profile and explore new examples each time."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
