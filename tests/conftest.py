"""Test-suite settings.

Property tests draw their examples from a fixed seed and have no per-example
deadline, so a run repeats exactly and a slow machine does not fail it.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
