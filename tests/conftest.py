"""Hypothesis runs with a fixed seed and a bounded example count, so a
test run is reproducible and its length does not depend on the host."""
from hypothesis import settings

settings.register_profile("dwkit", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("dwkit")
