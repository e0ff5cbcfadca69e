"""The one hypothesis profile every test runs under: derandomized, so a
property test draws the same examples on every run, and without a
per-example deadline, so a slow example fails no test. A test sets only
its own `max_examples`."""

from hypothesis import settings

settings.register_profile("crgx", derandomize=True, deadline=None)
settings.load_profile("crgx")
