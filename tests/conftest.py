"""Hypothesis profiles: ``--hypothesis-profile=ci`` runs a fixed example set.

The ci profile derives its examples from the test itself, not from a random
seed, so a property that fails in CI fails the same way on a local run with
the same flag; ``print_blob`` prints the reproduction decorator with it.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
