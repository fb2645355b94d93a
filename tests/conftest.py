"""Hypothesis profiles and the allocation-peak fixture.

``--hypothesis-profile=ci`` runs a fixed example set.  The ci profile
derives its examples from the test itself, not from a random seed, so a
property that fails in CI fails the same way on a local run with the same
flag; ``print_blob`` prints the reproduction decorator with it.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


@pytest.fixture
def alloc_peak():
    """alloc_peak(fn) -> (fn(), the most bytes fn held at once, its result included).

    numpy reports its array buffers to tracemalloc, so this counts every
    temporary array the call makes.
    """
    def measure(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
