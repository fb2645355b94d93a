"""Hypothesis profiles, the allocation-peak fixture and one start per branch.

``--hypothesis-profile=ci`` runs a fixed example set.  The ci profile
derives its examples from the test itself, not from a random seed, so a
property that fails in CI fails the same way on a local run with the same
flag; ``print_blob`` prints the reproduction decorator with it.
"""

import tracemalloc

import pytest
from hypothesis import settings

from glassdyn.init_params import InitCondition
from glassdyn.mixture import Mixture

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


_P3, _E_STAR_PD = Mixture.pure(3), 0.5 * 0.8**3
# one start on each branch of the conditioning algebra, keyed by branch name
BRANCH_STARTS = {
    "rs": (Mixture({2: 1.0, 3: 1.0}), InitCondition(0.0, 1.3)),
    "generic": (Mixture({2: 1.0, 3: 1.0}), InitCondition(0.8, 0.5, -0.3, 0.4, 0.35)),
    "degenerate": (Mixture({2: 1.0, 3: 1.0, 4: 1.0}), InitCondition(0.6, 0.4, -0.2, 0.3, 0.6)),
    "pure_p": (_P3, InitCondition(0.8, 0.7, -0.4, 3 * -0.4 / 0.8**2, 0.3)),
    "pure_p_degenerate": (_P3, InitCondition(0.8, 0.5, _E_STAR_PD,
                                             3 * _E_STAR_PD / 0.8**2, 0.8)),
}


@pytest.fixture(params=sorted(BRANCH_STARTS))
def branch_start(request):
    """(branch name, mixture, start) for each branch of the conditioning algebra."""
    return (request.param, *BRANCH_STARTS[request.param])
