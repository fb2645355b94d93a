"""The README's library tour runs as written.

Each fenced ``python`` block of README.md is executed in order in one
namespace, as a reader pasting them into one interpreter would, so a change of
the public API cannot leave the tour stale.
"""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def _python_blocks():
    """(first line number, source) of each fenced python block."""
    text = README.read_text()
    return [(text.count("\n", 0, match.start()) + 2, match.group(1))
            for match in _BLOCK.finditer(text)]


@pytest.fixture(scope="module")
def tour():
    """The namespace the blocks leave behind."""
    ns = {"__name__": "readme_tour"}
    for line, source in _python_blocks():
        exec(compile(source, f"{README.name}:{line}", "exec"), ns)
    return ns


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 2


def test_python_blocks_run(tour):
    assert "sol" in tour and "obs" in tour


def test_tour_comments_hold(tour):
    sol, obs = tour["sol"], tour["obs"]
    assert sol.C[200, 100] == sol.C[100, 200]
    assert sol.ell is None
    # the lift's C is the data's own curve c(|s - t|), on sol's grid
    assert np.abs(sol.C - tour["lift"].C).max() < 2e-4
    assert obs.C.shape == obs.chi.shape == (8, 21, 21)
    assert obs.q.shape == obs.H.shape == obs.K.shape == (8, 21)
    assert obs.mean().paths == 1
    assert len(tour["paths"]) == 8 and tour["paths"].x.shape == (8, 21, 200)
    assert tour["one"].shape == (21, 200)
    assert tour["terms"].shape == (9, 4)
