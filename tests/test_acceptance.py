"""Release gate: every acceptance criterion at its pinned tolerance.

Run with -s to see the one-line pass/fail report per criterion.  The slow
finite-N table (criterion 10) runs last and dominates the wall time.
"""

import pytest

from glassdyn import acceptance

_RESULTS = {}


def _run(fn):
    if fn.__name__ not in _RESULTS:
        _RESULTS[fn.__name__] = acceptance.run_criterion(fn)
    return _RESULTS[fn.__name__]


@pytest.mark.parametrize("fn", acceptance.CRITERIA,
                         ids=[f.__name__ for f in acceptance.CRITERIA])
def test_criterion(fn):
    res = _run(fn)
    print(res.line())
    assert res.passed, res.line()
