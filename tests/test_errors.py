"""The real-number rule every boundary of the package checks its reals by."""

import math

import numpy as np
import pytest

from glassdyn.errors import ConfigError, check_real


class TestCheckReal:
    @pytest.mark.parametrize("value, expect", [
        (1, 1.0), (0.5, 0.5), (np.float32(0.5), 0.5), (np.int64(2), 2.0), (-3, -3.0),
    ])
    def test_accepts_finite_reals_as_floats(self, value, expect):
        out = check_real("beta", value)
        assert out == expect and type(out) is float

    @pytest.mark.parametrize("value", [
        True, False, np.bool_(True), "0.5", None, 1j, math.nan, math.inf, -math.inf,
        np.float64(math.nan), 10**400, [0.5],
    ], ids=["true", "false", "np-bool", "string", "none", "complex", "nan", "inf",
            "-inf", "np-nan", "int-past-float-range", "list"])
    def test_refuses_the_rest_naming_the_field(self, value):
        with pytest.raises(ConfigError, match=r"^beta must be finite"):
            check_real("beta", value)

