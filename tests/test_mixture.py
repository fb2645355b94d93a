"""Covariance polynomial: values, derivatives, transforms, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glassdyn.errors import ConfigError, DomainError
from glassdyn.mixture import _MAX_POWER, Mixture, effective_mixture, g_beta, phi_gamma

M23 = Mixture({2: 1.0, 3: 1.0})
PURE2 = Mixture.pure(2)


class TestNuEval:
    def test_pure2_value(self):
        assert PURE2.nu(0.5, 0) == 0.25

    def test_mixed_first_derivative(self):
        assert M23.nu(1.0, 1) == 5.0

    def test_mixed_second_derivative(self):
        assert M23.nu(1.0, 2) == 8.0

    def test_radius_guard(self):
        m = Mixture({2: 1.0}, radius_bound=1.5)
        with pytest.raises(DomainError):
            m.nu(2.5)

    def test_radius_guard_array(self):
        m = Mixture({2: 1.0}, radius_bound=1.5)
        with pytest.raises(DomainError):
            m.nu(np.array([0.1, -2.5, 0.3]), 1)
        with pytest.raises(DomainError):
            m.nu(np.float64(-2.5), 2)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_scalar_path_equals_array_path(self, order):
        m = Mixture({2: 1.0, 3: 0.7, 5: 0.25, 8: 0.1})
        rng = np.random.default_rng(order)
        r = np.concatenate([rng.uniform(-1.2, 1.2, 200), [0.0, -0.0, 1.0, -1.0]])
        arr = m.nu(r, order)
        for x, want in zip(r, arr):
            for scalar in (float(x), x):  # a Python float and an np.float64
                got = m.nu(scalar, order)
                assert type(got) is float
                assert got == want or (np.isnan(got) and np.isnan(want))
                assert np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("coeffs", [{2: 1.0}, {3: 0.5}, {2: 1.0, 3: 1.0},
                                        {2: 1.0, 3: 0.7, 5: 0.25, 8: 0.1}])
    def test_top_down_horner_equals_zero_start_horner(self, coeffs):
        # the array Horner starts at the top coefficient; the loop it replaced,
        # which started from zeros, is the bitwise reference on finite r
        m = Mixture(coeffs)
        c = np.zeros(max(coeffs) + 1)
        for p, b in coeffs.items():
            c[p] = b
        r = np.concatenate([np.random.default_rng(1).uniform(-1.2, 1.2, 300),
                            [0.0, -0.0, 1.0, -1.0]])
        for order in range(4):
            acc = np.zeros_like(r)
            for coef in c[::-1]:
                acc = acc * r + coef
            np.testing.assert_array_equal(m.nu(r, order), acc)
            assert np.array_equal(np.signbit(m.nu(r, order)), np.signbit(acc))
            c = c[1:] * np.arange(1, len(c))

    def test_check_radius(self):
        m = Mixture({2: 1.0}, radius_bound=1.5)
        m.check_radius(np.array([0.1, -2.25, 2.25]))
        with pytest.raises(DomainError):
            m.check_radius(np.array([0.1, -2.26]))
        # the default bound is infinite: nothing is refused
        M23.check_radius(np.array([1e300, -np.inf]))

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(0)
        eps = 1e-5
        for r in rng.uniform(-0.9, 0.9, size=25):
            for k in range(3):
                fd = (M23.nu(r + eps, k) - M23.nu(r - eps, k)) / (2 * eps)
                exact = M23.nu(r, k + 1)
                assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)


class TestPsiTheta:
    def test_psi_example(self):
        assert M23.psi(1.0) == 13.0

    def test_psi_at_zero(self):
        assert M23.psi(0.0) == 0.0

    def test_psi_pure2(self):
        # nu'(0.5) + 0.5 * nu''(0.5) = 1 + 1
        assert PURE2.psi(0.5) == 2.0

    def test_psi_identity_random(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(-0.95, 0.95, size=100)
        np.testing.assert_allclose(M23.psi(r), M23.nu(r, 1) + r * M23.nu(r, 2),
                                   rtol=1e-13)

    def test_theta_at_one_is_zero(self):
        assert M23.theta(1.0) == 0.0

    def test_theta_pure2_at_zero(self):
        assert PURE2.theta(0.0) == 1.0

    def test_theta_mixed_example(self):
        # 2 - 0.375 - 1.75 * 0.5, checked by direct arithmetic
        assert M23.theta(0.5) == pytest.approx(0.75, abs=1e-14)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_theta_nonnegative_on_unit_interval(self, x):
        assert M23.theta(x) >= -1e-14


class TestGBeta:
    def test_zero_at_origin(self):
        assert g_beta(M23, 0.7, 0.0, 0) == 0.0
        assert g_beta(M23, 0.7, 0.0, 1) == 0.0

    def test_pure2_derivative_example(self):
        assert g_beta(PURE2, 1.0, 0.5, 1) == pytest.approx(1.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_beta(M23, 1.0, 1.0, 0)

    def test_phi_gamma(self):
        assert phi_gamma(M23, 0.0, 0.0, 0.3) == 0.0
        assert phi_gamma(PURE2, 1.0, 0.5, 1.0) == 4.5
        assert phi_gamma(M23, 1.0, 0.0, 0.0) == 0.0


class TestEffectiveMixture:
    def test_q_zero_identity(self):
        em = effective_mixture(M23, 0.0)
        assert em.coeffs == M23.coeffs

    def test_pure2_band(self):
        em = effective_mixture(PURE2, 0.5)
        assert em.coeffs == {2: 0.25}

    @given(st.floats(0.0, 0.95), st.floats(-0.9, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_matches_defining_formula(self, q, x):
        em = effective_mixture(M23, q)
        direct = (M23.nu(q + (1 - q) * x) - M23.nu(q)
                  - (1 - q) * M23.nu(q, 1) * x)
        assert em.nu(x) == pytest.approx(direct, abs=1e-12)

    def test_coefficients_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = Mixture({2: rng.uniform(0, 2), 3: rng.uniform(0, 2),
                         4: rng.uniform(0, 2)})
            em = effective_mixture(m, rng.uniform(0, 0.99))
            assert all(c >= 0 for c in em.coeffs.values())


class TestValidationAndJson:
    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigError):
            Mixture({2: -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ConfigError, match="b_2"):
            Mixture({2: bad, 3: 1.0})
        with pytest.raises(ConfigError, match="b_2"):
            Mixture({2: bad})

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Mixture({2: 0.0})

    def test_rejects_p_below_two(self):
        with pytest.raises(ConfigError):
            Mixture({1: 1.0})

    @pytest.mark.parametrize("p", [2.5, True, "2", np.float64(3.5)])
    def test_rejects_a_power_that_is_not_a_whole_number(self, p):
        # 2.5 was truncated to the power 2
        with pytest.raises(ConfigError, match="^mixture power must be an integer >= 2"):
            Mixture({p: 1.0})

    @pytest.mark.parametrize("p", [_MAX_POWER + 1, 10**20, 1e20])
    def test_rejects_a_power_above_the_largest(self, p):
        # 1e20 asked numpy for a dense coefficient array of 1e20 entries
        with pytest.raises(ConfigError, match=f"^mixture power {int(p)} exceeds"):
            Mixture({2: 1.0, p: 1.0})

    def test_largest_power_is_accepted(self):
        m = Mixture({2: 1.0, _MAX_POWER: 1.0})
        assert m.p_max == _MAX_POWER and m.nu(1.0) == 2.0
        assert effective_mixture(m, 0.5).p_max == _MAX_POWER

    def test_integral_powers_are_stored_as_ints(self):
        m = Mixture({np.int64(3): 1.0, 2.0: 0.5})
        assert list(m.coeffs) == [2, 3] and all(type(p) is int for p in m.coeffs)

    @pytest.mark.parametrize("bad", [True, "1.5", None])
    def test_rejects_a_weight_that_is_not_a_real(self, bad):
        with pytest.raises(ConfigError, match=r"^mixture weight b_2\^2 must be finite"):
            Mixture({2: bad})

    @pytest.mark.parametrize("bad", [True, "2", math.nan, -math.inf, 0.0, -1.0])
    def test_rejects_a_bad_radius_bound(self, bad):
        with pytest.raises(ConfigError, match="^radius_bound must be"):
            Mixture({2: 1.0}, radius_bound=bad)

    @pytest.mark.parametrize("obj", [
        {"coeffs": {"2": True}}, {"coeffs": {"2": "1.0"}},
        {"coeffs": {"2": 1.0}, "radius_bound": True},
        {"coeffs": {"2": 1.0}, "radius_bound": "2"},
    ])
    def test_from_dict_passes_values_unconverted(self, obj):
        with pytest.raises(ConfigError, match="must be finite"):
            Mixture.from_dict(obj)
