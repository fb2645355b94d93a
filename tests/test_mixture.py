"""Covariance polynomial: values, derivatives, transforms, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glassdyn.errors import ConfigError, DomainError
from glassdyn.mixture import (
    Mixture, effective_mixture, g_beta, nu_eval, phi_gamma, psi_eval,
    theta_eval, truncate,
)

M23 = Mixture({2: 1.0, 3: 1.0})
PURE2 = Mixture.pure(2)


class TestNuEval:
    def test_pure2_value(self):
        assert nu_eval(PURE2, 0.5, 0) == 0.25

    def test_mixed_first_derivative(self):
        assert nu_eval(M23, 1.0, 1) == 5.0

    def test_mixed_second_derivative(self):
        assert nu_eval(M23, 1.0, 2) == 8.0

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
        assert psi_eval(M23, 1.0) == 13.0

    def test_psi_at_zero(self):
        assert psi_eval(M23, 0.0) == 0.0

    def test_psi_pure2(self):
        # nu'(0.5) + 0.5 * nu''(0.5) = 1 + 1
        assert psi_eval(PURE2, 0.5) == 2.0

    def test_psi_identity_random(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(-0.95, 0.95, size=100)
        np.testing.assert_allclose(M23.psi(r), M23.nu(r, 1) + r * M23.nu(r, 2),
                                   rtol=1e-13)

    def test_theta_at_one_is_zero(self):
        assert theta_eval(M23, 1.0) == 0.0

    def test_theta_pure2_at_zero(self):
        assert theta_eval(PURE2, 0.0) == 1.0

    def test_theta_mixed_example(self):
        # 2 - 0.375 - 1.75 * 0.5, checked by direct arithmetic
        assert theta_eval(M23, 0.5) == pytest.approx(0.75, abs=1e-14)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_theta_nonnegative_on_unit_interval(self, x):
        assert theta_eval(M23, x) >= -1e-14


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


class TestTruncate:
    def test_noop(self):
        assert truncate(M23, 5).coeffs == M23.coeffs

    def test_drops_high_powers(self):
        assert truncate(M23, 2).coeffs == {2: 1.0}

    def test_empty_errors(self):
        with pytest.raises(ConfigError):
            truncate(PURE2, 1)


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

    def test_json_round_trip(self):
        text = M23.to_json()
        obj = json.loads(text)
        assert obj["coeffs"] == {"2": 1.0, "3": 1.0}
        assert Mixture.from_json(text).coeffs == M23.coeffs
