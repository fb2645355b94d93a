"""Critical temperatures and plateau levels against scan/bisection oracles."""

import math

import numpy as np
import pytest

from glassdyn.errors import DomainError, GammaTooSmallError
from glassdyn.mixture import Mixture, effective_mixture, g_beta
from glassdyn.phase import (
    _sup_scan, band_relaxation_predicate, beta_c_dyn, beta_c_stat, c_inf, classify, q_d,
)

PURE2 = Mixture.pure(2)
PURE3 = Mixture.pure(3)
M23 = Mixture({2: 1.0, 3: 1.0})

# golden number from a brute-force oracle: 2e5-point scan of sup g_beta
# with beta-bisection, recorded at build time
PURE3_BETA_C_STAT = 0.6032778673

def _brute_beta_c(m, order, n_x=100_000):
    xs = np.linspace(0.0, 1.0 - 1e-6, n_x)
    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g_beta(m, mid, xs, order).max() > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestCriticalBetas:
    def test_pure2_stat_closed_form(self):
        assert beta_c_stat(PURE2) == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-6)

    def test_pure2_dyn_closed_form(self):
        assert beta_c_dyn(PURE2) == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-6)

    def test_scaling_in_overall_weight(self):
        # at 1e-300 nu goes subnormal near x = 0; the bisection found no beta
        # up to 1e8 there
        for c in (2.7, 1e-300):
            scaled = Mixture({2: c})
            assert beta_c_stat(scaled) == pytest.approx(
                beta_c_stat(PURE2) / math.sqrt(c), rel=1e-6)

    def test_pure3_against_brute_force(self):
        assert beta_c_stat(PURE3) == pytest.approx(PURE3_BETA_C_STAT, rel=1e-6)
        assert beta_c_stat(PURE3) == pytest.approx(_brute_beta_c(PURE3, 0), rel=1e-6)

    def test_dyn_below_stat_on_random_mixtures(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = Mixture({p: rng.uniform(0, 1.5) + 1e-3 for p in (2, 3, 4)})
            assert beta_c_dyn(m) <= beta_c_stat(m) * (1 + 1e-7)

    def test_strict_gap_for_p3_heavy_mixture(self):
        # large p>=3 weight relative to b_2^2 separates the two thresholds
        m = Mixture({2: 0.05, 3: 1.0})
        assert beta_c_dyn(m) < beta_c_stat(m) * (1 - 1e-6)

    def test_grid_refinement_stability(self):
        coarse = _brute_beta_c(M23, 1, n_x=25_000)
        fine = _brute_beta_c(M23, 1, n_x=100_000)
        assert beta_c_dyn(M23) == pytest.approx(fine, abs=1e-7)
        assert abs(coarse - fine) < 1e-7


def _pure_static_point(p):
    """(beta_s, q_s) of the pure p-spin from g_beta = g_beta' = 0: q solves
    p (1-q) (-q - log(1-q)) = q^2 on (0, 1), by bisection."""
    lo, hi = 1e-3, 1.0 - 1e-9  # the left side wins at lo, the right side at hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p * (1 - mid) * (-mid - math.log1p(-mid)) > mid * mid:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    return math.sqrt(1.0 / (4 * p * (1 - q) * q ** (p - 2))), q


class TestClosedForms:
    """beta_c^2 is an infimum over x, and its minimizer the transition overlap."""

    @pytest.mark.parametrize("p", [3, 4, 5, 1000])
    def test_pure_p_dynamical_point(self, p):
        # beta_d^2 = 1 / (4 p m^(p-2) (1 - m)) at m = (p-2)/(p-1)
        # (Crisanti, Horner & Sommers, Z. Phys. B 92, 257, 1993); at p = 1000
        # nu' underflows over most of the grid, and the bisection was 2.5e-9 off
        m = (p - 2) / (p - 1)
        beta, x = _sup_scan(Mixture.pure(p), 1)
        assert beta == pytest.approx(1 / math.sqrt(4 * p * m ** (p - 2) * (1 - m)),
                                     abs=1e-12)
        assert beta_c_dyn(Mixture.pure(p)) == beta
        assert x == pytest.approx(m, abs=1e-8)

    @pytest.mark.parametrize("order", [0, 1])
    def test_pure2_points_are_the_small_x_limit(self, order):
        # the infimum is the x -> 0+ limit 1/(8 b_2), taken exactly
        assert _sup_scan(PURE2, order) == (pytest.approx(1 / math.sqrt(8), abs=1e-12),
                                           0.0)

    def test_band_mixture_dynamical_point(self):
        assert beta_c_dyn(effective_mixture(M23, 0.5)) == pytest.approx(
            1 / math.sqrt(5), abs=1e-12)

    @pytest.mark.parametrize("p", [3, 4, 1000])
    def test_pure_p_static_point(self, p):
        # at p = 1000 the bisection's beta_c_stat was 1.2e-3 high
        beta_s, q_s = _pure_static_point(p)
        beta, x = _sup_scan(Mixture.pure(p), 0)
        assert beta == pytest.approx(beta_s, abs=1e-12)
        assert beta_c_stat(Mixture.pure(p)) == beta
        assert x == pytest.approx(q_s, abs=1e-7)

    def test_pure3_static_point_is_the_classic_one(self):
        # q_s = 0.645 (Crisanti & Sommers, Z. Phys. B 87, 341, 1992); the
        # golden number holds to its ten printed digits
        beta, x = _sup_scan(PURE3, 0)
        assert beta == pytest.approx(PURE3_BETA_C_STAT, abs=5e-11)
        assert x == pytest.approx(0.645, abs=1e-3)


class TestPlateaus:
    def test_qd_zero_below_threshold(self):
        assert q_d(PURE2, 0.3) == 0.0

    def test_qd_positive_above_threshold(self):
        assert q_d(PURE2, 0.5) > 0.0

    def test_qd_pure2_beta1_root(self):
        assert q_d(PURE2, 1.0) == pytest.approx(7.0 / 8.0, abs=1e-9)

    def test_qd_monotone_in_beta(self):
        betas = np.linspace(0.2, 1.5, 14)
        vals = [q_d(M23, b) for b in betas]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_cinf_at_half_matches_qd(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = Mixture({2: rng.uniform(0.2, 1.5), 3: rng.uniform(0.2, 1.5)})
            beta = rng.uniform(0.2, 1.2)
            assert c_inf(m, beta, 0.5) == q_d(m, beta)

    def test_cinf_zero_below_threshold(self):
        assert c_inf(PURE2, 0.3, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_cinf_vanishing_plateau_is_exactly_zero(self):
        # a root within the search tolerance of 0 is the zero plateau
        assert c_inf(M23, 0.25, 0.5) == 0.0

    @pytest.mark.parametrize("m, beta, value", [
        (M23, 0.5, 0.7675918792442806),
        (PURE2, 0.36, 0.035493827160483146),
        (PURE3, 0.5, 0.0),
    ], ids=["M23", "pure2", "pure3"])
    def test_qd_pinned_bit_for_bit(self, m, beta, value):
        # q_d's values from its own root search: c_inf at gamma = 1/2 must
        # reproduce them bit for bit
        assert q_d(m, beta) == value

    def test_gamma_too_small(self):
        with pytest.raises(GammaTooSmallError):
            c_inf(PURE2, 0.3, 0.2)


class TestBandRelaxation:
    def test_gamma_beta_at_q_zero(self):
        rep = band_relaxation_predicate(M23, 0.4, 0.0)
        assert rep.gamma_beta == pytest.approx(0.5)

    @pytest.mark.parametrize("beta", [0.3, 0.4, 0.6])
    def test_gamma_beta_is_the_band_formula(self, beta):
        # gamma_star at q_star = alpha = sqrt(q_beta), against the inline
        # formula it replaced
        q = 0.5
        old = 0.5 / (1.0 - q) - 2.0 * beta**2 * M23.nu(q, 1)
        assert abs(band_relaxation_predicate(M23, beta, q).gamma_beta - old) <= 1e-15

    @pytest.mark.parametrize("q", [-0.1, 1.0, 1.5])
    def test_q_beta_off_the_unit_interval_is_domain_error(self, q):
        # q_beta = 1 divided by zero in the band gamma
        with pytest.raises(DomainError, match=r"q in \[0, 1\)"):
            band_relaxation_predicate(M23, 0.4, q)

    def test_fast_below_effective_threshold(self):
        q = 0.5
        bce = beta_c_dyn(effective_mixture(M23, q))
        rep = band_relaxation_predicate(M23, 0.8 * bce, q)
        assert rep.fast and rep.below_effective

    def test_slow_above_effective_threshold(self):
        q = 0.5
        bce = beta_c_dyn(effective_mixture(M23, q))
        rep = band_relaxation_predicate(M23, 1.3 * bce, q)
        assert not rep.fast and not rep.below_effective
        assert rep.c_inf > q

    def test_classify_regimes(self):
        assert classify(PURE2, 0.2).regime == "RS"
        assert classify(PURE2, 0.6).regime == "RSB-region"
