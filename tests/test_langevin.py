"""SDE integrator, observables, error metric, rotation equivariance."""

import numpy as np
import pytest

from glassdyn.dynamics import SolverConfig, solve_dynamics
from glassdyn.errors import ConfigError, EscapeError, GridMismatchError
from glassdyn.hamiltonian import (
    ConditioningSpec, conditioned_field, make_x_star, sample_band_point,
    sample_system,
)
from glassdyn.init_params import InitCondition, gibbs_init
from glassdyn.langevin import (
    LangevinConfig, average_error, ensemble_error, error_functional, integrate,
    integrate_ensemble, observables, random_orthogonal,
    rotation_invariance_test,
)
from glassdyn.mixture import Mixture

M23 = Mixture({2: 1.0, 3: 0.1})


class ZeroField:
    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros(len(x))

    def gradient_batch(self, X):
        return np.zeros_like(X)

    def value_batch(self, X):
        return np.zeros(X.shape[0])


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"h_obs": 0.0}, {"h_obs": -0.05}, {"h_obs": float("nan")},
        {"h_obs": float("inf")}, {"T": 0.0}, {"T": -1.0},
        {"T": float("nan")}, {"T": float("inf")}, {"substeps": 0},
        {"substeps": -2}, {"variant": "fconfined", "ell": float("nan")},
        {"variant": "fconfined", "ell": float("inf")},
        {"variant": "fconfined", "ell": 0.0}, {"beta": float("nan")},
    ])
    def test_rejects_bad_values(self, kwargs):
        args = dict(beta=0.3, T=0.5, h_obs=0.05)
        args.update(kwargs)
        with pytest.raises(ConfigError):
            LangevinConfig(**args)

    def test_accepts_valid_values(self):
        assert LangevinConfig(beta=0.3, T=0.5, h_obs=0.05, substeps=1).n_obs == 10


class TestIntegrate:
    def test_reproducible_given_seed(self):
        x0 = sample_band_point(0.0, 0.0, 30, 1)
        cfg = LangevinConfig(beta=0.0, T=0.5, h_obs=0.05)
        a = integrate(ZeroField(), x0, cfg, seed=9)
        b = integrate(ZeroField(), x0, cfg, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.B, b.B)

    def test_spherical_radius_preserved(self):
        N = 40
        x0 = sample_band_point(0.0, 0.0, N, 2)
        tr = integrate(ZeroField(), x0, LangevinConfig(beta=0.0, T=1.0, h_obs=0.05),
                       seed=3)
        np.testing.assert_allclose((tr.x**2).sum(axis=1) / N, 1.0, atol=1e-12)

    def test_free_sphere_correlation(self):
        # at beta = 0 the projected dynamics decorrelate at rate 1/2
        N, T = 400, 2.0
        cfg = LangevinConfig(beta=0.0, T=T, h_obs=0.05)
        x0 = sample_band_point(0.0, 0.0, N, 4)
        trajs = integrate_ensemble(ZeroField(), x0, cfg, 8, master_seed=5)
        C = np.mean([observables(t, ZeroField(), None).C for t in trajs], axis=0)
        s = np.arange(cfg.n_obs + 1) * cfg.h_obs
        expect = np.exp(-0.5 * np.abs(s[:, None] - s[None, :]))
        assert np.abs(C - expect).max() < 0.05

    def test_fconfined_radius_band(self):
        N, ell = 100, 50.0
        x0 = sample_band_point(0.0, 0.0, N, 6)
        cfg = LangevinConfig(beta=0.0, T=1.0, h_obs=0.02, substeps=10,
                             variant="fconfined", ell=ell)
        tr = integrate(ZeroField(), x0, cfg, seed=7)
        K = (tr.x**2).sum(axis=1) / N
        assert np.abs(K - 1.0).max() < 10.0 / ell

    def test_escape_guard(self):
        class Repulsive:
            def value(self, x):
                return 0.0

            def gradient(self, x):
                return -20.0 * x

        N = 30
        x0 = sample_band_point(0.0, 0.0, N, 8)
        cfg = LangevinConfig(beta=1.0, T=2.0, h_obs=0.05, variant="fconfined",
                             ell=0.01, r_guard=1.5)
        with pytest.raises(EscapeError):
            integrate(Repulsive(), x0, cfg, seed=9)

    def test_ensemble_matches_single_paths(self):
        N = 25
        x0 = sample_band_point(0.0, 0.0, N, 10)
        cfg = LangevinConfig(beta=0.0, T=0.3, h_obs=0.05)
        ens = integrate_ensemble(ZeroField(), x0, cfg, 3, master_seed=40)
        for i, tr in enumerate(ens):
            single = integrate(ZeroField(), x0, cfg, seed=40 + i)
            np.testing.assert_allclose(tr.x, single.x, atol=1e-12)


class TestObservables:
    def _traj(self, N=30, seed=11):
        ic = gibbs_init(M23, 0.2, 0.0)
        x0 = sample_band_point(0.0, 0.0, N, seed)
        spec = ConditioningSpec(np.zeros(N), x0, ic)
        f = conditioned_field(sample_system(M23, N, seed + 1), spec)
        cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05)
        return f, x0, integrate(f, x0, cfg, seed=seed + 2)

    def test_diagonal_is_radius(self):
        f, x0, tr = self._traj()
        obs = observables(tr, f, None)
        np.testing.assert_allclose(np.diagonal(obs.C), obs.K)

    def test_initial_values(self):
        f, x0, tr = self._traj()
        obs = observables(tr, f, None)
        assert obs.C[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert obs.chi[:, 0].max() == 0.0
        assert obs.H[0] == pytest.approx(f.spec.target.E, abs=1e-10)

    def test_overlap_starts_at_qo(self):
        N = 30
        ic = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
        x_star = make_x_star(ic.q_star, N)
        x0 = sample_band_point(ic.q_star, ic.q_o, N, 12)
        spec = ConditioningSpec(x_star, x0, ic)
        f = conditioned_field(sample_system(M23, N, 13), spec)
        tr = integrate(f, x0, LangevinConfig(beta=0.2, T=0.2, h_obs=0.05), seed=14)
        obs = observables(tr, f, x_star)
        assert obs.q[0] == pytest.approx(ic.q_o, abs=1e-12)


class TestErrorFunctional:
    def test_zero_against_itself(self):
        ic = InitCondition(0.0, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        from glassdyn.dynamics import integrated_response
        from glassdyn.langevin import ObservableSet
        obs = ObservableSet(h=0.02, C=sol.C_sym(), chi=integrated_response(sol),
                            q=sol.q, H=sol.H, K=sol.K)
        assert error_functional(obs, sol, 1.0) == 0.0

    def test_each_term_capped(self):
        ic = InitCondition(0.0, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        n = sol.n
        from glassdyn.langevin import ObservableSet
        far = ObservableSet(h=0.02, C=np.full((n + 1, n + 1), 99.0),
                            chi=np.full((n + 1, n + 1), 99.0),
                            q=np.full(n + 1, 99.0), H=np.full(n + 1, 99.0),
                            K=np.ones(n + 1))
        assert error_functional(far, sol, 1.0) == 4.0

    def test_grid_mismatch_raises(self):
        ic = InitCondition(0.0, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        from glassdyn.langevin import ObservableSet
        obs = ObservableSet(h=0.03, C=np.ones((3, 3)), chi=np.ones((3, 3)),
                            q=np.ones(3), H=np.ones(3), K=np.ones(3))
        with pytest.raises(GridMismatchError):
            error_functional(obs, sol, 0.06)

    def test_ensemble_error_below_mean_path_error(self):
        N = 200
        ic = gibbs_init(M23, 0.2, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        x0 = sample_band_point(0.0, 0.0, N, 15)
        spec = ConditioningSpec(np.zeros(N), x0, ic)
        f = conditioned_field(sample_system(M23, N, 16), spec)
        cfg = LangevinConfig(beta=0.3, T=1.0, h_obs=0.02)
        trajs = integrate_ensemble(f, x0, cfg, 6, master_seed=17)
        obs = [observables(t, f, np.zeros(N)) for t in trajs]
        mean_err, _ = average_error(obs, sol, 1.0)
        ens_err = ensemble_error(obs, sol, 1.0)
        assert ens_err < mean_err


class TestConfinedVariant:
    def test_radius_tracks_the_limit_multiplier(self):
        # soft confinement end to end: the empirical squared radius K_N of
        # the confined SDE follows the K(s) of the matching limit solve
        N, ell, T = 200, 20.0, 1.0
        m = Mixture({2: 1.0, 3: 0.1})
        ic = gibbs_init(m, 0.2, 0.0)
        beta = 0.3
        from glassdyn.dynamics import default_f0_slope
        from glassdyn.init_params import solve_w
        slope = default_f0_slope(solve_w(ic, m), beta, ic.q_o)
        sol = solve_dynamics(m, ic, SolverConfig(beta=beta, T=T, h=0.01,
                                                 variant="f", ell=ell,
                                                 f0_slope=slope))
        x0 = sample_band_point(0.0, 0.0, N, 61)
        f = conditioned_field(sample_system(m, N, 62),
                              ConditioningSpec(np.zeros(N), x0, ic))
        cfg = LangevinConfig(beta=beta, T=T, h_obs=0.05, substeps=10,
                             variant="fconfined", ell=ell, f0_slope=slope)
        trajs = integrate_ensemble(f, x0, cfg, 8, master_seed=63)
        K_N = np.mean([observables(t, f, None).K for t in trajs], axis=0)
        K_lim = sol.K[:: round(0.05 / 0.01)]
        assert np.abs(K_N - K_lim).max() < 0.05


class TestFiniteNStationarity:
    def test_matched_temperatures_give_time_translation_invariance(self):
        # equilibrium conditioning run at its own temperature: the empirical
        # correlation at two different waiting times agrees within MC error
        N = 200
        m = Mixture({2: 1.0, 3: 1.0})
        beta = 0.2236
        ic = gibbs_init(m, beta, 0.5, -1.0)
        x_star = make_x_star(ic.q_star, N)
        x0 = sample_band_point(ic.q_star, ic.q_o, N, 51)
        f = conditioned_field(sample_system(m, N, 52),
                              ConditioningSpec(x_star, x0, ic))
        cfg = LangevinConfig(beta=beta, T=2.0, h_obs=0.05)
        trajs = integrate_ensemble(f, x0, cfg, 8, master_seed=53)
        C = np.mean([observables(t, f, x_star).C for t in trajs], axis=0)
        i1, i2, lags = 10, 20, 16  # t = 0.5 and t = 1.0, tau up to 0.8
        slice1 = np.array([C[i1 + k, i1] for k in range(lags)])
        slice2 = np.array([C[i2 + k, i2] for k in range(lags)])
        assert np.abs(slice1 - slice2).max() < 0.12


class TestRotationInvariance:
    def _field(self, N=50):
        ic = gibbs_init(Mixture.pure(2), 0.2, 0.0)
        x0 = sample_band_point(0.0, 0.0, N, 18)
        spec = ConditioningSpec(np.zeros(N), x0, ic)
        return conditioned_field(sample_system(Mixture.pure(2), N, 19), spec), x0

    def test_identity_rotation_exact(self):
        f, x0 = self._field()
        cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05)
        ok, dev = rotation_invariance_test(f, np.eye(50), x0, np.zeros(50), cfg, 20)
        assert ok and dev < 1e-14

    def test_random_rotation_equivariant(self):
        f, x0 = self._field()
        cfg = LangevinConfig(beta=0.3, T=1.0, h_obs=0.05)
        O = random_orthogonal(50, 21)
        ok, dev = rotation_invariance_test(f, O, x0, np.zeros(50), cfg, 22)
        assert ok and dev < 1e-9

    def test_unrotated_noise_negative_control(self):
        f, x0 = self._field()
        cfg = LangevinConfig(beta=0.3, T=1.0, h_obs=0.05)
        O = random_orthogonal(50, 23)
        ok, dev = rotation_invariance_test(f, O, x0, np.zeros(50), cfg, 24,
                                           rotate_noise=False)
        assert not ok and dev > 1e-3
