"""SDE integrator, observables, error metric, rotation equivariance."""

import numpy as np
import pytest

from glassdyn.dynamics import (
    SolverConfig, TwoTimeSolution, integrated_response, solve_dynamics,
)
from glassdyn.errors import ConfigError, EscapeError, GridMismatchError
from glassdyn.hamiltonian import (
    ConditioningSpec, conditioned_field, sample_band_point, sample_system,
)
from glassdyn.init_params import InitCondition, gibbs_init
from glassdyn.langevin import (
    LangevinConfig, _limit_on_grid, average_error, ensemble_error, error_functional,
    integrate_ensemble, observables, random_orthogonal, rotation_invariance_test,
)
from glassdyn.mixture import Mixture

M23 = Mixture({2: 1.0, 3: 0.1})


class ZeroField:
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
        a = integrate_ensemble(ZeroField(), x0, cfg, 1, 9)[0]
        b = integrate_ensemble(ZeroField(), x0, cfg, 1, 9)[0]
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.B, b.B)

    def test_spherical_radius_preserved(self):
        N = 40
        x0 = sample_band_point(0.0, 0.0, N, 2)
        tr = integrate_ensemble(ZeroField(), x0,
                                LangevinConfig(beta=0.0, T=1.0, h_obs=0.05), 1, 3)[0]
        np.testing.assert_allclose((tr.x**2).sum(axis=1) / N, 1.0, atol=1e-12)

    def test_free_sphere_correlation(self):
        # at beta = 0 the projected dynamics decorrelate at rate 1/2
        N, T = 400, 2.0
        cfg = LangevinConfig(beta=0.0, T=T, h_obs=0.05)
        x0 = sample_band_point(0.0, 0.0, N, 4)
        trajs = integrate_ensemble(ZeroField(), x0, cfg, 8, master_seed=5)
        obs = observables(trajs, ZeroField(), None)
        C = np.mean([o.C for o in obs], axis=0)
        s = np.arange(cfg.n_obs + 1) * cfg.h_obs
        expect = np.exp(-0.5 * np.abs(s[:, None] - s[None, :]))
        assert np.abs(C - expect).max() < 0.05

    def test_fconfined_radius_band(self):
        N, ell = 100, 50.0
        x0 = sample_band_point(0.0, 0.0, N, 6)
        cfg = LangevinConfig(beta=0.0, T=1.0, h_obs=0.02, substeps=10,
                             variant="fconfined", ell=ell)
        tr = integrate_ensemble(ZeroField(), x0, cfg, 1, 7)[0]
        K = (tr.x**2).sum(axis=1) / N
        assert np.abs(K - 1.0).max() < 10.0 / ell

    def test_escape_guard(self):
        class Repulsive:
            def gradient_batch(self, X):
                return -20.0 * X

        N = 30
        x0 = sample_band_point(0.0, 0.0, N, 8)
        cfg = LangevinConfig(beta=1.0, T=2.0, h_obs=0.05, variant="fconfined",
                             ell=0.01)
        with pytest.raises(EscapeError):
            integrate_ensemble(Repulsive(), x0, cfg, 1, 9)

    @pytest.mark.parametrize("beta", [3.0, 20.0])
    def test_escape_is_caught_before_the_field_guard(self, beta):
        # a confined path that leaves the band between observation points is
        # an EscapeError naming its path and SDE step, not the field's
        # DomainError from evaluating the escaped state
        m, N = Mixture({2: 1.0, 3: 1.0}), 30
        spec = ConditioningSpec(InitCondition(0.0, 0.3), N, 1)
        f = conditioned_field(sample_system(m, N, 0), spec)
        cfg = LangevinConfig(beta=beta, T=1.0, h_obs=0.1, substeps=5,
                             variant="fconfined", ell=0.5)
        with pytest.raises(EscapeError, match=r"^path \d+ \(seed 1\d\) .* at SDE step \d+$"):
            integrate_ensemble(f, spec.x_0, cfg, 2, 10)

    @pytest.mark.parametrize("variant", ["spherical", "fconfined"])
    def test_escape_named_at_the_step_that_makes_it(self, variant):
        # the field records the radii it sees: step k evaluates the state
        # before it, so a path caught at step k was evaluated k times, always
        # inside the band.  The projected step on the sphere drops a radial
        # push, so there the push is tangential and overshoots
        radii = []

        class Repulsive:
            def gradient_batch(self, X):
                radii.append(np.linalg.norm(X, axis=1) / np.sqrt(X.shape[1]))
                if variant == "fconfined":
                    return -40.0 * X
                return 300.0 * np.roll(X, 1, axis=1)

        N = 30
        cfg = LangevinConfig(beta=1.0, T=1.0, h_obs=0.05, variant=variant,
                             ell=0.01 if variant == "fconfined" else None)
        with pytest.raises(EscapeError, match=r"step (\d+)$") as err:
            integrate_ensemble(Repulsive(), sample_band_point(0.0, 0.0, N, 8),
                               cfg, 3, 9)
        step = int(err.value.args[0].rsplit(" ", 1)[1])
        assert len(radii) == step
        assert all(((r > 0.5) & (r < 2.0)).all() for r in radii)

    def test_ensemble_matches_single_paths(self):
        # path i of an ensemble is the one-path ensemble seeded master_seed + i
        N = 25
        x0 = sample_band_point(0.0, 0.0, N, 10)
        cfg = LangevinConfig(beta=0.0, T=0.3, h_obs=0.05)
        ens = integrate_ensemble(ZeroField(), x0, cfg, 3, master_seed=40)
        for i, tr in enumerate(ens):
            single = integrate_ensemble(ZeroField(), x0, cfg, 1, 40 + i)[0]
            np.testing.assert_array_equal(tr.x, single.x)
            np.testing.assert_array_equal(tr.B, single.B)


class TestObservables:
    def _traj(self, N=30, seed=11):
        ic = gibbs_init(M23, 0.2, 0.0)
        spec = ConditioningSpec(ic, N, seed)
        f = conditioned_field(sample_system(M23, N, seed + 1), spec)
        cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05)
        return f, spec.x_0, integrate_ensemble(f, spec.x_0, cfg, 1, seed + 2)[0]

    def test_diagonal_is_radius(self):
        f, x0, tr = self._traj()
        obs = observables([tr], f, None)[0]
        np.testing.assert_allclose(np.diagonal(obs.C), obs.K)

    def test_initial_values(self):
        f, x0, tr = self._traj()
        obs = observables([tr], f, None)[0]
        assert obs.C[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert obs.chi[:, 0].max() == 0.0
        assert obs.H[0] == pytest.approx(f.spec.target.E, abs=1e-10)

    def test_ensemble_energy_pass_matches_each_path(self):
        N = 30
        ic = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
        spec = ConditioningSpec(ic, N, 15)
        x_star, x0 = spec.x_star, spec.x_0
        f = conditioned_field(sample_system(M23, N, 16), spec)
        trajs = integrate_ensemble(f, x0, LangevinConfig(beta=0.2, T=0.4, h_obs=0.05),
                                   3, master_seed=17)
        obs = observables(trajs, f, x_star)
        assert len(obs) == len(trajs)
        for o, t in zip(obs, trajs):
            H = -f.value_batch(t.x) / N
            np.testing.assert_allclose(o.H, H, rtol=1e-12, atol=1e-12 * np.abs(H).max())
            C = t.x @ t.x.T / N
            np.testing.assert_array_equal(o.C, C)
            np.testing.assert_array_equal(o.chi, t.x @ t.B.T / N)
            np.testing.assert_array_equal(o.q, t.x @ x_star / N)
            np.testing.assert_array_equal(o.K, np.diagonal(C))

    def test_overlap_starts_at_qo(self):
        N = 30
        ic = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
        spec = ConditioningSpec(ic, N, 12)
        x_star, x0 = spec.x_star, spec.x_0
        f = conditioned_field(sample_system(M23, N, 13), spec)
        tr = integrate_ensemble(f, x0, LangevinConfig(beta=0.2, T=0.2, h_obs=0.05),
                                1, 14)[0]
        obs = observables([tr], f, x_star)[0]
        assert obs.q[0] == pytest.approx(ic.q_o, abs=1e-12)


class TestErrorFunctional:
    def test_zero_against_itself(self):
        ic = InitCondition(0.0, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        from glassdyn.dynamics import integrated_response
        from glassdyn.langevin import ObservableSet
        obs = ObservableSet(h=0.02, C=sol.C, chi=integrated_response(sol),
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

    def test_limit_grid_is_the_full_chi_at_the_observation_points(self):
        sol = solve_dynamics(M23, gibbs_init(M23, 0.2, 0.0),
                             SolverConfig(beta=0.3, T=1.0, h=0.01))
        chi = integrated_response(sol)
        for ratio, n_obs in ((1, 100), (2, 50), (5, 13)):
            C, chi_grid, q, H = _limit_on_grid(sol, ratio * 0.01, n_obs)
            idx = np.arange(n_obs + 1) * ratio
            assert chi_grid.tobytes() == chi[np.ix_(idx, idx)].tobytes()
            assert C.tobytes() == sol.C[np.ix_(idx, idx)].tobytes()

    def test_limit_grid_holds_no_square_of_the_solver_grid(self, alloc_peak):
        n, h = 400, 0.01
        s = np.arange(n + 1) * h
        lag = s[:, None] - s[None, :]
        sol = TwoTimeSolution(h, np.exp(-0.5 * np.abs(lag)), np.tril(np.exp(-0.5 * lag)),
                              np.zeros(n + 1), np.ones(n + 1), np.full(n + 1, 0.5),
                              np.zeros(n + 1), np.zeros(n + 1), 0.0,
                              InitCondition(0.0, 0.3))
        out, peak = alloc_peak(lambda: _limit_on_grid(sol, 0.05, 80))
        result = sum(a.nbytes for a in out)
        # the observation rows only: no (n+1)^2 chi on the solver grid
        assert peak - result < (n + 1) ** 2 * 8

    def test_ensemble_error_below_mean_path_error(self):
        N = 200
        ic = gibbs_init(M23, 0.2, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        spec = ConditioningSpec(ic, N, 15)
        f = conditioned_field(sample_system(M23, N, 16), spec)
        cfg = LangevinConfig(beta=0.3, T=1.0, h_obs=0.02)
        trajs = integrate_ensemble(f, spec.x_0, cfg, 6, master_seed=17)
        obs = observables(trajs, f, spec.x_star)
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
        slope = default_f0_slope(solve_w(ic, m), beta)
        sol = solve_dynamics(m, ic, SolverConfig(beta=beta, T=T, h=0.01,
                                                 variant="f", ell=ell))
        spec = ConditioningSpec(ic, N, 61)
        f = conditioned_field(sample_system(m, N, 62), spec)
        cfg = LangevinConfig(beta=beta, T=T, h_obs=0.05, substeps=10,
                             variant="fconfined", ell=ell, f0_slope=slope)
        trajs = integrate_ensemble(f, spec.x_0, cfg, 8, master_seed=63)
        K_N = np.mean([o.K for o in observables(trajs, f, None)], axis=0)
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
        spec = ConditioningSpec(ic, N, 51)
        f = conditioned_field(sample_system(m, N, 52), spec)
        cfg = LangevinConfig(beta=beta, T=2.0, h_obs=0.05)
        trajs = integrate_ensemble(f, spec.x_0, cfg, 8, master_seed=53)
        C = np.mean([o.C for o in observables(trajs, f, spec.x_star)], axis=0)
        i1, i2, lags = 10, 20, 16  # t = 0.5 and t = 1.0, tau up to 0.8
        slice1 = np.array([C[i1 + k, i1] for k in range(lags)])
        slice2 = np.array([C[i2 + k, i2] for k in range(lags)])
        assert np.abs(slice1 - slice2).max() < 0.12


class TestRotationInvariance:
    def _field(self, N=50):
        ic = gibbs_init(Mixture.pure(2), 0.2, 0.0)
        spec = ConditioningSpec(ic, N, 18)
        return conditioned_field(sample_system(Mixture.pure(2), N, 19), spec), spec.x_0

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
