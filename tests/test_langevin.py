"""SDE integrator, observables, error metric, rotation equivariance."""

import dataclasses
import math

import numpy as np
import pytest

from glassdyn import acceptance
from glassdyn.dynamics import (
    SolverConfig, TwoTimeSolution, integrated_response, solve_dynamics,
)
from glassdyn.errors import ConfigError, EscapeError, GridMismatchError
from glassdyn.hamiltonian import (
    ConditioningSpec, conditioned_field, sample_band_point, sample_system,
)
from glassdyn.init_params import InitCondition, gibbs_init
from glassdyn.langevin import (
    LangevinConfig, ObservableSet, average_error, ensemble_error, error_functional,
    integrate_ensemble, observables, random_orthogonal, rotation_invariance_test,
    score,
)
from glassdyn.mixture import Mixture

M23 = Mixture({2: 1.0, 3: 0.1})
RS_IC = InitCondition(0.0, 0.3)


def _free_solution(n, h):
    """The beta = 0 closed form C = e^{-|s-t|/2}, R = e^{-(s-t)/2} below the
    diagonal, built directly."""
    s = np.arange(n + 1) * h
    lag = s[:, None] - s[None, :]
    return TwoTimeSolution(h, np.exp(-0.5 * np.abs(lag)), np.tril(np.exp(-0.5 * lag)),
                           np.zeros(n + 1), np.full(n + 1, 0.5), np.zeros(n + 1),
                           np.zeros(n + 1), 0.0, RS_IC)


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
        {"substeps": 2.5}, {"substeps": True},
        {"variant": "fconfined", "ell": 1.0, "f0_slope": float("nan")},
        {"T": 1e300, "h_obs": 1e-300}, {"h_obs": 1e-320},
        {"T": 1e-12, "h_obs": 1.0}, {"ell": 5.0}, {"T": 1e19, "h_obs": 1.0},
        {"substeps": np.bool_(True)}, {"substeps": "5"}, {"substeps": float("nan")},
        {"substeps": np.float64(5.5)}, {"beta": True}, {"T": "0.5"}, {"h_obs": True},
        {"variant": "fconfined", "ell": "1.0"},
        {"variant": "fconfined", "ell": 1.0, "f0_slope": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        args = dict(beta=0.3, T=0.5, h_obs=0.05)
        args.update(kwargs)
        with pytest.raises(ConfigError, match=list(kwargs)[-1]):
            LangevinConfig(**args)

    @pytest.mark.parametrize("n_paths, master_seed, name", [
        (0, 1, "n_paths"), (2.5, 1, "n_paths"), (1, -1, "master_seed"),
        (1, 2.5, "master_seed"), (True, 1, "n_paths"), (1, True, "master_seed"),
        (10.5, 1, "n_paths"), ("2", 1, "n_paths"), (1, -1.0, "master_seed"),
    ])
    def test_ensemble_rejects_bad_counts(self, n_paths, master_seed, name):
        x0 = sample_band_point(RS_IC, 10, 1)
        cfg = LangevinConfig(beta=0.0, T=0.1, h_obs=0.05)
        with pytest.raises(ConfigError, match=name):
            integrate_ensemble(ZeroField(), x0, cfg, n_paths, master_seed)

    @pytest.mark.parametrize("x0", [
        np.empty(0), np.ones((2, 5)), np.float64(1.0), np.full(10, np.nan),
        np.r_[np.ones(9), np.inf], 3.0 * np.ones(10), 0.4 * np.ones(10),
        2.0 * np.ones(10),
    ], ids=["empty", "2-D", "0-D", "nan", "inf", "radius-3", "radius-0.4", "radius-2"])
    def test_ensemble_rejects_a_bad_start(self, x0):
        # a start the stepper cannot take is bad input named before step 1,
        # not an escape of path 0 at step 1 or numpy's broadcast error
        cfg = LangevinConfig(beta=0.0, T=0.1, h_obs=0.05)
        with pytest.raises(ConfigError, match="^x0 "):
            integrate_ensemble(ZeroField(), x0, cfg, 1, 0)

    def test_accepts_valid_values(self):
        assert LangevinConfig(beta=0.3, T=0.5, h_obs=0.05, substeps=1).n_obs == 10
        # a whole number of any type is stored as the same int
        for substeps in (np.int64(3), 3.0):
            cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05, substeps=substeps)
            assert type(cfg.substeps) is int and cfg.substeps == 3


class TestIntegrate:
    def test_reproducible_given_seed(self):
        x0 = sample_band_point(RS_IC, 30, 1)
        cfg = LangevinConfig(beta=0.0, T=0.5, h_obs=0.05)
        a = integrate_ensemble(ZeroField(), x0, cfg, 1, 9)
        b = integrate_ensemble(ZeroField(), x0, cfg, 1, 9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.B, b.B)

    def test_spherical_radius_preserved(self):
        N = 40
        x0 = sample_band_point(RS_IC, N, 2)
        x = integrate_ensemble(ZeroField(), x0,
                               LangevinConfig(beta=0.0, T=1.0, h_obs=0.05), 1, 3).x[0]
        np.testing.assert_allclose((x**2).sum(axis=1) / N, 1.0, atol=1e-12)

    def test_free_sphere_correlation(self):
        # at beta = 0 the projected dynamics decorrelate at rate 1/2
        N, T = 400, 2.0
        cfg = LangevinConfig(beta=0.0, T=T, h_obs=0.05)
        x0 = sample_band_point(RS_IC, N, 4)
        traj = integrate_ensemble(ZeroField(), x0, cfg, 8, master_seed=5)
        C = observables(traj, ZeroField(), None).mean().C[0]
        s = np.arange(cfg.n_obs + 1) * cfg.h_obs
        expect = np.exp(-0.5 * np.abs(s[:, None] - s[None, :]))
        assert np.abs(C - expect).max() < 0.05

    def test_fconfined_radius_band(self):
        N, ell = 100, 50.0
        x0 = sample_band_point(RS_IC, N, 6)
        cfg = LangevinConfig(beta=0.0, T=1.0, h_obs=0.02, substeps=10,
                             variant="fconfined", ell=ell)
        x = integrate_ensemble(ZeroField(), x0, cfg, 1, 7).x[0]
        K = (x**2).sum(axis=1) / N
        assert np.abs(K - 1.0).max() < 10.0 / ell

    def test_escape_guard(self):
        class Repulsive:
            def gradient_batch(self, X):
                return -20.0 * X

        N = 30
        x0 = sample_band_point(RS_IC, N, 8)
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
            integrate_ensemble(Repulsive(), sample_band_point(RS_IC, N, 8),
                               cfg, 3, 9)
        step = int(err.value.args[0].rsplit(" ", 1)[1])
        assert len(radii) == step
        assert all(((r > 0.5) & (r < 2.0)).all() for r in radii)

    def test_ensemble_matches_single_paths(self):
        # path i of an ensemble is the one-path ensemble seeded master_seed + i
        N = 25
        x0 = sample_band_point(RS_IC, N, 10)
        cfg = LangevinConfig(beta=0.0, T=0.3, h_obs=0.05)
        ens = integrate_ensemble(ZeroField(), x0, cfg, 3, master_seed=40)
        assert len(ens) == 3 and ens.seeds == [40, 41, 42]
        assert ens.x.shape == ens.B.shape == (3, cfg.n_obs + 1, N)
        for i in range(len(ens)):
            single = integrate_ensemble(ZeroField(), x0, cfg, 1, 40 + i)
            np.testing.assert_array_equal(ens.x[i], single.x[0])
            np.testing.assert_array_equal(ens.B[i], single.B[0])


class TestObservables:
    def _traj(self, N=30, seed=11):
        ic = gibbs_init(M23, 0.2, 0.0)
        spec = ConditioningSpec(ic, N, seed)
        f = conditioned_field(sample_system(M23, N, seed + 1), spec)
        cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05)
        return f, spec.x_0, integrate_ensemble(f, spec.x_0, cfg, 1, seed + 2)

    def test_diagonal_is_radius(self):
        f, x0, traj = self._traj()
        obs = observables(traj, f, None)
        np.testing.assert_allclose(np.diagonal(obs.C[0]), obs.K[0])

    def test_initial_values(self):
        f, x0, traj = self._traj()
        obs = observables(traj, f, None)
        assert obs.C[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert obs.chi[0, :, 0].max() == 0.0
        assert obs.H[0, 0] == pytest.approx(f.spec.target.E, abs=1e-10)

    def test_ensemble_energy_pass_matches_each_path(self):
        N = 30
        ic = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
        spec = ConditioningSpec(ic, N, 15)
        x_star, x0 = spec.x_star, spec.x_0
        f = conditioned_field(sample_system(M23, N, 16), spec)
        traj = integrate_ensemble(f, x0, LangevinConfig(beta=0.2, T=0.4, h_obs=0.05),
                                  3, master_seed=17)
        obs = observables(traj, f, x_star)
        assert obs.paths == len(traj)
        for i, (x, B) in enumerate(zip(traj.x, traj.B)):
            H = -f.value_batch(x) / N
            np.testing.assert_allclose(obs.H[i], H, rtol=1e-12,
                                       atol=1e-12 * np.abs(H).max())
            C = x @ x.T / N
            np.testing.assert_array_equal(obs.C[i], C)
            np.testing.assert_array_equal(obs.chi[i], x @ B.T / N)
            np.testing.assert_array_equal(obs.q[i], x @ x_star / N)
            np.testing.assert_array_equal(obs.K[i], np.diagonal(C))

    def test_reads_the_record_in_place(self, alloc_peak):
        # 4 paths, 11 grid points, N = 2000: stacking the paths' x and B
        # held two copies of the record's states
        x0 = sample_band_point(RS_IC, 2000, 5)
        traj = integrate_ensemble(ZeroField(), x0, LangevinConfig(beta=0.0, T=0.5, h_obs=0.05),
                                  4, 6)
        obs, peak = alloc_peak(lambda: observables(traj, ZeroField(), None))
        assert obs.C.shape == (4, 11, 11)
        assert peak < 0.5 * traj.x.nbytes

    def test_mean_is_an_ensemble_of_one(self):
        N = 30
        ic = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
        spec = ConditioningSpec(ic, N, 15)
        f = conditioned_field(sample_system(M23, N, 16), spec)
        traj = integrate_ensemble(f, spec.x_0, LangevinConfig(beta=0.2, T=0.4, h_obs=0.05),
                                  5, master_seed=17)
        obs = observables(traj, f, spec.x_star)
        mean = obs.mean()
        assert mean.paths == 1 and mean.h == obs.h
        for key in ("C", "chi", "q", "H", "K"):
            # the paths summed in order, one array of each shape
            arrays = getattr(obs, key)
            total = arrays[0].copy()
            for a in arrays[1:]:
                total += a
            np.testing.assert_array_equal(getattr(mean, key)[0], total / obs.paths)

    def test_K_is_the_diagonal_of_C_and_not_stored(self):
        assert [f.name for f in dataclasses.fields(ObservableSet)] == [
            "h", "C", "chi", "q", "H"]
        C = np.arange(18.0).reshape(2, 3, 3)
        obs = ObservableSet(0.1, C, C, np.zeros((2, 3)), np.zeros((2, 3)))
        np.testing.assert_array_equal(obs.K, [[0.0, 4.0, 8.0], [9.0, 13.0, 17.0]])

    def test_overlap_starts_at_qo(self):
        N = 30
        ic = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
        spec = ConditioningSpec(ic, N, 12)
        x_star, x0 = spec.x_star, spec.x_0
        f = conditioned_field(sample_system(M23, N, 13), spec)
        traj = integrate_ensemble(f, x0, LangevinConfig(beta=0.2, T=0.2, h_obs=0.05),
                                  1, 14)
        obs = observables(traj, f, x_star)
        assert obs.q[0, 0] == pytest.approx(ic.q_o, abs=1e-12)


class TestErrorFunctional:
    def test_zero_against_itself(self):
        ic = InitCondition(0.0, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        obs = ObservableSet(h=0.02, C=sol.C[None], chi=integrated_response(sol)[None],
                            q=sol.q[None], H=sol.H[None])
        assert error_functional(score(obs, sol, 1.0)).tolist() == [0.0, 0.0]

    def test_each_term_capped(self):
        ic = InitCondition(0.0, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        n = sol.n
        far = ObservableSet(h=0.02, C=np.full((1, n + 1, n + 1), 99.0),
                            chi=np.full((1, n + 1, n + 1), 99.0),
                            q=np.full((1, n + 1), 99.0), H=np.full((1, n + 1), 99.0))
        terms = score(far, sol, 1.0)
        assert (terms > 90.0).all()  # the terms themselves are uncapped
        assert error_functional(terms).tolist() == [4.0, 4.0]

    def test_grid_mismatch_raises(self):
        ic = InitCondition(0.0, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        obs = ObservableSet(h=0.03, C=np.ones((1, 3, 3)), chi=np.ones((1, 3, 3)),
                            q=np.ones((1, 3)), H=np.ones((1, 3)))
        with pytest.raises(GridMismatchError):
            score(obs, sol, 0.06)

    @pytest.mark.parametrize("T", [-0.02, np.nan, np.inf])
    def test_T_outside_the_grid_is_refused(self, T):
        sol = _free_solution(10, 0.02)
        obs = ObservableSet(h=0.02, C=np.ones((1, 3, 3)), chi=np.ones((1, 3, 3)),
                            q=np.ones((1, 3)), H=np.ones((1, 3)))
        with pytest.raises(GridMismatchError, match="T must be finite"):
            score(obs, sol, T)

    def test_limit_grid_is_the_full_chi_at_the_observation_points(self):
        # a set built from the limit on the observation points, integrated_response
        # included, scores exactly 0: the streamed chi rows are its entries bit for bit
        sol = solve_dynamics(M23, gibbs_init(M23, 0.2, 0.0),
                             SolverConfig(beta=0.3, T=1.0, h=0.01))
        chi = integrated_response(sol)
        for ratio, n_obs in ((1, 100), (2, 50), (5, 13)):
            idx = np.arange(n_obs + 1) * ratio
            on = np.ix_(idx, idx)
            obs = ObservableSet(ratio * 0.01, np.stack([sol.C[on]] * 2),
                                np.stack([chi[on]] * 2), np.stack([sol.q[idx]] * 2),
                                np.stack([sol.H[idx]] * 2))
            assert score(obs, sol, n_obs * ratio * 0.01).tolist() == [[0.0] * 4] * 3

    def test_limit_grid_holds_no_square_of_the_solver_grid(self, alloc_peak):
        n, m = 400, 81
        sol = _free_solution(n, 0.01)
        C = np.zeros((1, m, m))
        obs = ObservableSet(0.05, C, C, np.zeros((1, m)), np.zeros((1, m)))
        terms, peak = alloc_peak(lambda: score(obs, sol, 4.0))
        assert terms.shape == (2, 4)
        # the limit's rows on the observation grid, one at a time: no (n+1)^2 chi
        assert peak < (n + 1) ** 2 * 8

    def test_mean_row_of_a_one_path_set_is_that_path(self):
        sol = solve_dynamics(M23, InitCondition(0.0, 0.0),
                             SolverConfig(beta=0.3, T=1.0, h=0.02))
        rng = np.random.default_rng(3)
        n1 = sol.n + 1
        one = ObservableSet(0.02, rng.standard_normal((1, n1, n1)),
                            rng.standard_normal((1, n1, n1)),
                            rng.standard_normal((1, n1)), rng.standard_normal((1, n1)))
        terms = score(one, sol, 1.0)
        assert terms[0].tobytes() == terms[1].tobytes()
        assert average_error(terms) == (float(error_functional(terms[0])), 0.0)

    def test_scores_are_those_of_one_path_sets(self):
        # path counts on both sides of the score's blocks of _PATH_BLOCK paths
        N = 40
        ic = gibbs_init(M23, 0.2, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=0.4, h=0.01))
        spec = ConditioningSpec(ic, N, 25)
        f = conditioned_field(sample_system(M23, N, 26), spec)
        traj = integrate_ensemble(f, spec.x_0, LangevinConfig(beta=0.3, T=0.4, h_obs=0.02),
                                  9, master_seed=27)
        every = observables(traj, f, spec.x_star)
        per_path = np.array([score(ObservableSet(every.h, *(a[i:i + 1] for a in (
            every.C, every.chi, every.q, every.H))), sol, 0.4)[0] for i in range(9)])
        for paths in (1, 3, 4, 5, 9):
            obs = ObservableSet(every.h, *(a[:paths] for a in (
                every.C, every.chi, every.q, every.H)))
            terms = score(obs, sol, 0.4)
            assert terms[:-1].tobytes() == per_path[:paths].tobytes()
            errs = error_functional(per_path[:paths])
            mean_err, se = average_error(terms)
            assert mean_err == float(errs.mean())
            assert se == (float(errs.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0)
            mean_terms = score(obs.mean(), sol, 0.4)
            assert terms[-1].tobytes() == mean_terms[0].tobytes()
            assert ensemble_error(terms) == ensemble_error(mean_terms)

    @pytest.mark.parametrize("ratio", [1, 2])
    def test_scores_hold_no_square_per_path(self, alloc_peak, ratio):
        # 32 paths on a 201-point observable grid.  Stacking every path's
        # square for the mean held 34 squares, and building the limit's chi
        # and the path mean's C and chi for each score held 1.64 and 3.66;
        # one pass over the limit's rows holds a few rows, whatever the
        # number of paths
        m = 201
        sol = _free_solution((m - 1) * ratio, 0.01 / ratio)
        square = m * m * 8
        peaks = {}
        for paths in (2, 32):
            rng = np.random.default_rng(paths)
            C, q = rng.standard_normal((paths, m, m)), rng.standard_normal((paths, m))
            obs = ObservableSet(0.01, C, C.copy(), q, q.copy())
            peaks[paths] = alloc_peak(lambda: score(obs, sol, 2.0))[1]
        assert peaks[32] < 0.25 * square
        assert peaks[32] - peaks[2] < 0.05 * square

    def test_ensemble_error_below_mean_path_error(self):
        N = 200
        ic = gibbs_init(M23, 0.2, 0.0)
        sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=1.0, h=0.02))
        spec = ConditioningSpec(ic, N, 15)
        f = conditioned_field(sample_system(M23, N, 16), spec)
        cfg = LangevinConfig(beta=0.3, T=1.0, h_obs=0.02)
        traj = integrate_ensemble(f, spec.x_0, cfg, 6, master_seed=17)
        terms = score(observables(traj, f, spec.x_star), sol, 1.0)
        mean_err, _ = average_error(terms)
        assert ensemble_error(terms) < mean_err


class TestBandStartConvergence:
    """Finite-N runs from a 1-RSB band start, with criterion 10's protocol
    on criterion 4's beta and q_EA.  The stationary band solution is stable
    at GS = +1 and unstable at criterion 4's GS = -1, where the 1/sqrt(N)
    fluctuations seed the unstable mode and the energy leaves the band."""

    T = 2.0

    def _terms(self, GS, N):
        m = acceptance.M23
        beta = acceptance._stationary_setup()[0]
        ic = gibbs_init(m, beta, 0.5, GS)
        sol = solve_dynamics(m, ic, SolverConfig(beta=beta, T=self.T, h=0.01))
        cfg = LangevinConfig(beta=beta, T=self.T, h_obs=0.02, substeps=5)
        spec = ConditioningSpec(ic, N, seed=60 + N)
        f = conditioned_field(sample_system(m, N, seed=50 + N), spec)
        traj = integrate_ensemble(f, spec.x_0, cfg, 8, master_seed=70 + N)
        return score(observables(traj, f, spec.x_star), sol, self.T)

    def test_stable_band_start_converges_with_N(self):
        terms = [self._terms(1.0, N) for N in (50, 100, 200)]
        ens = [ensemble_error(t) for t in terms]
        per_path = [average_error(t)[0] for t in terms]
        assert ens[0] > ens[1] > ens[2]
        assert per_path[0] > per_path[1] > per_path[2]
        assert ens[2] < 0.22

    def test_unstable_band_start_misses_the_energy(self):
        # the path mean's uncapped H term
        assert self._terms(-1.0, 200)[-1, 3] > 1.0


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
        traj = integrate_ensemble(f, spec.x_0, cfg, 8, master_seed=63)
        K_N = observables(traj, f, None).mean().K[0]
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
        traj = integrate_ensemble(f, spec.x_0, cfg, 8, master_seed=53)
        C = observables(traj, f, spec.x_star).mean().C[0]
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

    def test_bad_start_is_named_before_step_one(self):
        # the one stepper checks its start, so this caller is covered too
        f, _ = self._field(10)
        cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05)
        with pytest.raises(ConfigError, match="^x0 "):
            rotation_invariance_test(f, np.eye(10), 3 * np.ones(10), np.zeros(10), cfg, 20)

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
    def test_bad_seed_is_config_error(self, seed):
        # True ran as seed 1, and -1 ended in numpy's ValueError
        f, x0 = self._field(10)
        cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05)
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0"):
            random_orthogonal(10, seed)
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0"):
            rotation_invariance_test(f, np.eye(10), x0, np.zeros(10), cfg, seed)

    @pytest.mark.parametrize("N", [-1, 2.5, True, 0])
    def test_bad_size_is_config_error(self, N):
        # numpy refused these with its own errors, and took 0 for an empty matrix
        with pytest.raises(ConfigError, match="^N must be an integer >= 1"):
            random_orthogonal(N, 21)

    def test_integral_seed_is_the_int_seed(self):
        assert np.array_equal(random_orthogonal(10, 21.0), random_orthogonal(10, 21))
        assert np.array_equal(random_orthogonal(10, np.int64(21)),
                              random_orthogonal(10, 21))
