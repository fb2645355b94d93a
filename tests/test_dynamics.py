"""Two-time solver: closed forms, invariants, kernels, variants."""

import dataclasses

import numpy as np
import pytest

from glassdyn.dynamics import (
    EllRecord, SolverConfig, TwoTimeSolution, ell_limit_check,
    integrated_response, residual, rhs_kernels, solve_dynamics,
)
from glassdyn.errors import BlowUpError, ConfigError
from glassdyn.init_params import InitCondition, gibbs_init, solve_w
from glassdyn.mixture import Mixture

M23 = Mixture({2: 1.0, 3: 1.0})
IC_GEN = InitCondition(0.8, 0.5, -0.3, 0.4, 0.35)


def _beta0_solution(T=2.0, h=0.01, ic=IC_GEN):
    return solve_dynamics(M23, ic, SolverConfig(beta=0.0, T=T, h=h))


class TestFreeDynamics:
    """beta = 0 collapses everything to linear one-sided exponentials."""

    def test_correlation_and_response(self):
        sol = _beta0_solution()
        s = sol.s
        expect = np.exp(-0.5 * np.abs(s[:, None] - s[None, :]))
        tri = np.tril_indices(sol.n + 1)
        assert np.abs(sol.C[tri] - expect[tri]).max() < 5 * sol.h
        assert np.abs(sol.R[tri] - expect[tri]).max() < 5 * sol.h

    def test_overlap_decay_and_multiplier(self):
        sol = _beta0_solution()
        assert np.abs(sol.q - IC_GEN.q_o * np.exp(-0.5 * sol.s)).max() < 5 * sol.h
        np.testing.assert_allclose(sol.mu, 0.5, atol=1e-12)

    def test_energy_follows_drift_source(self):
        sol = _beta0_solution()
        vf = solve_w(IC_GEN, M23)
        expect = np.array([vf.v(q, c) for q, c in zip(sol.q, sol.C[:, 0])])
        np.testing.assert_allclose(sol.H, expect, atol=1e-12)


class TestStructure:
    def test_boundary_values(self):
        sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.4, T=1.0, h=0.01))
        np.testing.assert_allclose(np.diagonal(sol.R), 1.0)
        np.testing.assert_allclose(np.diagonal(sol.C), sol.K)
        np.testing.assert_allclose(sol.K, 1.0)
        assert sol.q[0] == IC_GEN.q_o
        assert sol.L[0] == 0.0
        assert np.triu(sol.R, 1).max() == 0.0

    def test_h0_equals_E_all_branches(self):
        for ic in (IC_GEN, InitCondition(0.0, 0.7),
                   gibbs_init(M23, 0.5, 0.4, -0.8)):
            sol = solve_dynamics(M23, ic, SolverConfig(beta=0.3, T=0.1, h=0.01))
            assert sol.H[0] == pytest.approx(ic.E, abs=1e-12)

    def test_correlation_bounded_by_one(self):
        sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.6, T=2.0, h=0.01))
        assert np.abs(sol.C).max() <= 1.0 + 1e-9

    def test_psd_gram_matrices(self):
        sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.6, T=2.0, h=0.01))
        assert sol.gram_min_eig(30) >= -1e-6
        assert sol.cbar_gram_min_eig(30) >= -1e-6

    def test_overlap_bounded_by_qstar(self):
        sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.6, T=2.0, h=0.01))
        assert np.abs(sol.q).max() <= IC_GEN.q_star + 1e-9


class TestKernels:
    def test_beta0_drift_contributions_vanish(self):
        sol = _beta0_solution(T=0.5)
        vf = solve_w(IC_GEN, M23)
        cfg = SolverConfig(beta=0.0, T=0.5, h=0.01)
        kv = rhs_kernels(sol, vf, M23, cfg, 30, 10)
        assert kv.A_C == 0.0 and kv.A_q == 0.0
        assert kv.dR == pytest.approx(-sol.mu[30] * sol.R[30, 10])
        assert kv.L == pytest.approx(sol.L[30], abs=1e-12)

    def test_L_starts_at_zero(self):
        sol = _beta0_solution(T=0.5)
        vf = solve_w(IC_GEN, M23)
        kv = rhs_kernels(sol, vf, M23, SolverConfig(beta=0.0, T=0.5, h=0.01), 0, 0)
        assert kv.L == 0.0
        assert kv.H == pytest.approx(IC_GEN.E, abs=1e-12)

    def test_solver_output_residual_small(self):
        cfg = SolverConfig(beta=0.5, T=1.0, h=0.01)
        sol = solve_dynamics(M23, IC_GEN, cfg)
        rep = residual(sol, solve_w(IC_GEN, M23), M23, cfg)
        for v in (rep.sup_res_R, rep.sup_res_C, rep.sup_res_q, rep.sup_res_H):
            assert v < 5 * cfg.h

    def test_zeroed_solution_flagged_by_mu_bookkeeping(self):
        cfg = SolverConfig(beta=0.3, T=0.5, h=0.01)
        sol = solve_dynamics(M23, IC_GEN, cfg)
        n = sol.n
        zeros = TwoTimeSolution(sol.h, n, np.zeros_like(sol.C),
                                np.zeros_like(sol.R), np.zeros(n + 1),
                                np.zeros(n + 1), np.zeros(n + 1),
                                np.zeros(n + 1), np.zeros(n + 1),
                                sol.beta, sol.q_star, sol.q_o)
        rep = residual(zeros, solve_w(IC_GEN, M23), M23, cfg)
        assert rep.sup_res_mu >= 0.5


class TestVariants:
    def test_rs_zero_energy_matches_zero_drift_path(self):
        # E = 0 makes the drift source vanish identically, so the run must be
        # bit-for-bit the run with an explicitly zeroed source
        ic = InitCondition(0.0, 0.0)
        cfg = SolverConfig(beta=0.45, T=1.0, h=0.01)
        a = solve_dynamics(M23, ic, cfg)
        vf0 = solve_w(ic, M23)
        assert vf0.w[0] == 0.0
        b = solve_dynamics(M23, ic, cfg, vf=vf0)
        assert np.array_equal(a.C, b.C) and np.array_equal(a.R, b.R)
        assert np.array_equal(a.H, b.H)

    def test_ell_records_shrink(self):
        ic = gibbs_init(M23, 0.45, 0.5, -1.0)
        recs = ell_limit_check(M23, ic, 0.25, 1.0, 0.01, [10.0, 40.0])
        assert recs[0].sup_K_minus_1 > recs[1].sup_K_minus_1
        assert recs[0].dist_to_spherical > recs[1].dist_to_spherical
        assert isinstance(recs[0], EllRecord)

    def test_gradflow_runs_and_holds_sphere(self):
        sol = solve_dynamics(M23, IC_GEN,
                             SolverConfig(beta=1.0, T=1.0, h=0.01, variant="gradflow"))
        np.testing.assert_allclose(sol.K, 1.0)
        # noise-free: the equal-time correlation has zero initial decay
        assert abs(sol.C[1, 0] - 1.0) < 5e-4

    def test_even_mixture_reflection(self):
        meven = Mixture({2: 1.0, 4: 0.5})
        cfg = SolverConfig(beta=0.4, T=1.0, h=0.01)
        icp = InitCondition(0.8, 0.6, 0.2, 0.5, 0.4)
        icm = InitCondition(0.8, 0.6, 0.2, 0.5, -0.4)
        sp, sm = solve_dynamics(meven, icp, cfg), solve_dynamics(meven, icm, cfg)
        tri = np.tril_indices(sp.n + 1)
        assert np.abs(sp.C[tri] - sm.C[tri]).max() < 1e-10
        assert np.abs(sp.R[tri] - sm.R[tri]).max() < 1e-10
        assert np.abs(sp.q + sm.q).max() < 1e-10
        assert np.abs(sp.H - sm.H).max() < 1e-10

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(beta=0.3, T=1.0, h=0.3)
        with pytest.raises(ConfigError):
            SolverConfig(beta=0.3, T=1.0, h=0.01, variant="f")
        with pytest.raises(ConfigError):
            SolverConfig(beta=0.3, T=1.0, h=0.01, variant="nope")

    @pytest.mark.parametrize("field", ["beta", "T", "h"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, field, bad):
        args = dict(beta=0.3, T=1.0, h=0.01)
        args[field] = bad
        with pytest.raises(ConfigError, match=field):
            SolverConfig(**args)

    @pytest.mark.parametrize("ell", [None, 0.0, -1.0, float("nan"), float("inf")])
    def test_f_variant_needs_finite_positive_ell(self, ell):
        with pytest.raises(ConfigError, match="ell"):
            SolverConfig(beta=0.3, T=1.0, h=0.01, variant="f", ell=ell)

    def test_non_finite_state_stops_at_first_slice(self):
        # a NaN drift source makes row 1 NaN; the march must stop right there
        vf = solve_w(IC_GEN, M23)
        vf = dataclasses.replace(vf, w=np.full_like(vf.w, np.nan))
        with pytest.raises(BlowUpError, match="slice 1$"):
            solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.3, T=1.0, h=0.01), vf)


class TestIntegratedResponse:
    def test_beta0_closed_form(self):
        sol = _beta0_solution()
        chi = integrated_response(sol)
        s = sol.s
        # int_0^t e^{-(s-u)/2} du = 2 e^{-s/2} (e^{t/2} - 1) for t <= s
        for i in (50, 120, 200):
            t = np.minimum(s, s[i])
            expect = 2.0 * np.exp(-0.5 * s[i]) * (np.exp(0.5 * t) - 1.0)
            assert np.abs(chi[i] - expect).max() < 5 * sol.h

    def test_flat_beyond_diagonal(self):
        sol = _beta0_solution(T=1.0)
        chi = integrated_response(sol)
        assert chi[10, 10] == chi[10, 50] == chi[10, -1]
