"""Scalar relaxation equation against closed forms and the two-time residual."""

import dataclasses
import math

import numpy as np
import pytest

from glassdyn.dynamics import residual
from glassdyn.errors import BlowUpError, ConfigError, GammaTooSmallError
from glassdyn import fdt as fdt_module
from glassdyn.fdt import solve_fdt, stationary_two_time
from glassdyn.init_params import InitCondition, check_stationary, gamma_star, gibbs_init
from glassdyn.mixture import Mixture, phi_gamma

M23 = Mixture({2: 1.0, 3: 1.0})


def _const_kernel_solution(gamma, tau):
    # beta = 0 collapses the memory kernel to the constant gamma, so
    # c' = -gamma (c - 1) - 1/2 integrates in closed form
    return (1.0 - 0.5 / gamma) + np.exp(-gamma * tau) / (2.0 * gamma)


class TestSolveFdt:
    def test_exponential_at_gamma_half(self):
        sol = solve_fdt(M23, 0.0, 0.5, 20.0, 0.005)
        assert np.abs(sol.c - np.exp(-0.5 * sol.tau)).max() < 3 * 0.005**2

    def test_constant_kernel_closed_form(self):
        sol = solve_fdt(M23, 0.0, 0.8, 20.0, 0.005)
        assert np.abs(sol.c - _const_kernel_solution(0.8, sol.tau)).max() < 1e-5

    def test_initial_values(self):
        sol = solve_fdt(M23, 0.4, 0.6, 5.0, 0.01)
        assert sol.c[0] == 1.0
        assert sol.cprime[0] == -0.5
        assert sol.r[0] == 1.0

    def test_plateau_reached(self):
        # far from the dynamical critical point the decay rate is order 1/2,
        # so forty time units land well inside the 1e-8 plateau window
        sol = solve_fdt(M23, 0.1, 0.5, 60.0, 0.01)
        assert sol.plateaued
        assert abs(sol.c[-1] - sol.c_inf) < 0.05

    def test_monotone_decreasing(self):
        sol = solve_fdt(M23, 0.3, 0.5, 10.0, 0.01)
        assert (np.diff(sol.c) < 1e-12).all()

    def test_grid_convergence_second_order(self):
        beta, gamma = 0.3, 0.6
        sols = {h: solve_fdt(M23, beta, gamma, 4.0, h) for h in (0.02, 0.01, 0.005)}
        d1 = np.abs(sols[0.02].c - sols[0.01].c[::2]).max()
        d2 = np.abs(sols[0.01].c - sols[0.005].c[::2]).max()
        assert d1 / d2 > 3.0

    def test_gamma_too_small_propagates(self):
        with pytest.raises(GammaTooSmallError):
            solve_fdt(M23, 0.2, 0.1, 5.0, 0.01)

    @pytest.mark.parametrize("changes, match", [
        ({"beta": math.nan}, "^beta must be finite"),
        ({"gamma": math.nan}, "^gamma must be finite"),
        ({"T_tau": math.nan}, "^T_tau must be finite"),
        ({"h_tau": math.nan}, "^h_tau must be finite"),
        ({"h_tau": 0.0}, "h_tau"), ({"T_tau": 1e300, "h_tau": 1e-300}, "h_tau"),
        ({"h_tau": 1e-320}, "h_tau"), ({"T_tau": 1e-12, "h_tau": 1.0}, "T_tau"),
        ({"T_tau": 1e300, "h_tau": 1.0}, "T_tau / h_tau"),
        ({"beta": True}, "^beta must be finite"), ({"gamma": "0.5"}, "^gamma must be finite"),
        ({"T_tau": True}, "^T_tau must be finite"),
    ], ids=["beta", "gamma", "T_tau", "h_tau", "zero-step", "ratio-overflow",
            "subnormal-step", "T-below-half-step", "unindexable-grid", "true-beta",
            "string-gamma", "true-T_tau"])
    def test_non_finite_argument_names_it(self, changes, match):
        kw = {"beta": 0.3, "gamma": 0.5, "T_tau": 1.0, "h_tau": 0.01, **changes}
        with pytest.raises(ConfigError, match=match):
            solve_fdt(M23, **kw)

    def test_kernel_overflow_names_the_fields(self):
        # 2 beta^2 nu'(1) overflows: refused before the plateau search
        with pytest.raises(ConfigError, match=r"beta = 1e\+200 and gamma = 0.5"):
            solve_fdt(M23, 1e200, 0.5, 1.0, 0.01)

    def test_non_finite_c_names_its_step(self):
        # a finite kernel near the float range overflows the memory integral
        with pytest.raises(BlowUpError, match=r"step \d+"):
            solve_fdt(Mixture.pure(2), -4e-307, 1.7976931348623157e308, 2.45, 0.05)

    def test_did_not_plateau_is_on_the_record(self):
        # a window shorter than the relaxation is reported, not warned of
        sol = solve_fdt(M23, 0.3, 0.5, 0.5, 0.005)
        assert not sol.plateaued
        assert abs(sol.c[-1] - sol.c_inf) > 10 * 0.005


class TestStationaryTwoTime:
    def _gibbs_lift(self):
        """A Gibbs start, its lift, and the oracle: solve_fdt at its gamma_star."""
        beta, T, h = 0.25, 2.0, 0.01
        ic = gibbs_init(M23, beta, 0.5, -1.0)
        sol = stationary_two_time(M23, ic, beta, T, h)
        fdt = solve_fdt(M23, beta, gamma_star(M23, beta, ic.q_star, ic.alpha), T, h)
        return ic, sol, fdt

    def test_structure(self):
        ic, sol, fdt = self._gibbs_lift()
        np.testing.assert_allclose(np.diagonal(sol.R), 1.0)
        np.testing.assert_allclose(sol.q, ic.q_o)
        np.testing.assert_allclose(sol.H, ic.E)
        np.testing.assert_allclose(sol.K, 1.0)
        assert sol.C[5, 2] == fdt.c[3]

    def test_C_is_stored_symmetric(self):
        _, sol, _ = self._gibbs_lift()
        assert np.array_equal(sol.C, sol.C.T)
        assert np.array_equal(sol.R, np.tril(sol.R))

    def test_equals_the_lag_matrix_lift_bit_for_bit(self):
        _, sol, fdt = self._gibbs_lift()
        idx = np.arange(len(fdt.c))
        lag = np.abs(idx[:, None] - idx[None, :])
        R = np.tril(-2.0 * fdt.cprime[lag])
        np.fill_diagonal(R, 1.0)
        assert sol.C.tobytes() == fdt.c[lag].tobytes()
        assert sol.R.tobytes() == R.tobytes()
        assert np.all(sol.mu == phi_gamma(M23, fdt.beta, fdt.gamma, 1.0))

    def test_lift_holds_only_its_result(self, alloc_peak):
        ic = gibbs_init(M23, 0.25, 0.5, -1.0)
        sol, peak = alloc_peak(lambda: stationary_two_time(M23, ic, 0.25, 2.0, 0.005))
        assert sol.n >= 300
        # C, R and the O(n) one-time arrays; the lag lift held three squares more
        assert peak - sol.C.nbytes - sol.R.nbytes < sol.C.nbytes

    @pytest.mark.filterwarnings("error")
    def test_lift_short_of_its_plateau_raises_no_warning(self):
        # every warning is an error here: the horizon is the caller's T, and
        # the curve's record says where it ended
        ic = gibbs_init(M23, 0.25, 0.5, -1.0)
        assert stationary_two_time(M23, ic, 0.25, 2.0, 0.01).n == 200

    def test_refuses_non_stationary_data(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the curve was solved")

        ic = gibbs_init(M23, 0.25, 0.5, -1.0)
        bad = InitCondition(ic.q_star, ic.E + 0.5, ic.E_star, ic.G_star, ic.q_o)
        monkeypatch.setattr(fdt_module, "solve_fdt", no_solve)
        with pytest.raises(ConfigError, match="not stationary"):
            stationary_two_time(M23, bad, 0.25, 2.0, 0.01)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_refuses_a_non_finite_beta(self, beta):
        ic = gibbs_init(M23, 0.25, 0.5, -1.0)
        with pytest.raises(ConfigError, match=r"^beta must be finite"):
            stationary_two_time(M23, ic, beta, 2.0, 0.01)

    def test_satisfies_two_time_equations(self):
        _, sol, _ = self._gibbs_lift()
        rep = residual(sol, M23)
        assert rep.sup_res_R < 5 * sol.h
        assert rep.sup_res_C < 5 * sol.h
        assert rep.sup_res_q < 5 * sol.h
        assert rep.sup_res_H < 5 * sol.h
        assert rep.sup_res_mu < 5 * sol.h

    def test_non_gibbs_data_lift_on_their_own_curve(self):
        # stationary data off the Gibbs line (alpha != q_star): their gamma_star
        # is 0.52751, and a curve at gamma = 1/2 missed the equations by 2.8e-2
        beta, h = 0.3, 0.01
        ic = InitCondition(0.8, 1.2400976911880763, 1.2690726440524653,
                           4.898220107602064, 0.3)
        assert check_stationary(ic, M23, beta).residual < 1e-13
        assert gamma_star(M23, beta, ic.q_star, ic.alpha) == pytest.approx(0.52751, abs=1e-5)
        sol = stationary_two_time(M23, ic, beta, 2.0, h)
        assert all(v < 5 * h for v in dataclasses.astuple(residual(sol, M23)))

    def test_rs_stationary_construction(self):
        beta = 0.25
        ic = InitCondition(0.0, 2 * beta * M23.nu(1.0))
        sol = stationary_two_time(M23, ic, beta, 2.0, 0.01)
        assert np.all(sol.L == 0.0)
        assert np.all(sol.mu == phi_gamma(M23, beta, 0.5, 1.0))
        rep = residual(sol, M23)
        assert max(rep.sup_res_C, rep.sup_res_R, rep.sup_res_H) < 0.05
