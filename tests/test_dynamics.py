"""Two-time solver: closed forms, invariants, kernels, variants."""

import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from glassdyn.dynamics import (
    EllRecord, SolverConfig, TwoTimeSolution, _Kernels, chi_rows, ell_limit_check,
    integrated_response, residual, solve_dynamics, sup_distance,
)
from glassdyn.errors import (
    BlowUpError, ConfigError, DomainError, PsdViolationWarning,
)
from glassdyn.init_params import InitCondition, gibbs_init, solve_w
from glassdyn.mixture import Mixture

M23 = Mixture({2: 1.0, 3: 1.0})
IC_GEN = InitCondition(0.8, 0.5, -0.3, 0.4, 0.35)


def _beta0_solution(T=2.0, h=0.01, ic=IC_GEN):
    return solve_dynamics(M23, ic, SolverConfig(beta=0.0, T=T, h=h))


def _free_solution(n, h=0.01):
    """The beta = 0 closed form C = e^{-|s-t|/2}, R = e^{-(s-t)/2} below the
    diagonal, built directly: a large solution at no solver cost."""
    s = np.arange(n + 1) * h
    lag = s[:, None] - s[None, :]
    return TwoTimeSolution(h, np.exp(-0.5 * np.abs(lag)), np.tril(np.exp(-0.5 * lag)),
                           np.zeros(n + 1), np.full(n + 1, 0.5), np.zeros(n + 1),
                           np.zeros(n + 1), 0.0, InitCondition(0.0, 0.3))


def _kernels_at(sol, i):
    """The kernels of the beta = 0 solution and the row state of slice i."""
    ker = _Kernels(M23, solve_w(IC_GEN, M23), sol)
    return ker, ker.row(i)


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
        np.testing.assert_allclose(sol.K, 1.0)
        assert sol.q[0] == IC_GEN.q_o
        assert sol.L[0] == 0.0
        assert np.triu(sol.R, 1).max() == 0.0

    def test_K_is_the_diagonal_of_C_and_not_stored(self):
        # variant 'f' solves the radius: it is C's diagonal, with no copy
        # that could disagree with it
        assert "K" not in [f.name for f in dataclasses.fields(TwoTimeSolution)]
        sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.3, T=0.5, h=0.01,
                                                       variant="f", ell=2.0))
        assert sol.K.max() > 1.0
        np.testing.assert_array_equal(sol.K, np.diagonal(sol.C))

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
        assert sol.gram_min_eig() >= -1e-6
        assert sol.cbar_gram_min_eig() >= -1e-6

    def test_overlap_bounded_by_qstar(self):
        sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.6, T=2.0, h=0.01))
        assert np.abs(sol.q).max() <= IC_GEN.q_star + 1e-9


class TestKernels:
    def test_beta0_drift_contributions_vanish(self):
        sol = _beta0_solution(T=0.5)
        ker, rw = _kernels_at(sol, 30)
        F_R, F_C, F_q = ker.rhs(30, rw)
        # with beta = 0 the drift terms A_C and A_q enter times an exact zero
        np.testing.assert_array_equal(F_C, -sol.mu[30] * sol.C[30, :31])
        assert F_q == -sol.mu[30] * sol.q[30]
        assert F_R[10] == pytest.approx(-sol.mu[30] * sol.R[30, 10])
        assert rw.L == pytest.approx(sol.L[30], abs=1e-12)

    def test_L_starts_at_zero(self):
        sol = _beta0_solution(T=0.5)
        ker, rw = _kernels_at(sol, 0)
        assert rw.L == 0.0
        assert ker.H_at(0, rw) == pytest.approx(
            IC_GEN.E, abs=1e-12)

    def test_solver_output_residual_small(self):
        cfg = SolverConfig(beta=0.5, T=1.0, h=0.01)
        sol = solve_dynamics(M23, IC_GEN, cfg)
        rep = residual(sol, M23)
        for v in (rep.sup_res_R, rep.sup_res_C, rep.sup_res_q, rep.sup_res_H):
            assert v < 5 * cfg.h

    def test_stored_L_that_disagrees_with_R_is_flagged(self):
        # residual must apply the stored L, not the one the row state takes
        # from R: a wrong L[k] shows in C, q, H and mu
        cfg = SolverConfig(beta=0.5, T=1.0, h=0.01)
        sol = solve_dynamics(M23, IC_GEN, cfg)
        base = residual(sol, M23)
        sol.L[50] += 0.1
        bad = residual(sol, M23)
        for name in ("sup_res_C", "sup_res_q", "sup_res_H", "sup_res_mu"):
            before = getattr(base, name)
            assert getattr(bad, name) > (100 * before if before > 0 else 1e-3), name

    @pytest.mark.parametrize("variant,ell", [("spherical", None), ("f", 20.0),
                                             ("gradflow", None)])
    def test_cold_row_equals_marching_row(self, monkeypatch, variant, ell):
        # the march refreshes one entry of the kernels' nu'(q) per row; new
        # kernels on the finished solution must rebuild the row state of the
        # march's last pass at every slice
        marched = {}
        row = _Kernels.row

        def recording(ker, a):
            marched[a] = rw = row(ker, a)
            return rw

        monkeypatch.setattr(_Kernels, "row", recording)
        cfg = SolverConfig(beta=0.5, T=0.5, h=0.01, variant=variant, ell=ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PsdViolationWarning)
            sol = solve_dynamics(M23, IC_GEN, cfg)
        monkeypatch.undo()
        ker = _Kernels(M23, solve_w(IC_GEN, M23), sol)
        assert sorted(marched) == list(range(sol.n + 1))
        for a, want in marched.items():
            got = ker.row(a)
            for name, value in zip(want._fields, want):
                if isinstance(value, np.ndarray):
                    np.testing.assert_array_equal(getattr(got, name), value)
                else:
                    assert getattr(got, name) == value, (a, name)

    def test_residual_checks_the_unit_diagonal_of_R(self):
        # the kernels take R(s, s) = 1 as given, so residual checks it itself;
        # no central difference reads the last diagonal entry
        cfg = SolverConfig(beta=0.3, T=0.5, h=0.01)
        sol = solve_dynamics(M23, IC_GEN, cfg)
        assert residual(sol, M23).sup_res_R < 5 * cfg.h
        sol.R[-1, -1] = 0.5
        assert residual(sol, M23).sup_res_R == 0.5

    def test_zeroed_solution_flagged_by_mu_bookkeeping(self):
        cfg = SolverConfig(beta=0.3, T=0.5, h=0.01)
        sol = solve_dynamics(M23, IC_GEN, cfg)
        n = sol.n
        zeros = TwoTimeSolution(sol.h, np.zeros_like(sol.C),
                                np.zeros_like(sol.R), np.zeros(n + 1),
                                np.zeros(n + 1), np.zeros(n + 1),
                                np.zeros(n + 1), sol.beta, sol.ic)
        rep = residual(zeros, M23)
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

    @pytest.mark.parametrize("variant,ell", [("spherical", None), ("f", 20.0),
                                             ("gradflow", None)])
    def test_tiny_q_star_is_the_rs_start(self, variant, ell):
        # InitCondition.is_rs decides RS-ness: q_star = 1e-200 is recorded as
        # 0 and runs the q_star = 0 solve, array for array and byte for byte
        cfg = SolverConfig(beta=0.5, T=0.5, h=0.01, variant=variant, ell=ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PsdViolationWarning)
            tiny = solve_dynamics(M23, InitCondition(1e-200, 0.3), cfg)
            zero = solve_dynamics(M23, InitCondition(0.0, 0.3), cfg)
        assert tiny.ic.q_star == 0.0
        for name in ("C", "R", "q", "K", "mu", "L", "H"):
            assert getattr(tiny, name).tobytes() == getattr(zero, name).tobytes(), name
        assert not np.any(tiny.L)

    def test_residual_of_a_tiny_q_star_start_is_the_rs_residual(self):
        # a solution that records q_star = 1e-200 records the RS start, so
        # its residual divides by no nu'(q_star^2) and matches q_star = 0
        cfg = SolverConfig(beta=0.5, T=0.5, h=0.01)
        sol = solve_dynamics(M23, InitCondition(0.0, 0.3), cfg)
        tiny = dataclasses.replace(sol, ic=InitCondition(1e-200, 0.3))
        assert residual(tiny, M23) == residual(sol, M23)

    @pytest.mark.parametrize("variant,ell", [("spherical", None), ("f", 20.0),
                                             ("gradflow", None)])
    def test_residual_reads_variant_from_the_solution(self, variant, ell):
        # residual takes beta, h, variant and ell from the solution itself
        cfg = SolverConfig(beta=0.5, T=0.5, h=0.01, variant=variant, ell=ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PsdViolationWarning)
            sol = solve_dynamics(M23, IC_GEN, cfg)
        assert sol.ell == ell and sol.variant == variant
        rep = residual(sol, M23)
        assert rep.sup_res_mu < 1e-12
        assert max(rep.sup_res_C, rep.sup_res_R, rep.sup_res_q) < 5 * cfg.h

    def test_ell_records_shrink(self):
        ic = gibbs_init(M23, 0.45, 0.5, -1.0)
        recs = ell_limit_check(M23, ic, 0.25, 1.0, 0.01, [10.0, 40.0])
        assert recs[0].sup_K_minus_1 > recs[1].sup_K_minus_1
        assert recs[0].dist_to_spherical > recs[1].dist_to_spherical
        assert isinstance(recs[0], EllRecord)

    def test_ell_check_holds_no_fifth_square(self, alloc_peak):
        # abs(sol.C - sph.C) held a fifth (n+1)^2 array beside the two
        # solutions (5.04 squares); two blocks of 64 rows add 0.43
        ic = gibbs_init(M23, 0.45, 0.5, -1.0)
        recs, peak = alloc_peak(lambda: ell_limit_check(M23, ic, 0.25, 3.0, 0.01, [10.0]))
        square = 301 ** 2 * 8
        assert peak < 4.75 * square
        assert recs[0].dist_to_spherical > 0.0

    def test_gradflow_runs_and_holds_sphere(self):
        # on this noise-free solve both Gram minimum eigenvalues dip to about
        # -1.6e-5, below the fixed 1e-6 tolerance, so both checks warn
        with pytest.warns(PsdViolationWarning):
            sol = solve_dynamics(M23, IC_GEN,
                                 SolverConfig(beta=1.0, T=1.0, h=0.01,
                                              variant="gradflow"))
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

    @pytest.mark.parametrize("field, changes", [
        ("beta", {"beta": math.nan}), ("T", {"T": math.nan}), ("h", {"h": math.nan}),
        ("beta", {"beta": math.inf}), ("T", {"T": math.inf}), ("h", {"h": math.inf}),
        ("h", {"h": 0.0}), ("h", {"T": 1e300, "h": 1e-300}), ("h", {"h": 1e-320}),
        ("T", {"T": 1e-12, "h": 1.0}), ("'ell'", {"ell": 5.0}),
        ("'ell'", {"variant": "gradflow", "ell": 5.0}),
    ], ids=["nan-beta", "nan-T", "nan-h", "inf-beta", "inf-T", "inf-h", "zero-step",
            "ratio-overflow", "subnormal-step", "T-below-half-step", "ell-spherical",
            "ell-gradflow"])
    def test_config_rejects_non_finite(self, field, changes):
        # the run grid and stiffness rules: a non-finite value, a grid that is
        # not a whole number n >= 1 of finite steps, or an unused ell
        args = {"beta": 0.3, "T": 1.0, "h": 0.01, **changes}
        with pytest.raises(ConfigError, match=field):
            SolverConfig(**args)

    @pytest.mark.parametrize("ell", [None, 0.0, -1.0, float("nan"), float("inf")])
    def test_f_variant_needs_finite_positive_ell(self, ell):
        with pytest.raises(ConfigError, match="ell"):
            SolverConfig(beta=0.3, T=1.0, h=0.01, variant="f", ell=ell)

    def test_radius_bound_left_by_a_later_row_raises(self):
        # variant 'f' lets K = C(s, s) grow past 1 (to 1.065 at s = 1 here);
        # with radius_bound^2 = 1.03 the early rows are inside the bound and
        # a later row leaves it
        m = Mixture({2: 1.0, 3: 1.0}, radius_bound=math.sqrt(1.03))
        early = solve_dynamics(m, IC_GEN, SolverConfig(beta=0.3, T=0.1, h=0.01,
                                                       variant="f", ell=2.0))
        assert 1.0 < early.K.max() <= 1.03
        with pytest.raises(DomainError, match="radius_bound"):
            solve_dynamics(m, IC_GEN, SolverConfig(beta=0.3, T=1.0, h=0.01,
                                                   variant="f", ell=2.0))

    def test_non_finite_state_stops_at_first_slice(self):
        # a NaN drift source makes row 1 NaN; the march must stop right there
        vf = solve_w(IC_GEN, M23)
        vf = dataclasses.replace(vf, w=np.full_like(vf.w, np.nan))
        with pytest.raises(BlowUpError, match="slice 1$"):
            solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.3, T=1.0, h=0.01), vf)


class TestStorage:
    """C is stored symmetric and R lower-triangular, by every variant."""

    @pytest.mark.parametrize("variant,ell", [("spherical", None), ("f", 20.0),
                                             ("gradflow", None)])
    @pytest.mark.parametrize("ic", [InitCondition(0.0, 0.3), IC_GEN],
                             ids=["rs", "band"])
    def test_solver_writes_both_halves_of_C(self, variant, ell, ic):
        cfg = SolverConfig(beta=0.5, T=0.5, h=0.01, variant=variant, ell=ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PsdViolationWarning)
            sol = solve_dynamics(M23, ic, cfg)
        assert np.array_equal(sol.C, sol.C.T)
        assert np.array_equal(sol.R, np.tril(sol.R))

    def test_lower_only_C_is_refused(self):
        sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.3, T=0.2, h=0.01))
        with pytest.raises(ConfigError, match="C"):
            dataclasses.replace(sol, C=np.tril(sol.C))

    # the check compares blocks of 64 rows: 201 rows end in a partial block
    @pytest.mark.parametrize("i,j", [(200, 3), (3, 200), (195, 199)])
    def test_one_asymmetric_entry_in_the_last_block_is_refused(self, i, j):
        sol = _free_solution(200)
        C = sol.C.copy()
        C[i, j] = np.nextafter(C[i, j], 2.0)
        with pytest.raises(ConfigError, match="C"):
            dataclasses.replace(sol, C=C)

    @pytest.mark.parametrize("i,j", [(0, 0), (130, 7), (200, 200)])
    def test_a_single_nan_is_refused(self, i, j):
        sol = _free_solution(200)
        C = sol.C.copy()
        C[i, j] = np.nan
        with pytest.raises(ConfigError, match="C"):
            dataclasses.replace(sol, C=C)

    @pytest.mark.parametrize("shape", [(201, 200), (200, 201), (201,)])
    def test_non_square_C_is_refused(self, shape):
        sol = _free_solution(200)
        with pytest.raises(ConfigError, match="C"):
            dataclasses.replace(sol, C=np.zeros(shape))

    def test_symmetry_check_holds_no_square_array(self, alloc_peak):
        # the whole-array C == C.T held an (n+1)^2 bool array
        sol = _free_solution(600)
        _, peak = alloc_peak(sol._check_symmetric)
        assert peak < (sol.n + 1) ** 2

    def test_subgrid_drops_repeats_in_order(self):
        for n in (0, 1, 5, 29, 30, 31, 100, 901):
            idx = _free_solution(n)._subgrid()
            expect = np.unique(np.linspace(0, n, 30).round().astype(int))
            assert idx.tolist() == expect.tolist()

    def test_solve_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, 13 ms in each process
        code = ("import sys\n"
                "from glassdyn.dynamics import SolverConfig, solve_dynamics\n"
                "from glassdyn.init_params import InitCondition\n"
                "from glassdyn.mixture import Mixture\n"
                "solve_dynamics(Mixture({2: 1.0, 3: 1.0}), "
                "InitCondition(0.8, 0.5, -0.3, 0.4, 0.35), SolverConfig(0.5, 0.2, 0.01))\n"
                "print('numpy.ma' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert res.stdout.strip() == "False"



class TestSupDistance:
    @pytest.mark.parametrize("shape", [(1,), (63, 5), (64, 3), (65, 7), (201, 201)])
    def test_equals_the_whole_array_max(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert sup_distance(a, b) == float(np.abs(a - b).max())
        assert sup_distance(a, a) == 0.0

    @pytest.mark.parametrize("i", [0, 63, 64, 200])
    def test_a_nan_in_any_block_is_nan(self, i):
        a, b = np.zeros((201, 3)), np.ones((201, 3))
        a[i, 1] = np.nan
        assert math.isnan(sup_distance(a, b))

    def test_holds_two_blocks(self, alloc_peak):
        # a - b and its abs, 64 rows each; the whole-array form held 2 x 600 rows
        a, b = np.zeros((600, 601)), np.ones((600, 601))
        d, peak = alloc_peak(lambda: sup_distance(a, b))
        assert d == 1.0
        assert peak < 2 * 65 * 601 * 8


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

    def test_matches_the_per_row_loop(self):
        def per_row(sol):
            """The per-row loop the masked cumulative sum replaced: the oracle."""
            n, h = sol.n, sol.h
            chi = np.zeros((n + 1, n + 1))
            for i in range(n + 1):
                r = sol.R[i, : i + 1]
                cs = np.concatenate(([0.0], np.cumsum(0.5 * h * (r[:-1] + r[1:]))))
                chi[i, : i + 1] = cs
                chi[i, i + 1:] = cs[-1]
            return chi

        for sol in (_beta0_solution(T=1.0),
                    solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.5, T=1.0, h=0.01))):
            np.testing.assert_array_equal(integrated_response(sol), per_row(sol))

    def test_equals_the_masked_cumulative_sum_bit_for_bit(self):
        def masked(sol):
            """The whole-array form this row loop replaced: four (n+1)^2
            temporaries, the same sums in the same order."""
            R = sol.R
            chi = np.zeros_like(R)
            chi[:, 1:] = np.cumsum(np.tril(0.5 * sol.h * (R[:, :-1] + R[:, 1:]), -1),
                                   axis=1)
            return chi

        for sol in (_free_solution(120),
                    solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.5, T=1.0, h=0.01))):
            chi = integrated_response(sol)
            assert chi.tobytes() == masked(sol).tobytes()
            for r, m in ((1, 101), (5, 21), (7, 15), (1, 1)):
                for a, row in enumerate(chi_rows(sol, r, m)):
                    assert row.tobytes() == chi[a * r, : m * r: r].tobytes()

    def test_allocates_only_its_output(self, alloc_peak):
        sol = _free_solution(300)
        chi, peak = alloc_peak(lambda: integrated_response(sol))
        # the output, one scratch row and a few KiB of interpreter objects;
        # the masked form held four more arrays of the output's size
        assert peak - chi.nbytes < 32 * 1024

    def test_flat_beyond_diagonal(self):
        sol = _beta0_solution(T=1.0)
        chi = integrated_response(sol)
        assert chi[10, 10] == chi[10, 50] == chi[10, -1]
