"""Conditioning algebra: covariance matrix, weight solves, stationarity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glassdyn.errors import (
    ConfigError, DomainError, GlassdynError, NoRootError, SingularMatrixError,
)
from glassdyn.hamiltonian import ConditioningSpec, conditional_mean
from glassdyn.init_params import (
    InitCondition, check_stationary, fdt_regime_residual, gamma_star,
    gibbs_init, pure_p_localized, sigma_nu, solve_w,
)
from glassdyn.mixture import Mixture, g_beta
from glassdyn.phase import c_inf

M23 = Mixture({2: 1.0, 3: 1.0})


class TestInitConditionValidation:
    @pytest.mark.parametrize("name", ["E", "E_star", "G_star", "q_o"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_field_names_it(self, name, bad):
        kw = {"q_star": 0.8, "E": 0.5, "E_star": -0.3, "G_star": 0.4, "q_o": 0.35}
        kw[name] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            InitCondition(**kw)

    @pytest.mark.parametrize("name", ["q_star", "E", "E_star", "G_star", "q_o"])
    @pytest.mark.parametrize("bad", [True, np.bool_(True), "0.5"])
    def test_bool_or_string_field_names_it(self, name, bad):
        kw = {"q_star": 0.8, "E": 0.5, "E_star": -0.3, "G_star": 0.4, "q_o": 0.35}
        kw[name] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            InitCondition(**kw)

    def test_true_q_star_is_refused(self):
        # it was stored as q_star = True and solved from q_star = 1
        with pytest.raises(ConfigError, match="^q_star must be finite"):
            InitCondition(True, 0.5)

    def test_fields_are_stored_as_floats(self):
        ic = InitCondition(np.float32(0.5), 1, np.int64(0), 0, np.float64(0.25))
        assert all(type(getattr(ic, name)) is float
                   for name in ("q_star", "E", "E_star", "G_star", "q_o"))


    def test_small_q_star_band_is_not_its_edge(self):
        # an absolute test on |q_star - |q_o|| called this a band edge
        ic = InitCondition(2e-12, 0.3, 0.0, 0.0, 1.5e-12)
        assert ic.alpha == 0.75
        assert not ic.is_degenerate
        assert ic.branch(M23) == "generic"

    @pytest.mark.parametrize("q_star,q_o", [(0.5, -0.5), (0.5, 0.5 * (1 + 5e-13)),
                                            (2e-12, 2e-12 * (1 - 5e-13))])
    def test_edge_within_tolerance_of_alpha_one(self, q_star, q_o):
        assert InitCondition(q_star, 0.3, 0.0, 0.0, q_o).is_degenerate

    @pytest.mark.parametrize("q_star,q_o", [(2e-12, 2.5e-12), (0.5, -0.5 * (1 + 3e-12))])
    def test_alpha_beyond_one_is_refused(self, q_star, q_o):
        with pytest.raises(ConfigError, match="q_o"):
            InitCondition(q_star, 0.3, 0.0, 0.0, q_o)
        with pytest.raises(ConfigError, match="q_o"):
            sigma_nu(M23, q_star, q_o)


class TestSigmaNu:
    def test_example_matrix(self):
        expect = np.array([[2, 0, 0, 0], [0, 2, 5, 0], [0, 5, 13, 0], [0, 0, 0, 5]],
                          dtype=float)
        np.testing.assert_allclose(sigma_nu(M23, 1.0, 0.0), expect, atol=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            qs = rng.uniform(0.2, 1.0)
            qo = rng.uniform(-qs, qs)
            s = sigma_nu(M23, qs, qo)
            np.testing.assert_allclose(s, s.T, atol=1e-14)

    def test_positive_definite_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = Mixture({2: rng.uniform(0.1, 2), 3: rng.uniform(0.1, 2),
                         4: rng.uniform(0.1, 2)})
            for qs in (0.3, 0.7, 1.0):
                for qo in np.linspace(-0.95, 0.95, 21):
                    if abs(qo) > qs:
                        continue
                    eig = np.linalg.eigvalsh(sigma_nu(m, qs, qo))[0]
                    assert eig > 0.0


class TestSolveW:
    def test_block_solve_example(self):
        ic = InitCondition(1.0, 1.0, 0.7, 0.9, 0.0)
        vf = solve_w(ic, M23)
        np.testing.assert_allclose(vf.w, [0.5, 4.6, -1.7, 0.0], atol=1e-12)

    def test_defining_equation_reproduced(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            qs = rng.uniform(0.3, 1.0)
            qo = rng.uniform(-qs * 0.9, qs * 0.9)
            ic = InitCondition(qs, rng.normal(), rng.normal(), rng.normal(), qo)
            vf = solve_w(ic, M23)
            sigma = sigma_nu(M23, qs, qo)
            np.testing.assert_allclose(sigma @ vf.w, [ic.E, ic.E_star, ic.G_star, 0.0],
                                       atol=1e-10)

    def test_rs_zero_energy_gives_zero_v(self):
        vf = solve_w(InitCondition(0.0, 0.0), M23)
        assert vf.v(0.0, 0.7) == 0.0
        assert vf.vy(0.0, 0.7) == 0.0

    def test_rs_branch_formula(self):
        vf = solve_w(InitCondition(0.0, 1.3), M23)
        assert vf.v(0.0, 0.5) == pytest.approx(1.3 * M23.nu(0.5) / M23.nu(1.0))

    def test_pure_branch_forces_w3_zero(self):
        p3 = Mixture.pure(3)
        qs, Es = 0.8, -0.4
        ic = InitCondition(qs, 0.7, Es, 3 * Es / qs**2, 0.3)
        vf = solve_w(ic, p3)
        assert vf.w[2] == 0.0
        assert vf.v(ic.q_o, 1.0) == pytest.approx(ic.E, abs=1e-10)
        assert vf.v(qs**2, ic.q_o) == pytest.approx(ic.E_star, abs=1e-10)

    def test_pure_branch_rejects_inconsistent_g(self):
        p3 = Mixture.pure(3)
        with pytest.raises(ConfigError):
            solve_w(InitCondition(0.8, 0.7, -0.4, 1.0, 0.3), p3)

    def test_pure_degenerate_monomial(self):
        p3 = Mixture.pure(3)
        qs, E = 0.8, 0.5
        qo = qs
        Es = E * qo**3
        ic = InitCondition(qs, E, Es, 3 * Es / qs**2, qo)
        vf = solve_w(ic, p3)
        assert vf.v(0.3, 0.6) == pytest.approx(E * 0.6**3)

    def test_degenerate_nonpure_w4_zero(self):
        # three active powers keep the on-ray data unconstrained
        m = Mixture({2: 1.0, 3: 1.0, 4: 1.0})
        ic = InitCondition(0.6, 0.4, -0.2, 0.3, 0.6)
        vf = solve_w(ic, m)
        assert vf.w[3] == 0.0
        assert vf.v(ic.q_star**2, ic.q_o) == pytest.approx(ic.E_star, abs=1e-10)
        # on the degenerate band the start point sits on the axis ray, so the
        # radial identity couples both partial derivatives
        qs2 = ic.q_star**2
        combined = (vf.vx(qs2, ic.q_o)
                    + ic.q_o / qs2 * vf.vy(qs2, ic.q_o))
        assert combined == pytest.approx(ic.G_star, abs=1e-10)

    def test_degenerate_two_power_mixture_needs_consistent_data(self):
        # on the degenerate band a two-power mixture spans only two on-ray
        # degrees of freedom, so arbitrary (E, E_star, G_star) is rejected
        with pytest.raises(SingularMatrixError):
            with pytest.warns(UserWarning):
                solve_w(InitCondition(0.6, 0.4, -0.2, 0.3, 0.6), M23)

    def test_values_beyond_double_precision_raise(self):
        # at q_star = 1e-6 Sigma's condition number is about 1e36, so
        # E_star = 1e300 cannot be met; a sum-of-squares residual overflows
        # to inf and would let a w that ignores E_star through
        ic = InitCondition(1e-6, 0.5, 1e300, 0.0, 0.0)
        with pytest.raises(SingularMatrixError), pytest.warns(UserWarning):
            solve_w(ic, M23)
        # p E_star / q_star^2 overflows: no finite G_star matches it
        with pytest.raises(ConfigError, match="G_star"):
            solve_w(ic, Mixture.pure(3))

    def test_degenerate_hint_only_on_the_degenerate_branch(self):
        # the hint names the degenerate band's constraint; a generic start
        # whose data exceed double precision fails for another reason
        hint = "on a degenerate band"
        with pytest.raises(SingularMatrixError) as err, pytest.warns(UserWarning):
            solve_w(InitCondition(1e-6, 0.5, 1e300, 0.0, 0.0), M23)
        assert hint not in str(err.value)
        with pytest.raises(SingularMatrixError, match=hint), pytest.warns(UserWarning):
            solve_w(InitCondition(0.6, 0.3, 0.1, 0.5, 0.6), M23)

    def test_qo_one_singular(self):
        ic = InitCondition(1.0, 0.5, 0.5, 0.3, 1.0)
        with pytest.raises(SingularMatrixError):
            solve_w(ic, M23)


class TestVEval:
    def test_interpolation_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            qs = rng.uniform(0.3, 0.95)
            qo = rng.uniform(-qs * 0.9, qs * 0.9)
            ic = InitCondition(qs, rng.normal(), rng.normal(), rng.normal(), qo)
            vf = solve_w(ic, M23)
            assert vf.v(qo, 1.0) == pytest.approx(ic.E, abs=1e-9)
            assert vf.v(qs**2, qo) == pytest.approx(ic.E_star, abs=1e-9)
            assert vf.vx(qs**2, qo) == pytest.approx(ic.G_star, abs=1e-9)
            assert vf.vy(qs**2, qo) == pytest.approx(0.0, abs=1e-9)

    def test_partials_match_finite_differences(self):
        ic = InitCondition(0.8, 0.6, -0.3, 0.4, 0.35)
        vf = solve_w(ic, M23)
        eps = 1e-6
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = rng.uniform(-0.6, 0.6, 2)
            fx = (vf.v(x + eps, y) - vf.v(x - eps, y)) / (2 * eps)
            fy = (vf.v(x, y + eps) - vf.v(x, y - eps)) / (2 * eps)
            assert vf.vx(x, y) == pytest.approx(fx, rel=1e-6, abs=1e-6)
            assert vf.vy(x, y) == pytest.approx(fy, rel=1e-6, abs=1e-6)

    def test_even_mixture_reflection(self):
        meven = Mixture({2: 1.0, 4: 0.7})
        qs = 0.8
        ic_p = InitCondition(qs, 0.5, -0.2, 0.3, 0.4)
        ic_m = InitCondition(qs, 0.5, -0.2, 0.3, -0.4)
        vp, vm = solve_w(ic_p, meven), solve_w(ic_m, meven)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.uniform(-0.7, 0.7, 2)
            assert vm.v(-x, y) == pytest.approx(vp.v(x, y), abs=1e-12)


class TestGibbsInit:
    def test_rs_energy(self):
        ic = gibbs_init(M23, 0.2, 0.0)
        assert ic.q_star == 0.0 and ic.E == pytest.approx(0.8)

    def test_rsb_geometry(self):
        ic = gibbs_init(M23, 1.0, 0.5, -1.0)
        assert ic.q_star == pytest.approx(math.sqrt(0.5))
        assert ic.q_o == 0.5

    def test_g_star_value(self):
        ic = gibbs_init(M23, 1.0, 0.5, -1.0)
        assert ic.G_star == pytest.approx(6.0)

    def test_energy_shift(self):
        ic = gibbs_init(M23, 1.0, 0.5, -1.0)
        assert ic.E == pytest.approx(-1.0 + 2.0 * M23.theta(0.5))

    def test_zero_beta0_below_the_transition_is_config_error(self):
        with pytest.raises(ConfigError, match="beta0"):
            gibbs_init(M23, 0.0, 0.5, -1.0)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 0.0), "beta0"), ((math.inf, 0.5, -1.0), "beta0"),
        ((True, 0.5, -1.0), "beta0"), ((0.5, math.nan), "q_EA"), ((0.5, "0.5"), "q_EA"),
        ((0.5, 0.5, math.nan), "GS"), ((0.5, 0.5, True), "GS"),
    ])
    def test_bad_real_names_its_argument(self, args, name):
        # a NaN beta0 on the high-temperature branch was reported as E = nan
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            gibbs_init(M23, *args)


class TestGammaStar:
    def test_alpha_zero(self):
        assert gamma_star(M23, 0.7, 0.8, 0.0) == pytest.approx(0.5)

    def test_alpha_at_qstar_identity(self):
        beta, qs = 0.6, 0.75
        val = gamma_star(M23, beta, qs, qs)
        assert val == pytest.approx(0.5 - g_beta(M23, beta, qs**2, 1), abs=1e-12)

    def test_matches_band_parameter(self):
        beta, qb = 0.6, 0.5
        qs = math.sqrt(qb)
        expect = 0.5 / (1 - qb) - 2 * beta**2 * M23.nu(qb, 1)
        assert gamma_star(M23, beta, qs, qs) == pytest.approx(expect, abs=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(DomainError):
            gamma_star(M23, 0.5, 0.8, 1.0)

    def test_rs_start_is_exactly_one_half(self):
        # nu'(0)^2 / nu'(0) was 0 / 0 here
        assert gamma_star(M23, 0.4, 0.0, 0.0) == 0.5

    def test_band_angle_without_a_band_rejected(self):
        with pytest.raises(DomainError, match="alpha = 0 at q_star = 0"):
            gamma_star(M23, 0.4, 0.0, 0.5)


class TestCheckStationary:
    def test_gibbs_line_admissible(self):
        ic = gibbs_init(M23, 0.9, 0.5, -1.0)
        rep = check_stationary(ic, M23, 0.9)
        assert rep.admissible and rep.residual < 1e-10

    def test_off_line_not_admissible(self):
        ic = gibbs_init(M23, 0.9, 0.5, -1.0)
        rep = check_stationary(ic, M23, 1.2)
        assert not rep.admissible and rep.residual > 1e-4

    def test_zero_beta_with_q_star_is_config_error(self):
        with pytest.raises(ConfigError, match="beta"):
            check_stationary(gibbs_init(M23, 0.9, 0.5, -1.0), M23, 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, True, "0.5"])
    @pytest.mark.parametrize("ic", [InitCondition(0.0, 0.3),
                                    InitCondition(0.8, 0.5, -0.3, 0.4, 0.35)],
                             ids=["rs", "band"])
    def test_non_finite_beta_is_config_error(self, ic, beta):
        # it overflowed the constraints (band) or the residual (RS) instead
        with pytest.raises(ConfigError, match=r"^beta must be finite"):
            check_stationary(ic, M23, beta)

    def test_rs_cases(self):
        beta = 0.4
        good = InitCondition(0.0, 2 * beta * M23.nu(1.0))
        assert check_stationary(good, M23, beta).admissible
        assert not check_stationary(InitCondition(0.0, 0.0), M23, beta).admissible


class TestFdtRegime:
    def test_stationary_data_zero_residual(self):
        # fast-relaxation configuration: c_inf = q_o exactly
        beta = 0.2236
        ic = gibbs_init(M23, beta, 0.5, -1.0)
        gam = gamma_star(M23, beta, ic.q_star, ic.q_star)
        ci = c_inf(M23, beta, gam)
        rep = fdt_regime_residual(M23, beta, ic, ic.q_star, ic.q_star, ci)
        assert rep.res_new24 < 1e-7
        assert rep.psd_ok

    def test_equality_case_of_psd_bound(self):
        beta = 0.2236
        ic = gibbs_init(M23, beta, 0.5, -1.0)
        rep = fdt_regime_residual(M23, beta, ic, 0.3, 0.3, 0.09)
        assert rep.psd_ok

    def test_violations_exist(self):
        beta = 0.2236
        ic = gibbs_init(M23, beta, 0.5, -1.0)
        rng = np.random.default_rng(6)
        found = False
        for _ in range(50):
            a, ah = rng.uniform(-0.9, 0.9, 2)
            ciw = rng.uniform(0.0, max(a**2 - 0.01, 0.005))
            found |= not fdt_regime_residual(M23, beta, ic, a, ah, ciw).psd_ok
        assert found


class TestPurePLocalized:
    def test_roots_satisfy_equation(self):
        p3 = Mixture.pure(3)
        beta, qc = 1.2, 0.6
        rec = pure_p_localized(p3, beta, qc, -1.0)
        rhs = math.sqrt(2 * (1 - qc))
        for q in (rec.q_minus, rec.q_beta):
            assert 2 * beta * math.sqrt(p3.nu(q, 2)) * (1 - q) == pytest.approx(
                rhs, abs=1e-10)

    def test_root_ordering(self):
        rec = pure_p_localized(Mixture.pure(3), 1.2, 0.6, -1.0)
        assert rec.q_minus < 1.0 / 3.0 < rec.q_beta < 1.0

    def test_h_inf_formula(self):
        p3 = Mixture.pure(3)
        rec = pure_p_localized(p3, 1.2, 0.6, -0.7)
        assert rec.H_inf == pytest.approx(-0.7 + 2 * 1.2 * p3.theta(rec.q_beta))

    def test_no_root_when_beta_small(self):
        with pytest.raises(NoRootError):
            pure_p_localized(Mixture.pure(3), 0.05, 0.6, -1.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mixtures(draw):
    powers = draw(st.sets(st.sampled_from([2, 3, 4]), min_size=1), label="powers")
    return Mixture({p: draw(st.floats(1e-3, 1e3), label=f"b{p}")
                    for p in sorted(powers)})


@st.composite
def conditioning_data(draw):
    """(m, q_star, E, E_star, G_star, q_o) with |q_o| <= q_star and finite V.

    For a pure model, some draws take G_star (and, on the band edge, E_star)
    from the model's identities, so the reduced solves run too.
    """
    m = draw(mixtures())
    q_star = draw(st.floats(0.0, 1.0), label="q_star")
    q_o = draw(st.floats(-q_star, q_star), label="q_o")
    E, E_star, G_star = (draw(FINITE, label=k) for k in ("E", "E_star", "G_star"))
    if m.is_pure() and draw(st.booleans(), label="consistent"):
        if abs(q_o) == q_star:
            E_star = E * q_o**m.p_max
        with np.errstate(all="ignore"):
            G_star = float(np.divide(m.p_max * E_star, q_star**2))
    return m, q_star, E, E_star, G_star, q_o


class TestConditioningProperty:
    """Finite output or a GlassdynError, over the whole admissible input range.

    Huge finite values overflow on the way to the error; those numpy and
    rank-deficiency warnings are expected and silenced.
    """

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield

    @settings(max_examples=300, deadline=None)
    @given(conditioning_data())
    def test_solve_w(self, data):
        m, *values = data
        try:
            vf = solve_w(InitCondition(*values), m)
        except GlassdynError:
            return
        assert np.isfinite(vf.w).all()

    @settings(max_examples=150, deadline=None)
    @given(conditioning_data(), st.integers(0, 2**32 - 1))
    def test_conditional_mean(self, data, seed):
        m, *values = data
        N = 6
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((4, N))
        X *= math.sqrt(N) / np.linalg.norm(X, axis=1)[:, None]
        try:
            ic = InitCondition(*values)
            spec = ConditioningSpec(ic, N, seed)
            Vhat = [ic.E, ic.E_star, ic.G_star, 0.0]
            out = [conditional_mean(spec, m, Vhat, None, np.vstack([spec.x_0, X]), what)
                   for what in ("value", "gradient")]
        except GlassdynError:
            return
        assert all(np.isfinite(o).all() for o in out)

    @settings(max_examples=300, deadline=None)
    @given(mixtures(), FINITE, st.floats(0.0, 1.0, exclude_max=True), FINITE,
           st.data())
    def test_gibbs_init_and_check_stationary(self, m, beta0, q_EA, GS, data):
        beta = data.draw(st.one_of(st.just(beta0), FINITE), label="beta")
        try:
            ic = gibbs_init(m, beta0, q_EA, GS)
            rep = check_stationary(ic, m, beta)
        except GlassdynError:
            return
        # the band edge is never stationary, and says so with residual inf
        assert math.isfinite(rep.residual) or (
            rep.residual == math.inf and abs(ic.alpha) >= 1.0 and not rep.admissible)
