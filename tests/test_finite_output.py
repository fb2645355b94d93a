"""Each solver returns finite output or raises a GlassdynError, on any input.

The inputs are not narrowed to the cases that pass: any finite beta, gamma
and conditioning values, mixtures over {2, 3, 4} with weights over six
decades, and RS, band and band-edge starts.  Huge finite values overflow on
the way to the error; those numpy, PSD, plateau and rank-deficiency warnings
are expected and silenced.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glassdyn.dynamics import SolverConfig, solve_dynamics
from glassdyn.errors import GlassdynError
from glassdyn.fdt import solve_fdt
from glassdyn.hamiltonian import ConditioningSpec, conditioned_field, sample_system
from glassdyn.init_params import InitCondition
from glassdyn.langevin import LangevinConfig, integrate_ensemble
from glassdyn.mixture import Mixture

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mixtures(draw):
    powers = draw(st.sets(st.sampled_from([2, 3, 4]), min_size=1), label="powers")
    return Mixture({p: draw(st.floats(1e-3, 1e3), label=f"b{p}")
                    for p in sorted(powers)})


@st.composite
def starts(draw):
    """InitCondition arguments of an RS, band or band-edge start, V finite.

    RS draws take q_star in [0, 1e-12), so tiny nonzero values meet the
    is_rs decision too.
    """
    kind = draw(st.sampled_from(["rs", "band", "edge"]), label="kind")
    E = draw(FINITE, label="E")
    if kind == "rs":
        return draw(st.floats(0.0, 1e-12, exclude_max=True), label="q_star"), E
    q_star = draw(st.floats(0.0, 1.0), label="q_star")
    if kind == "edge":
        q_o = draw(st.sampled_from([-1.0, 1.0]), label="sign") * q_star
    else:
        q_o = draw(st.floats(-q_star, q_star), label="q_o")
    E_star, G_star = (draw(FINITE, label=k) for k in ("E_star", "G_star"))
    return q_star, E, E_star, G_star, q_o


class TestFiniteOutputProperty:
    @pytest.fixture(autouse=True)
    def _quiet(self):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield

    @settings(max_examples=300, deadline=None)
    @given(mixtures(), starts(), FINITE, st.integers(1, 8), st.floats(1e-3, 1.0),
           st.sampled_from(["spherical", "f", "gradflow"]), st.floats(1e-3, 1e3))
    def test_solve_dynamics(self, m, start, beta, n, h, variant, ell):
        try:
            cfg = SolverConfig(beta, n * h, h, variant,
                               ell if variant == "f" else None)
            sol = solve_dynamics(m, InitCondition(*start), cfg)
        except GlassdynError:
            return
        for name in ("C", "R", "q", "K", "mu", "L", "H"):
            assert np.isfinite(getattr(sol, name)).all(), name

    @settings(max_examples=200, deadline=None)
    @given(mixtures(), FINITE, FINITE, st.integers(1, 60), st.floats(1e-3, 1.0))
    def test_solve_fdt(self, m, beta, gamma, n, h):
        try:
            sol = solve_fdt(m, beta, gamma, n * h, h)
        except GlassdynError:
            return
        assert np.isfinite(sol.c).all() and np.isfinite(sol.cprime).all()
        assert np.isfinite(sol.c_inf)

    @settings(max_examples=100, deadline=None)
    @given(mixtures(), starts(), FINITE, st.integers(1, 8), st.integers(1, 3),
           st.floats(1e-3, 0.5), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from(["spherical", "fconfined"]), st.floats(1e-3, 1e3),
           st.integers(0, 2**32 - 1))
    def test_integrate_ensemble(self, m, start, beta, N, n_obs, h_obs, substeps,
                                paths, variant, ell, seed):
        try:
            ic = InitCondition(*start)
            spec = ConditioningSpec(ic, N, seed)
            f = conditioned_field(sample_system(m, N, seed), spec)
            cfg = LangevinConfig(beta, n_obs * h_obs, h_obs, substeps, variant,
                                 ell if variant == "fconfined" else None)
            trajs = integrate_ensemble(f, spec.x_0, cfg, paths, seed + 1)
        except GlassdynError:
            return
        for t in trajs:
            assert np.isfinite(t.x).all() and np.isfinite(t.B).all()
