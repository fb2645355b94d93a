"""Two-time dynamics of spherical mixed p-spin glasses with conditioned starts.

Library layout, one module per concern:

- mixture:     the covariance polynomial nu and all scalar functions of it
- phase:       critical temperatures and long-time plateau levels
- init_params: conditioning data (q_star, V) -> weights and the drift source
- fdt:         the stationary scalar relaxation equation
- dynamics:    the causal two-time correlation/response solver
- hamiltonian: finite-N Gaussian fields and exact conditioning
- langevin:    finite-N SDE paths in one record, observables, one scoring pass
- acceptance:  the thirteen-criterion release gate
- cli:         reproducible command-line front end
"""

__version__ = "0.1.0"

from .mixture import Mixture, effective_mixture, g_beta, phi_gamma
from .phase import beta_c_dyn, beta_c_stat, c_inf, classify, q_d
from .init_params import (
    InitCondition, VFunction, check_stationary, gamma_star, gibbs_init,
    sigma_nu, solve_w,
)
from .fdt import FdtSolution, solve_fdt, stationary_two_time
from .dynamics import (
    SolverConfig, TwoTimeSolution, ell_limit_check, residual, solve_dynamics,
)
from .hamiltonian import (
    ConditioningSpec, SpinSystem, conditioned_field, sample_band_point,
    sample_system,
)
from .langevin import (
    LangevinConfig, error_functional, integrate_ensemble, observables,
    rotation_invariance_test, score,
)

__all__ = [
    "Mixture", "effective_mixture", "g_beta", "phi_gamma",
    "beta_c_dyn", "beta_c_stat", "c_inf", "classify", "q_d",
    "InitCondition", "VFunction", "check_stationary", "gamma_star",
    "gibbs_init", "sigma_nu", "solve_w",
    "FdtSolution", "solve_fdt", "stationary_two_time",
    "SolverConfig", "TwoTimeSolution", "ell_limit_check", "residual",
    "solve_dynamics",
    "ConditioningSpec", "SpinSystem", "conditioned_field",
    "sample_band_point", "sample_system",
    "LangevinConfig", "error_functional", "integrate_ensemble",
    "observables", "rotation_invariance_test", "score",
]
