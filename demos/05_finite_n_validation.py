"""Finite-N Langevin paths against the limit dynamics (desk-scale table).

Draws one disorder realization conditioned on the start energy, runs a small
ensemble of Brownian paths on the sphere, and scores the empirical
observables against the limit solve.  The per-path metric carries the
O(1/sqrt(N)) fluctuation floor; the path-averaged one exposes the
finite-size bias shrinking with N.  Uses small sizes so the demo stays quick;
the acceptance suite runs the full N = 100/200/400 table.
"""

import time

from glassdyn import (
    ConditioningSpec, LangevinConfig, Mixture, SolverConfig, gibbs_init,
    integrate_ensemble, observables, sample_system, solve_dynamics,
)
from glassdyn.hamiltonian import conditioned_field
from glassdyn.langevin import average_error, ensemble_error

m = Mixture({2: 1.0, 3: 0.1})
beta, beta0, T = 0.3, 0.2, 2.0
ic = gibbs_init(m, beta0, 0.0)          # high-temperature start: E = 2 b0 nu(1)
print(f"start energy E = {ic.E} (equilibrium value at beta0 = {beta0})")

sol = solve_dynamics(m, ic, SolverConfig(beta=beta, T=T, h=0.01))
cfg = LangevinConfig(beta=beta, T=T, h_obs=0.02, substeps=5)

print("\n  N    per-path err   averaged err   seconds")
for N in (50, 100, 200):
    t0 = time.time()
    sysN = sample_system(m, N, seed=50 + N)
    spec = ConditioningSpec(ic, N, seed=60 + N)
    field = conditioned_field(sysN, spec)
    trajs = integrate_ensemble(field, spec.x_0, cfg, n_paths=8, master_seed=70 + N)
    obs = observables(trajs, field, spec.x_star)
    per_path, _ = average_error(obs, sol, T)
    averaged = ensemble_error(obs, sol, T)
    print(f"{N:5d}   {per_path:10.4f}   {averaged:12.4f}   {time.time() - t0:7.1f}")

print("\nthe conditioned field pins the start energy exactly:")
print(f"  H_N(0) = {obs[0].H[0]:.12f} vs E = {ic.E}")
