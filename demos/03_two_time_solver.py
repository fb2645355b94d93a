"""Two-time dynamics from an equilibrium start: on and off the matched line.

An equilibrium start run at its own temperature is exactly stationary: the
correlation depends only on the time difference, the overlap and the energy
stay put.  Run the same data at a different temperature and everything
drifts.  Both solves also demonstrate the invariant checks carried by the
solution object.
"""

import warnings

import numpy as np

from glassdyn import Mixture, SolverConfig, gibbs_init, solve_dynamics, solve_fdt
from glassdyn.init_params import check_stationary
from glassdyn.phase import beta_c_dyn
from glassdyn.mixture import effective_mixture

m = Mixture({2: 1.0, 3: 1.0})
q_EA = 0.5                              # caller-supplied overlap input
beta = 0.8 * beta_c_dyn(effective_mixture(m, q_EA))
ic = gibbs_init(m, beta, q_EA, GS_at_qstar=-1.0)
print(f"equilibrium data at beta0 = {beta:.4f}: "
      f"q_star={ic.q_star:.4f} E={ic.E:.4f} E*={ic.E_star:.4f} G*={ic.G_star:.4f}")

T, h = 2.0, 0.005
sol = solve_dynamics(m, ic, SolverConfig(beta=beta, T=T, h=h))
gamma = 0.5 / (1 - q_EA) - 2 * beta**2 * m.nu(q_EA, 1)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    fdt = solve_fdt(m, beta, gamma, T, h)

lags = [round(x / h) for x in (0.0, 0.25, 0.5, 1.0, 2.0)]
print("\nmatched temperatures: C(s, t) collapses onto c(s - t)")
print("  lag    c(lag)      max_s |C - c|")
n = sol.n
for lag in lags:
    diag = sol.C[np.arange(lag, n + 1), np.arange(0, n + 1 - lag)]
    print(f"  {lag * h:4.2f}   {fdt.c[lag]:.6f}    {np.abs(diag - fdt.c[lag]).max():.2e}")
print(f"  overlap drift  max|q - q_o| = {np.abs(sol.q - ic.q_o).max():.2e}")
print(f"  energy drift   max|H - E|   = {np.abs(sol.H - ic.E).max():.2e}")

# same data, hotter dynamics: the stationarity test flags it and the solve drifts
beta_run = 1.3 * beta
rep = check_stationary(ic, m, beta_run)
sol2 = solve_dynamics(m, ic, SolverConfig(beta=beta_run, T=T, h=h))
print(f"\nmismatched run at beta = {beta_run:.4f}:")
print(f"  stationarity residual = {rep.residual:.3e} (admissible: {rep.admissible})")
print(f"  energy now moves: H(0)={sol2.H[0]:.4f} -> H(T)={sol2.H[-1]:.4f}")
print(f"  overlap moves:    q(0)={sol2.q[0]:.4f} -> q(T)={sol2.q[-1]:.4f}")

print("\ninvariant checks on both solves:")
for name, s in (("matched", sol), ("mismatched", sol2)):
    print(f"  {name:10s} gram_min_eig={s.gram_min_eig():+.2e}  "
          f"centered={s.cbar_gram_min_eig():+.2e}  max|C|={np.abs(s.C).max():.4f}")
