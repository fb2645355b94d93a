"""Stationary relaxation curves c(tau) for several relaxation parameters.

Solves the scalar memory equation for a sweep of gamma at fixed beta and
shows each curve settling on its predicted plateau.  At gamma = 1/2 the
plateau is the infinite-temperature-start value q_d(beta).
"""

from glassdyn import Mixture, c_inf, q_d, solve_fdt

m = Mixture({2: 1.0, 3: 1.0})
beta = 0.45            # above the dynamical critical point (~0.3464)
T, h = 30.0, 0.01

print(f"beta = {beta}, q_d = {q_d(m, beta):.6f}\n")
print("gamma   plateau(pred)  c(T)        |gap|")
for gamma in (0.5, 0.6, 0.8, 1.2):
    sol = solve_fdt(m, beta, gamma, T, h)
    gap = abs(sol.c[-1] - sol.c_inf)
    print(f"{gamma:5.2f}   {sol.c_inf:12.6f}   {sol.c[-1]:.6f}    {gap:.2e}")

# a compact picture of one curve: decreasing from 1 to the plateau
sol = solve_fdt(m, beta, 0.5, T, h)
print("\nc(tau) at gamma = 1/2 (response r = -2 c' starts at 1):")
for tau in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
    k = round(tau / h)
    bar = "#" * int(50 * sol.c[k])
    print(f"  tau={tau:5.1f}  c={sol.c[k]:.5f}  r={sol.r[k]:.5f}  {bar}")
