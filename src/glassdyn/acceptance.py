"""Acceptance suite: the release gate for the whole package.

Thirteen oracle- and property-based criteria, each self-contained with its
tolerances pinned at the values the package promises.  Every criterion
returns a CriterionResult; run_all executes them in order and prints one
pass/fail line each.  The suite is also what `glassdyn accept` and the
pytest acceptance module execute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SolverConfig, ell_limit_check, solve_dynamics, sup_distance
from .fdt import solve_fdt, stationary_two_time
from .hamiltonian import (
    ConditioningSpec, conditional_mean, conditional_mean_hessian,
    conditioned_field, sample_system,
)
from .init_params import InitCondition, check_stationary, gibbs_init, sigma_nu
from .langevin import (
    LangevinConfig, average_error, ensemble_error, integrate_ensemble,
    observables, random_orthogonal, rotation_invariance_test, score,
)
from .mixture import Mixture, effective_mixture
from .phase import beta_c_dyn

__all__ = ["CriterionResult", "run_all", "run_criterion", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    stats: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.stats.items())
        return f"[{status}] {self.cid:2d} {self.name:34s} {self.seconds:7.1f}s  {detail}"


M23 = Mixture({2: 1.0, 3: 1.0})
IC_GEN = InitCondition(0.8, 0.5, -0.3, 0.4, 0.35)


def criterion_01_free_dynamics() -> CriterionResult:
    """beta = 0 closed form: C = R = exp(-(s-t)/2), mu = 1/2."""
    h, T = 0.01, 2.0
    sol = solve_dynamics(M23, IC_GEN, SolverConfig(beta=0.0, T=T, h=h))
    s = sol.s
    expect = np.exp(-0.5 * np.abs(s[:, None] - s[None, :]))
    err = max(sup_distance(sol.C, expect), sup_distance(sol.R, np.tril(expect)),
              sup_distance(sol.q, IC_GEN.q_o * np.exp(-0.5 * s)),
              sup_distance(sol.mu, np.full_like(sol.mu, 0.5)))
    return CriterionResult(1, "free-dynamics closed form",
                           err < 5 * h, {"sup_err": err, "bound": 5 * h})


def criterion_02_fdt_linear_oracle() -> CriterionResult:
    """beta = 0, gamma = 1/2 relaxation is exactly exp(-tau/2)."""
    h = 0.005
    sol = solve_fdt(M23, 0.0, 0.5, 20.0, h)
    err = float(np.abs(sol.c - np.exp(-0.5 * sol.tau)).max())
    return CriterionResult(2, "relaxation linear oracle",
                           err < 3 * h * h, {"sup_err": err, "bound": 3 * h * h})


def criterion_03_classical_reduction() -> CriterionResult:
    """Zero-energy start reduces to the classical closed equations; a second
    solve of the same start repeats the first bit for bit."""
    beta, h, T = 0.25, 0.01, 8.0
    ic = InitCondition(0.0, 0.0)
    cfg = SolverConfig(beta=beta, T=T, h=h)
    a = solve_dynamics(M23, ic, cfg)
    b = solve_dynamics(M23, ic, cfg)
    bitwise = (np.array_equal(a.C, b.C) and np.array_equal(a.R, b.R)
               and np.array_equal(a.H, b.H))
    fdt = solve_fdt(M23, beta, 0.5, 2.0, h)
    t_idx = round(6.0 / h)
    gap = float(np.abs(a.C[t_idx:, t_idx][: len(fdt.c)] - fdt.c).max())
    return CriterionResult(3, "classical-equations reduction",
                           bitwise and gap < 0.02,
                           {"bitwise": bitwise, "late_diag_gap": gap})


def _stationary_setup():
    q_EA = 0.5
    beta = 0.8 * beta_c_dyn(effective_mixture(M23, q_EA))
    return beta, gibbs_init(M23, beta, q_EA, -1.0)


def criterion_04_stationarity() -> CriterionResult:
    """Equilibrium start stays on its stationary relaxation curve, lifted."""
    beta, ic = _stationary_setup()
    T, h = 2.0, 0.0025   # n = 800
    lift = stationary_two_time(M23, ic, beta, T, h)
    sol = solve_dynamics(M23, ic, SolverConfig(beta=beta, T=T, h=h))
    errC, errq, errH = (sup_distance(getattr(sol, k), getattr(lift, k))
                        for k in ("C", "q", "H"))
    bound = 10 * h
    return CriterionResult(4, "stationarity on the equilibrium line",
                           max(errC, errq, errH) < bound,
                           {"errC": errC, "errq": errq, "errH": errH,
                            "bound": bound})


def criterion_05_nonstationarity_detected() -> CriterionResult:
    """Mismatched start/run temperatures are flagged and visibly drift."""
    beta, _ = _stationary_setup()
    ic = gibbs_init(M23, 1.3 * beta, 0.5, -1.0)
    rep = check_stationary(ic, M23, beta)
    sol = solve_dynamics(M23, ic, SolverConfig(beta=beta, T=1.0, h=0.005))
    drift = float(np.abs(np.diff(sol.H) / sol.h).max())
    return CriterionResult(5, "non-stationarity detection",
                           (not rep.admissible) and rep.residual > 1e-4
                           and drift > 1e-3,
                           {"residual": rep.residual, "H_drift": drift})


def criterion_06_psd_invariants() -> CriterionResult:
    """Correlation Gram matrices of the shipped solves stay PSD."""
    beta, ic_eq = _stationary_setup()
    runs = [
        (M23, IC_GEN, SolverConfig(beta=0.0, T=2.0, h=0.01)),
        (M23, IC_GEN, SolverConfig(beta=0.6, T=2.0, h=0.01)),
        (M23, ic_eq, SolverConfig(beta=beta, T=2.0, h=0.005)),
        (M23, InitCondition(0.0, 0.0), SolverConfig(beta=0.25, T=4.0, h=0.01)),
        (M23, gibbs_init(M23, 1.3 * beta, 0.5, -1.0),
         SolverConfig(beta=beta, T=2.0, h=0.005)),
    ]
    worst = np.inf
    for m, ic, cfg in runs:
        sol = solve_dynamics(m, ic, cfg)
        worst = min(worst, sol.gram_min_eig())
        if not ic.is_rs:
            worst = min(worst, sol.cbar_gram_min_eig())
    return CriterionResult(6, "PSD of correlation Gram matrices",
                           worst >= -1e-6, {"min_eig": float(worst)})


def criterion_07_confinement_limit() -> CriterionResult:
    """Soft-confinement solves approach the hard-constraint limit like 1/ell."""
    ic = gibbs_init(M23, 0.45, 0.5, -1.0)
    ells = [10.0, 40.0, 160.0]
    recs = ell_limit_check(M23, ic, 0.25, 2.0, 0.005, ells)
    supk = [r.sup_K_minus_1 for r in recs]
    dist = [r.dist_to_spherical for r in recs]
    prods = [e * k for e, k in zip(ells, supk)]
    fit_ok = max(prods) / min(prods) < 2.0
    ok = (all(a > b for a, b in zip(supk, supk[1:]))
          and all(a > b for a, b in zip(dist, dist[1:])) and fit_ok)
    return CriterionResult(7, "confinement stiffness limit", ok,
                           {"sup_K_minus_1": supk[-1], "fit_spread":
                            max(prods) / min(prods), "dist_160": dist[-1]})


def criterion_08_conditioning_oracle() -> CriterionResult:
    """Conditional mean against brute-force Gaussian conditioning at N = 8."""
    N = 8
    m2 = Mixture.pure(2)
    qs, Es = 0.7, -0.3
    ic = InitCondition(qs, 0.4, Es, 2 * Es / qs**2, 0.3)
    spec = ConditioningSpec(ic, N, 21)
    x_star, x0 = spec.x_star, spec.x_0
    Vhat = np.array([ic.E, ic.E_star, ic.G_star, 0.0])
    data = np.concatenate(([-N * ic.E, -N * ic.E_star], -ic.G_star * x_star))

    def c_hh(x, y):
        return N * m2.nu(x @ y / N)

    def c_hg(x, y):
        return m2.nu(x @ y / N, 1) * x

    S = np.zeros((N + 2, N + 2))
    S[0, 0], S[1, 1] = c_hh(x0, x0), c_hh(x_star, x_star)
    S[0, 1] = S[1, 0] = c_hh(x0, x_star)
    S[0, 2:] = S[2:, 0] = c_hg(x0, x_star)
    S[1, 2:] = S[2:, 1] = c_hg(x_star, x_star)
    r = x_star @ x_star / N
    S[2:, 2:] = (m2.nu(r, 2) * np.outer(x_star, x_star) / N
                 + m2.nu(r, 1) * np.eye(N))
    Sinv_d = np.linalg.pinv(S, rcond=1e-12) @ data
    rng = np.random.default_rng(22)
    worst_val = 0.0
    for _ in range(20):
        xt = rng.standard_normal(N)
        xt *= math.sqrt(N) / np.linalg.norm(xt)
        cvec = np.concatenate(([c_hh(xt, x0), c_hh(xt, x_star)], c_hg(xt, x_star)))
        brute = float(cvec @ Sinv_d)
        mine = conditional_mean(spec, m2, Vhat, None, xt, "value")
        worst_val = max(worst_val, abs(brute - mine))

    # derivative checks on a mixed model with a perpendicular gradient handle
    m = Mixture({2: 1.0, 3: 0.5})
    ic_m = InitCondition(0.7, 0.4, -0.3, 0.25, 0.3)
    spec_m = ConditioningSpec(ic_m, N, 23)
    Vh = np.array([ic_m.E, ic_m.E_star, ic_m.G_star, 0.0])
    u = rng.standard_normal(N)
    u -= (u @ spec_m.xhat_star) * spec_m.xhat_star + (u @ spec_m.zhat) * spec_m.zhat
    xt = rng.standard_normal(N)
    xt *= math.sqrt(N) / np.linalg.norm(xt)
    eps, eye = 1e-5, np.eye(N)
    g = conditional_mean(spec_m, m, Vh, u, xt, "gradient")
    gfd = np.array([
        (conditional_mean(spec_m, m, Vh, u, xt + eps * eye[i], "value")
         - conditional_mean(spec_m, m, Vh, u, xt - eps * eye[i], "value"))
        / (2 * eps) for i in range(N)])
    grad_err = float(np.abs(g - gfd).max() / (1 + np.abs(g).max()))
    hess = conditional_mean_hessian(spec_m, m, Vh, u, xt)
    hfd = np.stack([
        (conditional_mean(spec_m, m, Vh, u, xt + eps * eye[i], "gradient")
         - conditional_mean(spec_m, m, Vh, u, xt - eps * eye[i], "gradient"))
        / (2 * eps) for i in range(N)])
    hess_fd_err = float(np.abs(hess - hfd).max() / (1 + np.abs(hess).max()))
    hess_cf_err = _basis_hessian_gap(spec_m, m, Vh, u, xt)
    ok = (worst_val < 1e-8 and grad_err < 1e-5 and hess_fd_err < 1e-5
          and hess_cf_err < 1e-8)
    return CriterionResult(8, "Gaussian conditioning oracle", ok,
                           {"brute_gap": worst_val, "grad_fd": grad_err,
                            "hess_fd": hess_fd_err, "hess_closed": hess_cf_err})


def _basis_hessian_gap(spec, m, Vhat, u, xt):
    """Adapted-basis closed form of the Hessian vs the analytic one.

    The printed diagonal entry needs the nu'' cross term counted twice (the
    product rule duplicates it at (1,1)); off-diagonal entries are as stated.
    """
    ic = spec.target
    N = spec.N
    rng = np.random.default_rng(99)
    P = np.zeros((N, N))
    P[:, 0], P[:, 1] = spec.xhat_star, spec.zhat
    raw = (np.eye(N) - P[:, :2] @ P[:, :2].T) @ rng.standard_normal((N, N))
    q_r = np.linalg.qr(raw)[0]
    cols = [c for c in range(N)
            if np.abs(q_r[:, c] @ P[:, :2]).max() < 1e-8][: N - 2]
    P[:, 2:] = q_r[:, cols]
    gam = m.nu(ic.q_star**2, 1)
    w = np.linalg.lstsq(sigma_nu(m, ic), Vhat, rcond=1e-12)[0]
    alpha = ic.alpha
    coords = P.T @ xt
    rho = ic.q_star * coords[0] / math.sqrt(N)
    rho_a = (alpha * coords[0]
             + math.sqrt(1 - alpha**2) * coords[1]) / math.sqrt(N)
    ubar = np.concatenate(([math.sqrt(N) * gam / ic.q_star * w[2],
                            math.sqrt(N) * gam / ic.q_star * w[3]],
                           P[:, 2:].T @ u))
    c_alpha = alpha * np.array([alpha, math.sqrt(1 - alpha**2)])
    Hb = np.zeros((N, N))
    for j in range(N):
        val = gam**-1 * ic.q_star * m.nu(rho, 2) * ubar[j] / math.sqrt(N)
        if j < 2:
            val += w[0] * c_alpha[j] * m.nu(rho_a, 2)
        if j == 0:
            val += (gam**-1 * ic.q_star * m.nu(rho, 2) * ubar[0] / math.sqrt(N)
                    + w[1] * ic.q_star**2 * m.nu(rho, 2)
                    + ic.q_star**2 * m.nu(rho, 3) * (ubar @ coords) / (gam * N))
        Hb[0, j] = Hb[j, 0] = val
    Hb[1, 1] = w[0] * (1 - alpha**2) * m.nu(rho_a, 2)
    expect = -P @ Hb @ P.T
    actual = conditional_mean_hessian(spec, m, Vhat, u, xt)
    return float(np.abs(actual - expect).max())


def criterion_09_sigma_positive_definite() -> CriterionResult:
    """Conditioning covariance stays PD across the admissible overlap grid."""
    rng = np.random.default_rng(31)
    worst = np.inf
    for _ in range(10):
        m = Mixture({p: rng.uniform(0.05, 2.0) for p in (2, 3, 4)})
        for qs in (0.3, 0.7, 1.0):
            for qo in np.linspace(-0.95, 0.95, 39):
                if abs(qo) > qs:
                    continue
                worst = min(worst, float(np.linalg.eigvalsh(
                    sigma_nu(m, InitCondition(qs, 0.0, q_o=qo)))[0]))
    return CriterionResult(9, "conditioning covariance PD", worst > 0.0,
                           {"min_eig": worst})


def criterion_10_finite_n_convergence() -> CriterionResult:
    """Finite-N paths converge to the limit dynamics as N grows.

    The per-path sup metric carries an O(1/sqrt(N)) fluctuation floor
    (about 0.2 at N = 400 even for a zero drift), so the size gate applies
    to the error of the path-averaged observables; both sequences must
    decrease monotonically.
    """
    m = Mixture({2: 1.0, 3: 0.1})
    beta, beta0, T = 0.3, 0.2, 2.0
    ic = gibbs_init(m, beta0, 0.0)
    sol = solve_dynamics(m, ic, SolverConfig(beta=beta, T=T, h=0.01))
    cfg = LangevinConfig(beta=beta, T=T, h_obs=0.02, substeps=5)
    per_path, averaged = [], []
    for N in (100, 200, 400):
        sysN = sample_system(m, N, seed=50 + N)
        spec = ConditioningSpec(ic, N, seed=60 + N)
        f = conditioned_field(sysN, spec)
        traj = integrate_ensemble(f, spec.x_0, cfg, 8, master_seed=70 + N)
        terms = score(observables(traj, f, spec.x_star), sol, T)
        per_path.append(average_error(terms)[0])
        averaged.append(ensemble_error(terms))
    mono = (all(a > b for a, b in zip(per_path, per_path[1:]))
            and all(a > b for a, b in zip(averaged, averaged[1:])))
    return CriterionResult(10, "finite-N convergence",
                           mono and averaged[-1] < 0.15,
                           {"avg_errs": [round(e, 4) for e in averaged],
                            "path_errs": [round(e, 4) for e in per_path]})


def criterion_11_rotation_invariance() -> CriterionResult:
    """Pathwise equivariance of all observables under a global rotation."""
    N = 50
    m2 = Mixture.pure(2)
    ic = gibbs_init(m2, 0.2, 0.0)
    spec = ConditioningSpec(ic, N, 41)
    f = conditioned_field(sample_system(m2, N, 42), spec)
    cfg = LangevinConfig(beta=0.3, T=1.0, h_obs=0.05)
    ok, dev = rotation_invariance_test(f, random_orthogonal(N, 43), spec.x_0,
                                       spec.x_star, cfg, seed=44)
    ok_neg, dev_neg = rotation_invariance_test(
        f, random_orthogonal(N, 43), spec.x_0, spec.x_star, cfg, seed=44,
        rotate_noise=False)
    return CriterionResult(11, "rotation invariance", ok and not ok_neg,
                           {"deviation": dev, "control_dev": dev_neg})


def criterion_12_even_symmetry() -> CriterionResult:
    """Even models: flipping the band overlap flips q and nothing else."""
    meven = Mixture({2: 1.0, 4: 0.5})
    cfg = SolverConfig(beta=0.4, T=1.5, h=0.005)
    icp = InitCondition(0.8, 0.6, 0.2, 0.5, 0.4)
    icm = InitCondition(0.8, 0.6, 0.2, 0.5, -0.4)
    sp, sm = solve_dynamics(meven, icp, cfg), solve_dynamics(meven, icm, cfg)
    dev = max(sup_distance(sp.C, sm.C), sup_distance(sp.R, sm.R),
              sup_distance(sp.q, -sm.q), sup_distance(sp.H, sm.H))
    return CriterionResult(12, "even-mixture symmetry", dev < 1e-10,
                           {"deviation": dev})


def criterion_13_grid_convergence() -> CriterionResult:
    """Halving the step shrinks every component's change by >= 1.8."""
    cfg_of = lambda h: SolverConfig(beta=0.5, T=1.0, h=h)
    sols = {h: solve_dynamics(M23, IC_GEN, cfg_of(h)) for h in (0.02, 0.01, 0.005)}

    def diffs(coarse, fine):
        g = slice(None, None, round(coarse.h / fine.h))  # the coarse grid in the fine
        return {"C": sup_distance(coarse.C, fine.C[g, g]),
                "R": sup_distance(coarse.R, fine.R[g, g]),
                "q": sup_distance(coarse.q, fine.q[g]), "H": sup_distance(coarse.H, fine.H[g])}

    d1, d2 = diffs(sols[0.02], sols[0.01]), diffs(sols[0.01], sols[0.005])
    ratios = {k: d1[k] / d2[k] for k in d1}
    return CriterionResult(13, "grid convergence", min(ratios.values()) >= 1.8,
                           {k: round(v, 2) for k, v in ratios.items()})


CRITERIA = [
    criterion_01_free_dynamics,
    criterion_02_fdt_linear_oracle,
    criterion_03_classical_reduction,
    criterion_04_stationarity,
    criterion_05_nonstationarity_detected,
    criterion_06_psd_invariants,
    criterion_07_confinement_limit,
    criterion_08_conditioning_oracle,
    criterion_09_sigma_positive_definite,
    criterion_10_finite_n_convergence,
    criterion_11_rotation_invariance,
    criterion_12_even_symmetry,
    criterion_13_grid_convergence,
]

# runtime caps in seconds, from the promised budgets
RUNTIME_CAPS = {1: 10.0, 2: 1.0, 4: 120.0, 7: 300.0, 10: 900.0}


def run_criterion(fn) -> CriterionResult:
    """Run one criterion, time it, and fail it when it exceeds its runtime cap."""
    t0 = time.perf_counter()
    res = fn()
    res.seconds = time.perf_counter() - t0
    cap = RUNTIME_CAPS.get(res.cid)
    if cap is not None and res.seconds > cap:
        res.passed = False
        res.stats["runtime_cap_exceeded"] = cap
    return res


def run_all() -> list[CriterionResult]:
    """Run every criterion, printing one line each and then the pass count."""
    results = []
    for fn in CRITERIA:
        results.append(run_criterion(fn))
        print(results[-1].line(), flush=True)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} acceptance criteria passed", flush=True)
    return results
