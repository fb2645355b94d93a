"""Command-line front end: curves to CSV, scalars to JSON, reproducible runs.

Every run writes a manifest (resolved config, package and library versions,
seeds) and stamps its hash into each output file, so results can be traced
back to the exact invocation.  Files are written atomically (temp + rename).
Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import struct
import sys
import tempfile
import time
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .dynamics import SolverConfig, solve_dynamics
from .errors import ConfigError, GlassdynError
from .fdt import solve_fdt
from .hamiltonian import (
    ConditioningSpec, conditioned_field, make_x_star, sample_band_point,
    sample_system,
)
from .init_params import InitCondition, check_stationary, solve_w
from .langevin import (
    LangevinConfig, average_error, ensemble_error, integrate_ensemble,
    observables,
)
from .mixture import Mixture
from .phase import beta_c_dyn, beta_c_stat, classify

TRIANGLE_MAGIC = b"SPGL2T\x00\x00"
_CSV_CHUNK_ROWS = 1 << 15


def _atomic_write(path: Path, parts: Iterable[bytes]):
    """Write the byte chunks to a temp file beside path, then rename it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _manifest(command: str, config: dict, seed) -> tuple[dict, str]:
    man = {
        "command": command,
        "config": config,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    digest = hashlib.sha256(
        json.dumps({k: man[k] for k in ("command", "config", "package_version",
                                        "numpy_version", "seed")},
                   sort_keys=True).encode()).hexdigest()[:16]
    man["manifest_hash"] = digest
    return man, digest


def _write_csv(path: Path, header: str, columns, digest: str):
    """Write equal-length columns as CSV rows: floats as %.12g, the rest str.

    Rows are formatted and streamed one chunk at a time, so memory stays
    near that of the columns themselves.
    """
    cols = [np.asarray(c) for c in columns]
    row_fmt = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    # one object column makes the stacked block object too, keeping floats floats
    cols = [c if c.dtype.kind == "f" else c.astype(object) for c in cols]

    def chunks():
        yield f"# manifest={digest}\n{header}\n".encode()
        for k in range(0, len(cols[0]), _CSV_CHUNK_ROWS):
            block = np.column_stack([c[k: k + _CSV_CHUNK_ROWS] for c in cols])
            yield ((row_fmt * len(block)) % tuple(block.ravel().tolist())).encode()

    _atomic_write(path, chunks())


def _write_json(path: Path, obj: dict, digest: str):
    obj = dict(obj)
    obj["manifest_hash"] = digest
    _atomic_write(path, [(json.dumps(obj, indent=2, default=_jsonable) + "\n").encode()])


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.bool_):
        return bool(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _load_mixture(path: str) -> Mixture:
    try:
        return Mixture.from_json(Path(path).read_text())
    except FileNotFoundError as err:
        raise ConfigError(f"mixture file not found: {path}") from err


def _load_init(path: str, m: Mixture) -> InitCondition:
    try:
        return InitCondition.from_dict(json.loads(Path(path).read_text()), m)
    except FileNotFoundError as err:
        raise ConfigError(f"init file not found: {path}") from err


def _parse_grid(spec: str):
    try:
        a, b, n = spec.split(":")
        return np.linspace(float(a), float(b), int(n))
    except ValueError as err:
        raise ConfigError(f"bad grid spec {spec!r}, want a:b:n") from err


def _parse_variant(spec: str):
    if spec in ("spherical", "gradflow"):
        return spec, None
    if spec.startswith("f:"):
        return "f", float(spec[2:])
    raise ConfigError(f"unknown variant {spec!r}; use spherical|f:ELL|gradflow")


def cmd_phase(args, out: Path):
    m = _load_mixture(args.mixture)
    betas = _parse_grid(args.beta_grid)
    man, digest = _manifest("phase", {"mixture": m.coeffs,
                                      "beta_grid": args.beta_grid}, None)
    bcd, bcs = beta_c_dyn(m), beta_c_stat(m)
    points = [classify(m, beta, bcd=bcd, bcs=bcs) for beta in betas]
    _write_csv(out / "phase.csv", "beta,q_d,regime,beta_c_dyn,beta_c_stat",
               [betas, [float(pp.q_d) for pp in points],
                [pp.regime for pp in points],
                np.full(len(betas), bcd), np.full(len(betas), bcs)], digest)
    _write_json(out / "manifest.json", man, digest)
    print(f"wrote {out / 'phase.csv'} (beta_c_dyn={bcd:.6f}, beta_c_stat={bcs:.6f})")
    return 0


def cmd_params(args, out: Path):
    m = _load_mixture(args.mixture)
    ic = _load_init(args.init, m)
    vf = solve_w(ic, m)
    rep = check_stationary(ic, m, args.beta)
    man, digest = _manifest("params", {"mixture": m.coeffs, "init": vars_of(ic),
                                       "beta": args.beta}, None)
    report = {
        "w": vf.w.tolist(),
        "branch": vf.branch,
        "alpha": ic.alpha,
        "stationary": {"admissible": bool(rep.admissible),
                       "residual": rep.residual, "beta": args.beta},
    }
    _write_json(out / "params.json", report, digest)
    _write_json(out / "manifest.json", man, digest)
    print(json.dumps(report, indent=2))
    return 0


def vars_of(ic: InitCondition) -> dict:
    return {"q_star": ic.q_star, "E": ic.E, "E_star": ic.E_star,
            "G_star": ic.G_star, "q_o": ic.q_o}


def cmd_fdt(args, out: Path):
    m = _load_mixture(args.mixture)
    man, digest = _manifest("fdt", {"mixture": m.coeffs, "beta": args.beta,
                                    "gamma": args.gamma, "T": args.T,
                                    "h": args.h}, None)
    sol = solve_fdt(m, args.beta, args.gamma, args.T, args.h)
    _write_csv(out / "fdt.csv", "tau,c,r", [sol.tau, sol.c, sol.r], digest)
    man["c_inf"] = sol.c_inf
    man["plateaued"] = bool(sol.plateaued)
    _write_json(out / "manifest.json", man, digest)
    print(f"wrote {out / 'fdt.csv'} (c_inf={sol.c_inf:.8f})")
    return 0


def _dump_triangle(path: Path, sol):
    """Raw lower triangle, row-major little-endian doubles after the magic."""
    tri = np.tril_indices(sol.n + 1)
    _atomic_write(path, [TRIANGLE_MAGIC, struct.pack("<qd", sol.n, sol.h),
                         sol.C[tri].astype("<f8").tobytes(),
                         sol.R[tri].astype("<f8").tobytes()])


def cmd_solve(args, out: Path):
    m = _load_mixture(args.mixture)
    ic = _load_init(args.init, m)
    variant, ell = _parse_variant(args.variant)
    cfg = SolverConfig(beta=args.beta, T=args.T, h=args.h, variant=variant,
                       ell=ell)
    man, digest = _manifest("solve", {"mixture": m.coeffs, "init": vars_of(ic),
                                      "beta": args.beta, "T": args.T,
                                      "h": args.h, "variant": args.variant},
                            None)
    sol = solve_dynamics(m, ic, cfg)
    grid = np.arange(0, sol.n + 1, max(1, args.stride))
    ti, tj = np.tril_indices(len(grid))
    I, J = grid[ti], grid[tj]
    # each grid time recurs along the triangle: format it once, as %.12g
    times = np.array(["%.12g" % s for s in (grid * sol.h).tolist()], dtype=object)
    _write_csv(out / "triangle.csv", "s,t,C,R",
               [times[ti], times[tj], sol.C[I, J], sol.R[I, J]], digest)
    _write_csv(out / "onetime.csv", "s,q,K,mu,L,H",
               [sol.s, sol.q, sol.K, sol.mu, sol.L, sol.H], digest)
    checks = {
        "gram_min_eig": sol.gram_min_eig(30),
        "cbar_gram_min_eig": (sol.cbar_gram_min_eig(30)
                              if ic.q_star > 0 else None),
        "diag_R": float(np.abs(np.diagonal(sol.R) - 1.0).max()),
        "H0_minus_E": float(sol.H[0] - ic.E),
        "max_abs_C": float(np.abs(sol.C).max()),
    }
    _write_json(out / "summary.json", checks, digest)
    _write_json(out / "manifest.json", man, digest)
    if args.dump_triangle:
        _dump_triangle(out / "triangle.bin", sol)
    print(f"wrote solve outputs to {out}")
    return 0


def _simulate_core(cfg_obj: dict, out: Path, want_compare: bool):
    m = Mixture({int(p): float(b) for p, b in cfg_obj["mixture"]["coeffs"].items()})
    ic = InitCondition.from_dict(cfg_obj["init"], m)
    N = int(cfg_obj["N"])
    beta = float(cfg_obj["beta"])
    T = float(cfg_obj["T"])
    h_obs = float(cfg_obj.get("h_obs", 0.02))
    paths = int(cfg_obj.get("paths", 8))
    seed = int(cfg_obj.get("seed", 0))
    threads = int(cfg_obj.get("threads", 1))
    variant = cfg_obj.get("variant", "spherical")
    ell = cfg_obj.get("ell")
    man, digest = _manifest("simulate", cfg_obj, seed)

    sys_ = sample_system(m, N, seed)
    x_star = make_x_star(ic.q_star, N)
    x0 = sample_band_point(ic.q_star, ic.q_o, N, seed + 1)
    spec = ConditioningSpec(x_star if ic.q_star > 0 else np.zeros(N), x0, ic)
    f = conditioned_field(sys_, spec)
    lcfg = LangevinConfig(beta=beta, T=T, h_obs=h_obs,
                          substeps=int(cfg_obj.get("substeps", 5)),
                          variant=variant, ell=ell)
    if threads > 1 and paths > 1:
        # paths are independent; BLAS releases the GIL inside the tensor passes
        chunk = max(1, paths // threads)
        starts = list(range(0, paths, chunk))
        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(
                lambda s: integrate_ensemble(f, x0, lcfg,
                                             min(chunk, paths - s),
                                             seed + 10 + s), starts))
        trajs = [t for part in parts for t in part]
    else:
        trajs = integrate_ensemble(f, x0, lcfg, paths, seed + 10)
    obs = [observables(t, f, x_star) for t in trajs]

    grid = np.arange(lcfg.n_obs + 1) * h_obs
    Cbar = np.mean([o.C for o in obs], axis=0)
    chibar = np.mean([o.chi for o in obs], axis=0)
    ti, tj = np.tril_indices(len(grid))
    _write_csv(out / "C_N.csv", "s,t,C_N", [grid[ti], grid[tj], Cbar[ti, tj]],
               digest)
    _write_csv(out / "chi_N.csv", "s,t,chi_N",
               [np.repeat(grid, len(grid)), np.tile(grid, len(grid)),
                chibar.ravel()], digest)
    # one 1-D mean per time: a mean over axis 0 would sum the paths in
    # another order and move the last digits
    one = np.array([[np.mean([getattr(o, key)[i] for o in obs])
                     for key in ("q", "H", "K")] for i in range(len(grid))])
    _write_csv(out / "onetime_N.csv", "s,q_N,H_N,K_N", [grid, *one.T], digest)

    report = {"N": N, "paths": paths, "seed": seed}
    if want_compare:
        h_lim = float(cfg_obj.get("h_limit", h_obs / 2))
        sol = solve_dynamics(m, ic, SolverConfig(beta=beta, T=T, h=h_lim))
        err_mean, err_se = average_error(obs, sol, T)
        report.update({
            "err_mean": err_mean,
            "err_se": err_se,
            "err_ensemble": ensemble_error(obs, sol, T),
            "invariants": {
                "gram_min_eig": sol.gram_min_eig(30),
                "H0_matches": bool(abs(obs[0].H[0] - ic.E) < 1e-8),
            },
        })
    _write_json(out / "report.json", report, digest)
    _write_json(out / "manifest.json", man, digest)
    print(json.dumps(report, indent=2, default=_jsonable))
    return 0


def cmd_simulate(args, out: Path):
    cfg_obj = json.loads(Path(args.config).read_text())
    if args.threads:
        cfg_obj["threads"] = args.threads
    return _simulate_core(cfg_obj, out, want_compare=False)


def cmd_compare(args, out: Path):
    cfg_obj = json.loads(Path(args.config).read_text())
    if args.threads:
        cfg_obj["threads"] = args.threads
    return _simulate_core(cfg_obj, out, want_compare=True)


def cmd_accept(args, out: Path):
    results = run_all(verbose=True)
    man, digest = _manifest("accept", {}, None)
    table = [{"id": r.cid, "name": r.name, "passed": bool(r.passed),
              "seconds": round(r.seconds, 2), "stats": r.stats}
             for r in results]
    _write_json(out / "acceptance.json", {"criteria": table}, digest)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="glassdyn",
        description="Two-time spin-glass dynamics: limit solver and finite-N validator")
    ap.add_argument("--out-dir", default="glassdyn_out", help="output directory")
    ap.add_argument("--threads", type=int, default=0,
                    help="parallelize independent sub-runs (Monte Carlo paths)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase", help="critical temperatures and plateau curve")
    p.add_argument("--mixture", required=True)
    p.add_argument("--beta-grid", required=True, help="a:b:n")

    p = sub.add_parser("params", help="conditioning weights and stationarity report")
    p.add_argument("--mixture", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--beta", type=float, required=True)

    p = sub.add_parser("fdt", help="stationary relaxation curve")
    p.add_argument("--mixture", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--h", type=float, default=0.005)

    p = sub.add_parser("solve", help="two-time limit dynamics")
    p.add_argument("--mixture", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--T", type=float, default=4.0)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--variant", default="spherical",
                   help="spherical | f:ELL | gradflow")
    p.add_argument("--stride", type=int, default=1,
                   help="grid stride for the triangle CSV")
    p.add_argument("--dump-triangle", action="store_true",
                   help="also write the raw binary triangle")

    p = sub.add_parser("simulate", help="finite-N Langevin paths")
    p.add_argument("--config", required=True)

    p = sub.add_parser("compare", help="simulate and score against the limit")
    p.add_argument("--config", required=True)

    sub.add_parser("accept", help="run the acceptance suite")
    return ap


COMMANDS = {
    "phase": cmd_phase,
    "params": cmd_params,
    "fdt": cmd_fdt,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "accept": cmd_accept,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out_dir)
    try:
        return COMMANDS[args.command](args, out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (GlassdynError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1 if isinstance(err, GlassdynError) else 2


if __name__ == "__main__":
    sys.exit(main())
