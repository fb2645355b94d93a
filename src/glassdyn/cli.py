"""Command-line front end: curves to CSV, scalars to JSON, reproducible runs.

Every run writes a manifest (resolved config, package and library versions,
seeds) and stamps its hash into each output file, so results can be traced
back to the exact invocation.  Files are written atomically (temp + rename).
Exit codes: 0 success, 1 numerical failure or a run too large for memory,
2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import struct
import sys
import tempfile
import time
from collections.abc import Iterable
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (_MAX_POINTS, VARIANT_F, SolverConfig, default_f0_slope, grid_steps,
                       solve_dynamics)
from .errors import ConfigError, GlassdynError, check_count, check_keys, check_real
from .fdt import solve_fdt
from .hamiltonian import (
    ConditioningSpec, check_system_size, conditioned_field, sample_system,
)
from .init_params import InitCondition, check_stationary, solve_w
from .langevin import (
    VARIANT_FCONF, LangevinConfig, average_error, ensemble_error,
    integrate_ensemble, observables, score,
)
from .mixture import Mixture
from .phase import beta_c_dyn, beta_c_stat, classify

TRIANGLE_MAGIC = b"SPGL2T\x00\x00"
_CSV_CHUNK_ROWS = 1 << 15
_SIM_KEYS = frozenset({"mixture", "init", "N", "beta", "T", "h_obs", "paths", "seed",
                       "variant", "ell", "substeps", "h_limit"})


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


def _write_csv(path: Path, header: str, blocks: Iterable, digest: str):
    """Write blocks of equal-length columns as CSV rows: floats as %.12g, the rest str.

    Each block holds the next rows as a sequence of columns (arrays or
    sequences); the first block's dtypes set each column's format.  Rows are
    formatted and streamed one block, or one chunk of a long block, at a
    time, so memory stays near that of one block.
    """
    def chunks():
        yield f"# manifest={digest}\n{header}\n".encode()
        row_fmt = None
        for block in blocks:
            if row_fmt is None:
                row_fmt = ",".join("%.12g" if np.asarray(c).dtype.kind == "f" else "%s"
                                   for c in block) + "\n"
            cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            width = len(cols)
            for k in range(0, len(cols[0]), _CSV_CHUNK_ROWS):
                part = [c[k: k + _CSV_CHUNK_ROWS] for c in cols]
                rows = len(part[0])
                # interleave the columns into one flat row-major list
                flat = [None] * (width * rows)
                for j, c in enumerate(part):
                    flat[j::width] = c
                yield ((row_fmt * rows) % tuple(flat)).encode()

    _atomic_write(path, chunks())


def _write_json(path: Path, obj: dict, digest: str):
    obj = dict(obj)
    obj["manifest_hash"] = digest
    _atomic_write(path, [(json.dumps(obj, indent=2, default=_jsonable) + "\n").encode()])


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _read_json(path: str, what: str):
    """Contents of a JSON input file; a file that cannot be read as JSON text
    (missing, a directory, unreadable, not UTF-8, malformed) is a ConfigError,
    and so is an object that gives one key twice: json keeps the last one."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{what} file {path} gives the key {key!r} twice")
            obj[key] = value
        return obj

    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except FileNotFoundError as err:
        raise ConfigError(f"{what} file not found: {path}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{what} file {path} cannot be read: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} file {path} is not valid JSON: {err}") from err


def _config_value(cfg_obj: dict, key: str, convert, default=None):
    """convert(cfg_obj[key]); an absent key takes the default, unless that is None.

    A missing required key, or a value that convert rejects, is a ConfigError
    naming the key.
    """
    try:
        return convert(cfg_obj[key] if default is None else cfg_obj.get(key, default))
    except GlassdynError:
        raise
    except KeyError as err:
        raise ConfigError(f"config key {key!r} is missing") from err
    except (AttributeError, TypeError, ValueError) as err:
        raise ConfigError(f"config key {key!r}: {err}") from err


def _count(key: str, least: int):
    """The converter of a count or seed key: check_count, naming the key."""
    return lambda value: check_count(f"config key {key!r}", value, least)


def _real(key: str):
    """The converter of a real-valued key: check_real, naming the key."""
    return lambda value: check_real(f"config key {key!r}", value)


def _parse_grid(spec: str):
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as err:
        raise ConfigError(f"bad grid spec {spec!r}, want a:b:n") from err
    if not (math.isfinite(a) and math.isfinite(b)
            and check_count(f"grid spec {spec!r}: n", n, 0) < _MAX_POINTS):
        raise ConfigError(f"bad grid spec {spec!r}: want finite a, b and n < {_MAX_POINTS:.3g}")
    return np.linspace(a, b, n)


def _parse_variant(spec: str):
    if spec in ("spherical", "gradflow"):
        return spec, None
    if spec.startswith("f:"):
        try:
            return "f", float(spec[2:])
        except ValueError as err:
            raise ConfigError(f"bad variant {spec!r}: ELL must be a number") from err
    raise ConfigError(f"unknown variant {spec!r}; use spherical|f:ELL|gradflow")


def cmd_phase(args, out: Path):
    m = Mixture.from_dict(_read_json(args.mixture, "mixture"))
    betas = _parse_grid(args.beta_grid)
    man, digest = _manifest("phase", {"mixture": m.coeffs,
                                      "beta_grid": args.beta_grid}, None)
    bcd, bcs = beta_c_dyn(m), beta_c_stat(m)
    points = [classify(m, beta, bcd=bcd, bcs=bcs) for beta in betas]
    _write_csv(out / "phase.csv", "beta,q_d,regime,beta_c_dyn,beta_c_stat",
               [[betas, [float(pp.q_d) for pp in points],
                 [pp.regime for pp in points],
                 np.full(len(betas), bcd), np.full(len(betas), bcs)]], digest)
    _write_json(out / "manifest.json", man, digest)
    print(f"wrote {out / 'phase.csv'} (beta_c_dyn={bcd:.6g}, beta_c_stat={bcs:.6g})")
    return 0


def cmd_params(args, out: Path):
    m = Mixture.from_dict(_read_json(args.mixture, "mixture"))
    ic = InitCondition.from_dict(_read_json(args.init, "init"), m)
    vf = solve_w(ic, m)
    rep = check_stationary(ic, m, args.beta)
    man, digest = _manifest("params", {"mixture": m.coeffs, "init": asdict(ic),
                                       "beta": args.beta}, None)
    report = {
        "w": vf.w.tolist(),
        "branch": vf.branch,
        "alpha": ic.alpha,
        # a band edge is never stationary, with residual inf: JSON has no inf
        "stationary": {"admissible": rep.admissible,
                       "residual": rep.residual if math.isfinite(rep.residual) else None,
                       "beta": args.beta},
    }
    _write_json(out / "params.json", report, digest)
    _write_json(out / "manifest.json", man, digest)
    print(json.dumps(report, indent=2))
    return 0


def cmd_fdt(args, out: Path):
    m = Mixture.from_dict(_read_json(args.mixture, "mixture"))
    man, digest = _manifest("fdt", {"mixture": m.coeffs, "beta": args.beta,
                                    "gamma": args.gamma, "T": args.T,
                                    "h": args.h}, None)
    # the grid rule under the flags' names, before solve_fdt names T_tau and h_tau
    grid_steps(args.T, args.h, ("--T", "--h"))
    sol = solve_fdt(m, args.beta, args.gamma, args.T, args.h)
    _write_csv(out / "fdt.csv", "tau,c,r", [[sol.tau, sol.c, sol.r]], digest)
    man["c_inf"] = sol.c_inf
    man["plateaued"] = bool(sol.plateaued)
    _write_json(out / "manifest.json", man, digest)
    print(f"wrote {out / 'fdt.csv'} (c_inf={sol.c_inf:.8f})")
    return 0


def _dump_triangle(path: Path, sol):
    """Raw lower triangles of C, then of R, row-major little-endian doubles
    after the magic, written one row at a time."""
    rows = (M[i, : i + 1].astype("<f8").tobytes()
            for M in (sol.C, sol.R) for i in range(sol.n + 1))
    _atomic_write(path, itertools.chain(
        [TRIANGLE_MAGIC, struct.pack("<qd", sol.n, sol.h)], rows))


def _solve_checks(sol) -> dict:
    """summary.json of a solve; no array beyond the solution is larger than O(n)."""
    ic = sol.ic
    return {
        "gram_min_eig": sol.gram_min_eig(),
        "cbar_gram_min_eig": None if ic.is_rs else sol.cbar_gram_min_eig(),
        "diag_R": float(np.abs(np.diagonal(sol.R) - 1.0).max()),
        "H0_minus_E": float(sol.H[0] - ic.E),
        "max_abs_C": float(max(sol.C.max(), -sol.C.min())),
    }


def cmd_solve(args, out: Path):
    m = Mixture.from_dict(_read_json(args.mixture, "mixture"))
    ic = InitCondition.from_dict(_read_json(args.init, "init"), m)
    variant, ell = _parse_variant(args.variant)
    check_count("--stride", args.stride, 1)
    cfg = SolverConfig(beta=args.beta, T=args.T, h=args.h, variant=variant,
                       ell=ell)
    man, digest = _manifest("solve", {"mixture": m.coeffs, "init": asdict(ic),
                                      "beta": args.beta, "T": args.T,
                                      "h": args.h, "variant": args.variant},
                            None)
    sol = solve_dynamics(m, ic, cfg)
    stride = args.stride
    # each grid time recurs along the triangle: format it once, as %.12g
    times = ["%.12g" % s for s in (np.arange(0, sol.n + 1, stride) * sol.h).tolist()]
    # one block per grid row i: the times s_i and t_j, C and R at j <= i on the grid
    rows = ([[times[k]] * (k + 1), times[: k + 1],
             sol.C[i, : i + 1: stride], sol.R[i, : i + 1: stride]]
            for k, i in enumerate(range(0, sol.n + 1, stride)))
    _write_csv(out / "triangle.csv", "s,t,C,R", rows, digest)
    _write_csv(out / "onetime.csv", "s,q,K,mu,L,H",
               [[sol.s, sol.q, sol.K, sol.mu, sol.L, sol.H]], digest)
    _write_json(out / "summary.json", _solve_checks(sol), digest)
    _write_json(out / "manifest.json", man, digest)
    if args.dump_triangle:
        _dump_triangle(out / "triangle.bin", sol)
    print(f"wrote solve outputs to {out}")
    return 0


def _simulate_core(cfg_obj: dict, out: Path, want_compare: bool):
    m = _config_value(cfg_obj, "mixture", Mixture.from_dict)
    ic = _config_value(cfg_obj, "init", lambda obj: InitCondition.from_dict(obj, m))
    N = _config_value(cfg_obj, "N", _count("N", 1))
    beta = _config_value(cfg_obj, "beta", _real("beta"))
    T = _config_value(cfg_obj, "T", _real("T"))
    h_obs = _config_value(cfg_obj, "h_obs", _real("h_obs"), 0.02)
    paths = _config_value(cfg_obj, "paths", _count("paths", 1), 8)
    seed = _config_value(cfg_obj, "seed", _count("seed", 0), 0)
    variant = cfg_obj.get("variant", "spherical")
    ell = _config_value(cfg_obj, "ell", _real("ell")) if "ell" in cfg_obj else None
    substeps = _config_value(cfg_obj, "substeps", _count("substeps", 1), 5)
    check_keys("config", cfg_obj, _SIM_KEYS)
    # the size guard, the configs and the start geometry come before the
    # tensor draw, in that order: a bad one costs nothing of size N
    check_system_size(m, N)
    lcfg = LangevinConfig(beta=beta, T=T, h_obs=h_obs, substeps=substeps,
                          variant=variant, ell=ell)
    spec = ConditioningSpec(ic, N, seed + 1)
    if variant == VARIANT_FCONF:
        # the slope of the limit variant 'f', which starts the radius without
        # drift; compare scores these paths against that limit
        lcfg = replace(lcfg, f0_slope=default_f0_slope(solve_w(ic, m), beta))
    if want_compare:
        h_lim = _config_value(cfg_obj, "h_limit", _real("h_limit"), h_obs / 2)
        # the paths are scored on the observable grid, which the limit's must hold
        grid_steps(h_obs, h_lim, ("'h_obs'", "'h_limit'"))
        limit = (SolverConfig(beta=beta, T=T, h=h_lim, variant=VARIANT_F, ell=ell)
                 if variant == VARIANT_FCONF else SolverConfig(beta=beta, T=T, h=h_lim))
    man, digest = _manifest("simulate", cfg_obj, seed)

    f = conditioned_field(sample_system(m, N, seed), spec)
    traj = integrate_ensemble(f, spec.x_0, lcfg, paths, seed + 10)
    obs = observables(traj, f, spec.x_star)

    mean = obs.mean()
    grid = np.arange(lcfg.n_obs + 1) * h_obs
    ti, tj = np.tril_indices(len(grid))
    _write_csv(out / "C_N.csv", "s,t,C_N", [[grid[ti], grid[tj], mean.C[0][ti, tj]]],
               digest)
    _write_csv(out / "chi_N.csv", "s,t,chi_N",
               [[np.repeat(grid, len(grid)), np.tile(grid, len(grid)),
                 mean.chi[0].ravel()]], digest)
    _write_csv(out / "onetime_N.csv", "s,q_N,H_N,K_N",
               [[grid, mean.q[0], mean.H[0], mean.K[0]]], digest)

    report = {"N": N, "paths": paths, "seed": seed}
    if want_compare:
        sol = solve_dynamics(m, ic, limit)
        terms = score(obs, sol, T)
        err_mean, err_se = average_error(terms)
        report.update({
            "err_mean": err_mean,
            "err_se": err_se,
            "err_ensemble": ensemble_error(terms),
            "invariants": {
                "gram_min_eig": sol.gram_min_eig(),
                "H0_matches": bool(abs(obs.H[0, 0] - ic.E) < 1e-8),
            },
        })
    _write_json(out / "report.json", report, digest)
    _write_json(out / "manifest.json", man, digest)
    print(json.dumps(report, indent=2, default=_jsonable))
    return 0


def cmd_simulate(args, out: Path):
    return _simulate_core(_read_json(args.config, "config"), out, want_compare=False)


def cmd_compare(args, out: Path):
    return _simulate_core(_read_json(args.config, "config"), out, want_compare=True)


def cmd_accept(args, out: Path):
    # imported here: no other command needs the suite's code
    from .acceptance import run_all

    results = run_all()
    man, digest = _manifest("accept", {}, None)
    table = [{"id": r.cid, "name": r.name, "passed": bool(r.passed),
              "seconds": round(r.seconds, 2), "stats": r.stats}
             for r in results]
    _write_json(out / "acceptance.json", {"criteria": table}, digest)
    _write_json(out / "manifest.json", man, digest)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="glassdyn",
        description="Two-time spin-glass dynamics: limit solver and finite-N validator")
    ap.add_argument("--out-dir", default="glassdyn_out", help="output directory")
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


def _check_out_dir(out: Path):
    """Refuse an --out-dir whose nearest existing path is not a directory."""
    near = out
    while not near.exists() and near != near.parent:
        near = near.parent
    if not near.is_dir():
        raise ConfigError(f"--out-dir {out}: {near} is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out_dir)
    try:
        _check_out_dir(out)
        return COMMANDS[args.command](args, out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except GlassdynError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
