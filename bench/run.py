"""Benchmark of `glassdyn solve` and `glassdyn compare` through the real CLI.

    python3 bench/run.py --workload solve_long --seed 1 --seconds 40 --trace 0

Each command runs in its own process (bench/worker.py calls
`glassdyn.cli.main`), one at a time: a closed loop with a single client.
``--trace 0`` repeats the workload's command until ``--seconds`` are used and
reports the median of each end-to-end metric over the commands.
``--trace 1`` alternates an untraced and a traced command and reports the
per-layer metrics.  Every command's outputs are checked; the last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
FINGERPRINTS = HERE / "fingerprints.json"

# acceptance-suite generic conditioned start (q_star, E, E_star, G_star, q_o)
GENERIC_START = {"q_star": 0.8,
                 "V": {"E": 0.5, "E_star": -0.3, "G_star": 0.4, "q_o": 0.35}}
PIN_SEED = 0          # compare seed whose results are pinned in fingerprints.json
COMMAND_TIMEOUT_S = 150.0
RTOL = 1e-9           # fingerprint tolerance (round-off; CSVs carry 12 digits)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str        # "solve" or "compare"
    params: dict


WORKLOADS = {w.name: w for w in (
    Workload("solve_long",
             "O(n^3) two-time solver at n = 900 plus the CSV output users get",
             "solve",
             {"mixture": {"2": 1.0, "3": 1.0}, "init": GENERIC_START,
              "beta": 0.5, "T": 4.5, "h": 0.005}),
    Workload("compare_large_n",
             "finite-N validator at N = 400, 8 paths: streaming the p = 3 tensor",
             "compare",
             {"mixture": {"coeffs": {"2": 1.0, "3": 0.1}},
              "init": {"gibbs": {"beta0": 0.2, "q_EA": 0.0}},
              "N": 400, "paths": 8, "beta": 0.3, "T": 0.1, "h_obs": 0.02,
              "substeps": 5}),
    Workload("compare_many_paths",
             "validator at N = 64, 64 paths: per-path mean swap and scoring",
             "compare",
             {"mixture": {"coeffs": {"2": 1.0, "3": 0.1}}, "init": GENERIC_START,
              "N": 64, "paths": 64, "beta": 0.3, "T": 0.3, "h_obs": 0.02,
              "substeps": 5}),
)}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "mixture.nu_calls": "count",
    "mixture.nu_calls_per_slice": "calls/slice",
    "mixture.nu_self_s": "s",
    "init_params.vfunc_calls": "count",
    "init_params.vfunc_self_s": "s",
    "init_params.solve_w_s": "s",
    "dynamics.solve_s": "s",
    "dynamics.slices": "count",
    "dynamics.ms_per_slice": "ms",
    "dynamics.self_s": "s",
    "dynamics.psd_check_s": "s",
    "dynamics.integrated_response_calls": "count",
    "hamiltonian.sample_s": "s",
    "hamiltonian.tensor_mb": "MB",
    "hamiltonian.grad_calls": "count",
    "hamiltonian.grad_self_s": "s",
    "hamiltonian.grad_ms_p50": "ms",
    "hamiltonian.grad_ms_tail": "ms",
    "hamiltonian.grad_tail_pct": "%",
    "hamiltonian.grad_eff_gbps": "GB/s",
    "hamiltonian.mean_swap_s": "s",
    "hamiltonian.value_s": "s",
    "langevin.integrate_s": "s",
    "langevin.self_s": "s",
    "langevin.path_steps_per_s": "1/s",
    "langevin.observables_s": "s",
    "langevin.score_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "machine.stream_gbps": "GB/s",
    "machine.stream_array_mb": "MB",
    "machine.llc_mb": "MB",
    "trace.overhead_frac": "1",
    "trace.spans": "count",
}


# ------------------------------------------------------------------ inputs

def command_seed(workload_seed: int, k: int) -> int:
    """Config seed of the k-th command: the pinned seed first, then drawn."""
    if k == 0:
        return PIN_SEED
    return random.Random(f"{workload_seed}:{k}").randrange(1, 2**31)


def write_inputs(wl: Workload, seed: int, d: Path) -> list[str]:
    """Write the workload's input files into d; return the CLI arguments."""
    d.mkdir(parents=True, exist_ok=True)
    p = wl.params
    if wl.command == "solve":
        (d / "mixture.json").write_text(json.dumps({"coeffs": p["mixture"]}))
        (d / "init.json").write_text(json.dumps(p["init"]))
        return ["solve", "--mixture", str(d / "mixture.json"),
                "--init", str(d / "init.json"), "--beta", repr(p["beta"]),
                "--T", repr(p["T"]), "--h", repr(p["h"])]
    cfg = dict(p, seed=seed)
    (d / "config.json").write_text(json.dumps(cfg))
    return ["compare", "--config", str(d / "config.json")]


# ------------------------------------------------------------------ checks

def _read_csv_tail(path: Path) -> tuple[str, dict]:
    """(manifest hash from the first line, last data row keyed by header)."""
    with path.open() as fh:
        first = fh.readline().strip()
        header = fh.readline().strip().split(",")
    with path.open("rb") as fh:
        fh.seek(max(0, path.stat().st_size - 4096))
        last = fh.read().decode().strip().splitlines()[-1]
    return first.partition("# manifest=")[2], dict(zip(header, map(float, last.split(","))))


def fingerprint(wl: Workload, out: Path) -> dict:
    """Results at s = T that a change of numerics would move."""
    if wl.command == "solve":
        _, row = _read_csv_tail(out / "onetime.csv")
        return {"s": row["s"], "q": row["q"], "H": row["H"], "mu": row["mu"]}
    _, row = _read_csv_tail(out / "onetime_N.csv")
    rep = json.loads((out / "report.json").read_text())
    return {"s": row["s"], "q_N": row["q_N"], "H_N": row["H_N"], "K_N": row["K_N"],
            "err_mean": rep["err_mean"], "err_ensemble": rep["err_ensemble"]}


def check_outputs(wl: Workload, out: Path, pinned: dict | None) -> list[str]:
    """Problems with one command's outputs; empty when they are correct."""
    errs = []
    digest = json.loads((out / "manifest.json").read_text())["manifest_hash"]
    for csv in sorted(out.glob("*.csv")):
        if _read_csv_tail(csv)[0] != digest:
            errs.append(f"{csv.name}: manifest hash missing or wrong")
    if wl.command == "solve":
        summ = json.loads((out / "summary.json").read_text())
        if summ["manifest_hash"] != digest:
            errs.append("summary.json: manifest hash wrong")
        if not summ["gram_min_eig"] >= -1e-6:
            errs.append(f"gram_min_eig {summ['gram_min_eig']}")
        cbar = summ["cbar_gram_min_eig"]
        if cbar is not None and not cbar >= -1e-6:
            errs.append(f"cbar_gram_min_eig {cbar}")
        if not summ["diag_R"] <= 1e-12:
            errs.append(f"diag_R {summ['diag_R']}")
        if not abs(summ["H0_minus_E"]) <= 1e-12:
            errs.append(f"H0_minus_E {summ['H0_minus_E']}")
    else:
        rep = json.loads((out / "report.json").read_text())
        if rep["manifest_hash"] != digest:
            errs.append("report.json: manifest hash wrong")
        if rep["invariants"]["H0_matches"] is not True:
            errs.append("H0_matches is not true")
        if not all(math.isfinite(rep[k]) for k in ("err_mean", "err_ensemble")):
            errs.append("non-finite error metric")
    if pinned is not None:
        got = fingerprint(wl, out)
        for key, want in pinned.items():
            if not math.isclose(got[key], want, rel_tol=RTOL, abs_tol=1e-12):
                errs.append(f"fingerprint {key}: {got[key]!r} != pinned {want!r}")
    return errs


# ------------------------------------------------------------------ commands

@dataclass
class Outcome:
    ok: bool
    wall_s: float
    setup_s: float | None
    rss_mib: float
    out: Path
    trace: dict | None
    errors: list


def run_command(wl: Workload, seed: int, d: Path, *, trace=False,
                pinned: dict | None = None, keep=False) -> Outcome:
    """Start one worker process, wait for it, and check what it wrote."""
    d.mkdir(parents=True)
    argv = write_inputs(wl, seed, d / "in")
    out, result = d / "out", d / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(result),
           "1" if trace else "0", "--",
           "--out-dir", str(out)] + argv
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(False, time.monotonic() - t0, None, 0.0, out, None,
                       [f"timed out after {COMMAND_TIMEOUT_S} s"])
    errs = []
    if proc.returncode != 0 or not result.exists():
        errs.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        res = {}
    else:
        res = json.loads(result.read_text())
        if not res["package"].startswith(str(ROOT / "src")):
            errs.append(f"imported glassdyn from {res['package']}")
        if res["entry"] is None:
            errs.append("no dynamics call was reached")
        else:
            try:
                errs += check_outputs(wl, out, pinned)
            except (OSError, KeyError, ValueError) as err:
                errs.append(f"unreadable output: {err!r}")
    wall = time.monotonic() - t0
    setup = res["entry"] - t0 if res.get("entry") is not None else None
    outcome = Outcome(not errs, wall, setup, res.get("maxrss_kb", 0) / 1024.0,
                      out, res.get("trace"), errs)
    if not keep:
        shutil.rmtree(d, ignore_errors=True)
    return outcome


# ------------------------------------------------------------------ machine

def _blas_threads() -> int | None:
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            cdll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(cdll, sym):
                return int(getattr(cdll, sym)())
    return None


def _llc_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def machine_facts() -> dict:
    import numpy as np
    git = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git": git, "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "llc_bytes": _llc_bytes()}


def stream_copy(llc_bytes: int | None) -> tuple[float, float]:
    """Single-thread copy bandwidth (GB/s, read + write) and array size (MB).

    Each array is four times the last-level cache, and at most a sixth of
    physical memory so the two arrays together stay under a third of it.
    """
    import numpy as np
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    nbytes = min(max(4 * (llc_bytes or 0), 256 * 2**20), phys // 6)
    a = np.ones(nbytes // 8)
    b = np.zeros_like(a)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(b, a)
        times.append(time.perf_counter() - t0)
    del a, b
    return 2 * nbytes / statistics.median(times) / 1e9, nbytes / 1e6


# ------------------------------------------------------------------ runs

def load_pins(wl: Workload) -> dict:
    pins = json.loads(FINGERPRINTS.read_text())
    if wl.name not in pins:
        raise SystemExit(f"no pinned fingerprint for {wl.name} in {FINGERPRINTS}")
    return pins[wl.name]


def measure(wl: Workload, seed: int, seconds: float, tmp: Path):
    """Untraced closed loop: one command after another until time is up."""
    pins = load_pins(wl)
    deadline = time.monotonic() + seconds
    walls, setups, rss, fails = [], [], [], []
    k, last = 0, 0.0
    while k == 0 or time.monotonic() + last <= deadline:
        s = command_seed(seed, k)
        o = run_command(wl, s, tmp / f"c{k}", pinned=pins if s == PIN_SEED else None)
        if o.ok:
            walls.append(o.wall_s)
            setups.append(o.setup_s)
            rss.append(o.rss_mib)
        else:
            fails.append(o.errors)
        last = o.wall_s
        k += 1
    metrics, counts = {}, {}
    for name, vals in (("wall_s", walls), ("setup_s", setups), ("peak_rss_mb", rss)):
        if vals:
            metrics[name] = statistics.median(vals)
            counts[name] = len(vals)
    return metrics, counts, k, fails


def measure_traced(wl: Workload, seed: int, seconds: float, tmp: Path, llc):
    """Pairs of untraced and traced commands; per-layer metrics from the traced."""
    from tracing import layer_metrics
    pins = load_pins(wl)
    gbps, array_mb = stream_copy(llc)
    deadline = time.monotonic() + seconds
    plain, traced, layers, fails, attempts = [], [], [], [], 0
    k, last = 0, 0.0
    while k == 0 or time.monotonic() + last <= deadline:
        t0 = time.monotonic()
        s = command_seed(seed, k)
        pinned = pins if s == PIN_SEED else None
        u = run_command(wl, s, tmp / f"u{k}", pinned=pinned)
        t = run_command(wl, s, tmp / f"t{k}", trace=True, pinned=pinned, keep=True)
        attempts += 2
        for o in (u, t):
            if not o.ok:
                fails.append(o.errors)
        if u.ok and t.ok:
            plain.append(u.wall_s)
            traced.append(t.wall_s)
            m = layer_metrics(t.trace)
            m["cli.bytes_written"] = float(sum(f.stat().st_size for f in t.out.iterdir()))
            m["trace.spans"] = float(len(t.trace["spans"]))
            layers.append(m)
        shutil.rmtree(tmp / f"t{k}", ignore_errors=True)
        last = time.monotonic() - t0
        k += 1
    metrics, counts = {}, {}
    if layers:
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
        counts = {name: len(layers) for name in metrics}
    metrics["machine.stream_gbps"] = gbps
    metrics["machine.stream_array_mb"] = array_mb
    metrics["machine.llc_mb"] = (llc or 0) / 1e6
    return metrics, counts, attempts, fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "glassdyn" / "cli.py").is_file():
        print(f"glassdyn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    facts = machine_facts()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{wl.name}-"))
    try:
        if args.trace:
            metrics, counts, attempts, fails = measure_traced(
                wl, args.seed, args.seconds, tmp, facts["llc_bytes"])
            units = PER_LAYER
        else:
            metrics, counts, attempts, fails = measure(wl, args.seed, args.seconds, tmp)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {wl.name}: {wl.why}")
    print(f"machine {json.dumps(facts)}")
    for name, unit in units.items():
        if name in metrics:
            n = counts.get(name)
            print(f"  {name:<36} {metrics[name]:>14.6g} {unit:<12}"
                  + (f" median of {n}" if n else ""))
    print(f"  {'ops_failed_frac':<36} {len(fails) / attempts:>14.6g} {'1':<12}"
          f" {len(fails)} of {attempts} commands")
    for errs in fails:
        print(f"  failed: {'; '.join(errs)}")
    missing = [name for name in units if name not in metrics]
    print(json.dumps({
        "correct": not fails and not missing,
        "attempted": attempts,
        "failed": len(fails),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
