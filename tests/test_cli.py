"""Command-line interface: outputs, manifests, exit codes, reproducibility."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glassdyn
from glassdyn.cli import TRIANGLE_MAGIC, main
from glassdyn.dynamics import SolverConfig, solve_dynamics
from glassdyn.init_params import InitCondition
from glassdyn.mixture import Mixture
from glassdyn.phase import beta_c_dyn, beta_c_stat, classify

GENERIC_INIT = {"q_star": 0.8,
                "V": {"E": 0.5, "E_star": -0.3, "G_star": 0.4, "q_o": 0.35}}


def reference_csv(digest, header, rows):
    """The row-tuple formatter the streamed writer replaced: the byte oracle."""
    lines = [f"# manifest={digest}", header]
    lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def manifest_hash(out):
    return json.loads((out / "manifest.json").read_text())["manifest_hash"]


@pytest.fixture
def files(tmp_path):
    mix = tmp_path / "mix.json"
    mix.write_text('{"coeffs": {"2": 1.0, "3": 1.0}}')
    init = tmp_path / "init.json"
    init.write_text('{"q_star": 0.0, "V": {"E": 0.0}}')
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "mixture": {"coeffs": {"2": 1.0}},
        "init": {"q_star": 0.0, "V": {"E": 0.12}},
        "N": 40, "beta": 0.3, "T": 0.5, "h_obs": 0.05, "paths": 2, "seed": 3,
    }))
    return {"mix": mix, "init": init, "sim": sim, "dir": tmp_path}


class TestPhase:
    def test_writes_csv_with_manifest(self, files):
        out = files["dir"] / "out"
        rc = main(["--out-dir", str(out), "phase", "--mixture",
                   str(files["mix"]), "--beta-grid", "0.1:0.5:3"])
        assert rc == 0
        lines = (out / "phase.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1] == "beta,q_d,regime,beta_c_dyn,beta_c_stat"
        assert len(lines) == 5
        man = json.loads((out / "manifest.json").read_text())
        assert lines[0].split("=")[1] == man["manifest_hash"]

    def test_bad_grid_is_config_error(self, files):
        rc = main(["--out-dir", str(files["dir"] / "o"), "phase", "--mixture",
                   str(files["mix"]), "--beta-grid", "nope"])
        assert rc == 2

    def test_csv_bytes_match_row_formatter(self, files):
        out = files["dir"] / "out"
        assert main(["--out-dir", str(out), "phase", "--mixture",
                     str(files["mix"]), "--beta-grid", "0.05:2.5:30"]) == 0
        m = Mixture({2: 1.0, 3: 1.0})
        bcd, bcs = beta_c_dyn(m), beta_c_stat(m)
        rows = []
        for beta in np.linspace(0.05, 2.5, 30):
            pp = classify(m, beta, bcd=bcd, bcs=bcs)
            rows.append((float(beta), float(pp.q_d), pp.regime, bcd, bcs))
        assert {r[2] for r in rows} == {"RS", "RSB-region"}
        want = reference_csv(manifest_hash(out),
                             "beta,q_d,regime,beta_c_dyn,beta_c_stat", rows)
        assert (out / "phase.csv").read_bytes() == want


class TestParams:
    def test_report(self, files, capsys):
        out = files["dir"] / "out"
        rc = main(["--out-dir", str(out), "params", "--mixture",
                   str(files["mix"]), "--init", str(files["init"]),
                   "--beta", "0.3"])
        assert rc == 0
        rep = json.loads((out / "params.json").read_text())
        assert rep["branch"] == "rs"
        assert rep["w"][0] == 0.0
        # E = 0 is not the equilibrium value at beta = 0.3
        assert not rep["stationary"]["admissible"]


class TestSolve:
    def test_outputs_and_binary_dump(self, files):
        out = files["dir"] / "out"
        rc = main(["--out-dir", str(out), "solve", "--mixture",
                   str(files["mix"]), "--init", str(files["init"]),
                   "--beta", "0.0", "--T", "0.5", "--h", "0.01",
                   "--stride", "5", "--dump-triangle"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gram_min_eig"] > -1e-6
        assert abs(summary["H0_minus_E"]) < 1e-12
        blob = (out / "triangle.bin").read_bytes()
        assert blob[:8] == TRIANGLE_MAGIC
        n, h = struct.unpack_from("<qd", blob, 8)
        assert n == 50 and h == 0.01
        # payload: two lower triangles of doubles
        assert len(blob) == 8 + 16 + 2 * 8 * (n + 1) * (n + 2) // 2
        first_row = np.frombuffer(blob, dtype="<f8", count=1, offset=24)
        assert first_row[0] == 1.0

    @pytest.mark.parametrize("stride", [1, 3])
    def test_csv_bytes_match_row_formatter(self, files, stride):
        init = files["dir"] / "generic.json"
        init.write_text(json.dumps(GENERIC_INIT))
        out = files["dir"] / f"out{stride}"
        assert main(["--out-dir", str(out), "solve", "--mixture",
                     str(files["mix"]), "--init", str(init), "--beta", "0.5",
                     "--T", "0.5", "--h", "0.01", "--stride", str(stride)]) == 0
        m = Mixture({2: 1.0, 3: 1.0})
        ic = InitCondition.from_dict(GENERIC_INIT, m)
        sol = solve_dynamics(m, ic, SolverConfig(beta=0.5, T=0.5, h=0.01))
        digest = manifest_hash(out)
        rows = []
        for i in range(0, sol.n + 1, stride):
            for j in range(0, i + 1, stride):
                rows.append((i * sol.h, j * sol.h, float(sol.C[i, j]),
                             float(sol.R[i, j])))
        assert (out / "triangle.csv").read_bytes() == reference_csv(
            digest, "s,t,C,R", rows)
        one = [(i * sol.h, float(sol.q[i]), float(sol.K[i]), float(sol.mu[i]),
                float(sol.L[i]), float(sol.H[i])) for i in range(sol.n + 1)]
        assert (out / "onetime.csv").read_bytes() == reference_csv(
            digest, "s,q,K,mu,L,H", one)

    def test_beta0_matches_closed_form(self, files):
        out = files["dir"] / "out"
        main(["--out-dir", str(out), "solve", "--mixture", str(files["mix"]),
              "--init", str(files["init"]), "--beta", "0.0", "--T", "0.5",
              "--h", "0.01"])
        rows = np.loadtxt(out / "onetime.csv", delimiter=",", skiprows=2)
        s, mu = rows[:, 0], rows[:, 3]
        np.testing.assert_allclose(mu, 0.5, atol=1e-12)


class TestSimulateCompare:
    def test_compare_report(self, files):
        out = files["dir"] / "out"
        rc = main(["--out-dir", str(out), "compare", "--config",
                   str(files["sim"])])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert 0.0 < rep["err_mean"] <= 4.0
        assert rep["invariants"]["H0_matches"]

    def test_reproducible_given_seed(self, files):
        out1, out2 = files["dir"] / "a", files["dir"] / "b"
        main(["--out-dir", str(out1), "simulate", "--config", str(files["sim"])])
        main(["--out-dir", str(out2), "simulate", "--config", str(files["sim"])])
        assert (out1 / "C_N.csv").read_text() == (out2 / "C_N.csv").read_text()

    def test_threads_flag_reproducible(self, files):
        # bit-identity is promised per config; threads is part of the config
        # because path grouping changes BLAS kernel shapes
        out1, out2 = files["dir"] / "t1", files["dir"] / "t2"
        for out in (out1, out2):
            main(["--out-dir", str(out), "--threads", "2", "simulate",
                  "--config", str(files["sim"])])
        assert (out1 / "C_N.csv").read_text() == (out2 / "C_N.csv").read_text()


class TestErrors:
    def test_missing_mixture_file(self, files):
        rc = main(["--out-dir", str(files["dir"] / "x"), "phase", "--mixture",
                   str(files["dir"] / "absent.json"), "--beta-grid", "0:1:2"])
        assert rc == 2

    def test_nan_beta_is_config_error_without_traceback(self, files):
        src = str(Path(glassdyn.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "glassdyn.cli", "--out-dir",
             str(files["dir"] / "z"), "solve", "--mixture", str(files["mix"]),
             "--init", str(files["init"]), "--beta", "nan", "--T", "0.5",
             "--h", "0.01"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "beta" in proc.stderr

    def test_malformed_config(self, files):
        bad = files["dir"] / "bad.json"
        bad.write_text("{not json")
        rc = main(["--out-dir", str(files["dir"] / "y"), "simulate",
                   "--config", str(bad)])
        assert rc == 2
