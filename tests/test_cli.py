"""Command-line interface: outputs, manifests, exit codes, reproducibility."""

import json
import os
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import glassdyn
from glassdyn import acceptance, cli
from glassdyn.cli import TRIANGLE_MAGIC, main
from glassdyn.dynamics import SolverConfig, solve_dynamics
from glassdyn.init_params import InitCondition
from glassdyn.mixture import Mixture
from glassdyn.phase import beta_c_dyn, beta_c_stat, classify

GENERIC_INIT = {"q_star": 0.8,
                "V": {"E": 0.5, "E_star": -0.3, "G_star": 0.4, "q_o": 0.35}}
# a band start off the edge |q_o| = q_star: it needs N >= 2
BAND_INIT = {"q_star": 0.7, "V": {"E": 0.4, "q_o": 0.3}}


def reference_csv(digest, header, rows):
    """The row-tuple formatter the streamed writer replaced: the byte oracle."""
    lines = [f"# manifest={digest}", header]
    lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _run_cli(argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = str(Path(glassdyn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "glassdyn.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _sim_config(files, **changes):
    """The fixture's simulate config with some keys replaced, as a file path.

    A change to None removes the key.
    """
    cfg = dict(json.loads(files["sim"].read_text()), **changes)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    path = files["dir"] / f"sim_{'_'.join(changes)}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _mixture_file(files, coeffs):
    """A mixture file with these coeffs, as a path; one per test."""
    path = files["dir"] / "coeffs.json"
    path.write_text(json.dumps({"coeffs": coeffs}))
    return str(path)


def _init_file(files, spec):
    """An init file holding this spec, as a path; one per test."""
    path = files["dir"] / "init_spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _text_file(files, text):
    """A file holding this text, as a path; one per test."""
    path = files["dir"] / "input.json"
    path.write_text(text)
    return str(path)


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

    def test_tiny_weight_has_its_critical_beta(self, files):
        # the beta search gave up at 1e8 with exit 1; beta_c scales as 1/sqrt(b_2^2)
        out = files["dir"] / "tiny"
        assert main(["--out-dir", str(out), "phase", "--mixture",
                     _mixture_file(files, {"2": 1e-300}), "--beta-grid", "0:1:2"]) == 0
        row = (out / "phase.csv").read_text().splitlines()[2].split(",")
        assert float(row[3]) == pytest.approx(1 / np.sqrt(8e-300), rel=1e-9)
        assert float(row[4]) == pytest.approx(1 / np.sqrt(8e-300), rel=1e-9)

    def test_stdout_prints_the_critical_betas_short(self, files, capsys):
        # :.6f printed beta_c_dyn = 3.5e149 as a 150-digit integer
        out = files["dir"] / "tiny"
        assert main(["--out-dir", str(out), "phase", "--mixture",
                     _mixture_file(files, {"2": 1e-300}), "--beta-grid", "0:1:2"]) == 0
        line = capsys.readouterr().out.strip()
        assert len(line) < len(str(out)) + 80
        printed = dict(kv.split("=") for kv in line.split("(")[1].rstrip(")").split(", "))
        row = (out / "phase.csv").read_text().splitlines()[2].split(",")
        for key, csv_value in (("beta_c_dyn", row[3]), ("beta_c_stat", row[4])):
            assert float(printed[key]) == pytest.approx(float(csv_value), rel=5e-6)
            assert float(csv_value) > 1e149


class TestWriteCsv:
    @pytest.mark.parametrize("chunk_rows", [2, 1 << 15])
    def test_blocks_match_row_formatter(self, tmp_path, monkeypatch, chunk_rows):
        # blocks of arrays and lists, float/str/int columns, blocks of uneven
        # length, and (chunk_rows 2) blocks longer than one chunk
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        blocks = [
            [np.array([0.1]), ["a"], np.array([3]), [1.0 / 3.0]],
            [np.array([2.5, -1e-20, 7.0]), ["b", "c", "d"], np.array([4, 5, 6]),
             [np.pi, 2.0, float("inf")]],
            [[0.5, 0.25], ("e", "f"), [7, 8], np.array([1e300, -0.0])],
        ]
        rows = [row for block in blocks
                for row in zip(*(np.asarray(c).tolist() for c in block))]
        cli._write_csv(tmp_path / "x.csv", "a,b,c,d", blocks, "abc")
        assert (tmp_path / "x.csv").read_bytes() == reference_csv("abc", "a,b,c,d", rows)

    def test_generator_of_blocks(self, tmp_path):
        # the triangle writers pass a generator, which can be read only once
        blocks = ([[float(i)] * (i + 1), np.arange(i + 1) * 0.5] for i in range(4))
        cli._write_csv(tmp_path / "g.csv", "s,t", blocks, "d")
        rows = [(float(i), 0.5 * j) for i in range(4) for j in range(i + 1)]
        assert (tmp_path / "g.csv").read_bytes() == reference_csv("d", "s,t", rows)


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

    def test_band_edge_residual_is_null(self, files):
        # a band edge is never stationary, with residual inf, which JSON
        # cannot hold: params.json must parse without Infinity or NaN
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        mix = files["dir"] / "mix234.json"
        mix.write_text('{"coeffs": {"2": 1.0, "3": 1.0, "4": 0.5}}')
        init = files["dir"] / "edge.json"
        init.write_text(json.dumps({"q_star": 0.6, "V": {
            "E": 0.3, "E_star": 0.1, "G_star": 0.5, "q_o": -0.6}}))
        out = files["dir"] / "out"
        assert main(["--out-dir", str(out), "params", "--mixture", str(mix),
                     "--init", str(init), "--beta", "0.3"]) == 0
        rep = json.loads((out / "params.json").read_text(), parse_constant=refuse)
        assert rep["branch"] == "degenerate"
        assert rep["stationary"] == {"admissible": False, "residual": None,
                                     "beta": 0.3}


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
        # the whole payload, against the triangles gathered by index
        sol = solve_dynamics(Mixture({2: 1.0, 3: 1.0}), InitCondition(0.0, 0.0),
                             SolverConfig(beta=0.0, T=0.5, h=0.01))
        tri = np.tril_indices(n + 1)
        assert blob[24:] == (sol.C[tri].astype("<f8").tobytes()
                             + sol.R[tri].astype("<f8").tobytes())

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

    def test_tiny_q_star_is_an_rs_start(self, files):
        # q_star = 1e-200 is replica-symmetric (InitCondition.is_rs), so the
        # band-centered Gram check, which divides by q_star^2, is not run
        init = files["dir"] / "tiny.json"
        init.write_text('{"q_star": 1e-200, "V": {"E": 0.3}}')
        out = files["dir"] / "tiny"
        assert main(["--out-dir", str(out), "solve", "--mixture", str(files["mix"]),
                     "--init", str(init), "--beta", "0.5", "--T", "0.2",
                     "--h", "0.01"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cbar_gram_min_eig"] is None

    def test_summary_checks_hold_no_square_array(self, alloc_peak):
        n = 300
        sol = solve_dynamics(Mixture({2: 1.0, 3: 1.0}),
                             InitCondition.from_dict(GENERIC_INIT),
                             SolverConfig(beta=0.5, T=n * 0.01, h=0.01))
        checks, peak = alloc_peak(lambda: cli._solve_checks(sol))
        # |C| alone was an (n+1)^2 float array
        assert peak < (n + 1) ** 2 * 8
        for far in (-3.0, 2.5):
            sol.C[200, 7] = sol.C[7, 200] = far
            assert cli._solve_checks(sol)["max_abs_C"] == abs(far)

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

    def test_confined_paths_are_scored_against_the_f_limit(self, files):
        # fconfined paths run at the slope of the limit variant 'f' and are
        # scored against f:ELL, not against the hard sphere
        out = files["dir"] / "out"
        rc = main(["--out-dir", str(out), "compare", "--config",
                   _sim_config(files, variant="fconfined", ell=2.0)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        m = Mixture({2: 1.0})
        ic = InitCondition(0.0, 0.12)
        f_lim, sph = (solve_dynamics(m, ic, SolverConfig(
            beta=0.3, T=0.5, h=0.025, variant=v, ell=ell)).gram_min_eig()
            for v, ell in (("f", 2.0), ("spherical", None)))
        assert f_lim != sph
        assert rep["invariants"]["gram_min_eig"] == f_lim

    def test_radius_bound_key_is_refused(self, files):
        # nu is a polynomial, so a mixture takes no validity radius: the key
        # is an unknown key on every command that reads a mixture
        mixture = {"coeffs": {"2": 1.0}, "radius_bound": 2.0}
        mix = files["dir"] / "bounded.json"
        mix.write_text(json.dumps(mixture))
        runs = [["solve", "--mixture", str(mix), "--init", str(files["init"]), "--beta",
                 "0.3", "--T", "0.1", "--h", "0.01"]]
        runs += [[command, "--config", _sim_config(files, mixture=mixture)]
                 for command in ("simulate", "compare")]
        for argv in runs:
            proc = _run_cli(["--out-dir", str(files["dir"] / argv[0]), *argv])
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert "mixture key 'radius_bound' is not known" in proc.stderr

    def test_tiny_q_star_compares_as_the_rs_start(self, files):
        # q_star = 1e-200 is the RS start: x_star is zero, so q_N is
        # identically 0, and every CSV matches the q_star = 0 run below its
        # manifest line (the configs, hence the hashes, differ)
        bodies = {}
        for q_star in (0.0, 1e-200):
            out = files["dir"] / f"q{q_star}"
            assert main(["--out-dir", str(out), "compare", "--config", _sim_config(
                files, init={"q_star": q_star, "V": {"E": 0.12}})]) == 0
            bodies[q_star] = {name: (out / name).read_bytes().split(b"\n", 1)[1]
                              for name in ("C_N.csv", "chi_N.csv", "onetime_N.csv")}
        assert bodies[1e-200] == bodies[0.0]
        one = np.loadtxt(files["dir"] / "q1e-200" / "onetime_N.csv", delimiter=",",
                         skiprows=2)
        assert np.all(one[:, 1] == 0.0)

    def test_band_edge_start_at_n_one(self, files):
        # N = 1 holds only the band edge |q_o| = q_star, whose start is the
        # axis point itself; three powers leave the edge's values free
        init = {"q_star": 0.7, "V": {"E": 0.4, "E_star": -0.3, "G_star": 0.25,
                                     "q_o": 0.7}}
        out = files["dir"] / "edge"
        with warnings.catch_warnings():
            # no 0/0 on the way: the start is not drawn off the axis
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--out-dir", str(out), "simulate", "--config", _sim_config(
                files, mixture={"coeffs": {"2": 1.0, "3": 1.0, "4": 0.5}},
                init=init, N=1)]) == 0
        one = np.loadtxt(out / "onetime_N.csv", delimiter=",", skiprows=2)
        assert one[0, 1] == pytest.approx(0.7, abs=1e-15)

    def test_reproducible_given_seed(self, files):
        out1, out2 = files["dir"] / "a", files["dir"] / "b"
        main(["--out-dir", str(out1), "simulate", "--config", str(files["sim"])])
        main(["--out-dir", str(out2), "simulate", "--config", str(files["sim"])])
        assert (out1 / "C_N.csv").read_text() == (out2 / "C_N.csv").read_text()

    def test_integral_floats_are_integers(self, files):
        # 40.0 is the integer 40; only the manifest line differs
        out1, out2 = files["dir"] / "int", files["dir"] / "float"
        main(["--out-dir", str(out1), "simulate", "--config", str(files["sim"])])
        assert main(["--out-dir", str(out2), "simulate", "--config",
                     _sim_config(files, N=40.0, paths=2.0, seed=3.0,
                                 substeps=5.0)]) == 0
        body1, body2 = ((out / "C_N.csv").read_text().split("\n", 1)[1]
                        for out in (out1, out2))
        assert body1 == body2


def _stub_criterion(cid, seconds):
    def criterion():
        time.sleep(seconds)
        return acceptance.CriterionResult(cid, f"stub {cid}", True, {"err": 0.0})
    return criterion


class TestAccept:
    def test_table_exit_code_and_runtime_cap(self, tmp_path, monkeypatch, capsys):
        # two stubs stand in for the suite; the second overruns its cap
        monkeypatch.setattr(acceptance, "CRITERIA",
                            [_stub_criterion(1, 0.0), _stub_criterion(2, 0.02)])
        monkeypatch.setattr(acceptance, "RUNTIME_CAPS", {2: 0.01})
        out = tmp_path / "capped"
        assert main(["--out-dir", str(out), "accept"]) == 1
        table = json.loads((out / "acceptance.json").read_text())
        assert [(row["id"], row["passed"], row["stats"].get("runtime_cap_exceeded"))
                for row in table["criteria"]] == [(1, True, None), (2, False, 0.01)]
        assert table["manifest_hash"] == manifest_hash(out)
        assert capsys.readouterr().out.endswith("1/2 acceptance criteria passed\n")
        monkeypatch.setattr(acceptance, "RUNTIME_CAPS", {})
        out = tmp_path / "uncapped"
        assert main(["--out-dir", str(out), "accept"]) == 0
        table = json.loads((out / "acceptance.json").read_text())
        assert [row["passed"] for row in table["criteria"]] == [True, True]


class TestErrors:
    @pytest.mark.parametrize("q_o", [1.0, -1.0])
    @pytest.mark.parametrize("command", ["solve", "params", "compare"])
    def test_qo_one_start_is_one_config_error_line(self, files, monkeypatch, capsys,
                                                   command, q_o):
        # the start is +-x_star: refused with the start, before any draw
        def no_draw(*args):
            raise AssertionError("the coupling tensor was drawn")

        monkeypatch.setattr(cli, "sample_system", no_draw)
        init = {"q_star": 1.0, "V": {"E": 0.5, "E_star": 0.5, "G_star": 0.3, "q_o": q_o}}
        if command == "compare":
            argv = ["--config", _sim_config(files, mixture={"coeffs": {"2": 1, "3": 1}},
                                            init=init)]
        else:
            path = files["dir"] / "qo_one.json"
            path.write_text(json.dumps(init))
            argv = ["--mixture", str(files["mix"]), "--init", str(path), "--beta", "0.5"]
        rc = main(["--out-dir", str(files["dir"] / "q"), command, *argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith(f"config error: q_o = {q_o}: ")

    def test_missing_mixture_file(self, files):
        rc = main(["--out-dir", str(files["dir"] / "x"), "phase", "--mixture",
                   str(files["dir"] / "absent.json"), "--beta-grid", "0:1:2"])
        assert rc == 2

    def test_nan_beta_is_config_error_without_traceback(self, files):
        proc = _run_cli(["--out-dir", str(files["dir"] / "z"), "solve",
                         "--mixture", str(files["mix"]), "--init",
                         str(files["init"]), "--beta", "nan", "--T", "0.5",
                         "--h", "0.01"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "beta" in proc.stderr

    def test_threads_key_is_config_error_without_traceback(self, files):
        cfg = json.loads(files["sim"].read_text())
        cfg["threads"] = 2
        sim = files["dir"] / "threads.json"
        sim.write_text(json.dumps(cfg))
        proc = _run_cli(["--out-dir", str(files["dir"] / "t"), "simulate",
                         "--config", str(sim)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "'threads'" in proc.stderr

    @pytest.mark.parametrize("argv, named", [
        (lambda f: ["simulate", "--config", str(f["dir"] / "missing.json")],
         "missing.json"),
        (lambda f: ["simulate", "--config",
                    _sim_config(f, mixture={"coeffs": {"two": 1.0}})], "coeffs"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "0.3", "--variant", "f:abc"], "f:abc"),
        (lambda f: ["simulate", "--config", _sim_config(f, N="abc")], "'N'"),
        (lambda f: ["simulate", "--config", _sim_config(f, paths=0)], "paths"),
        (lambda f: ["simulate", "--config", _sim_config(f, N=0)], "'N'"),
        (lambda f: ["simulate", "--config", _sim_config(f, N=-3)], "'N'"),
        (lambda f: ["simulate", "--config", _sim_config(f, seed=-1)], "'seed'"),
        (lambda f: ["simulate", "--config", _sim_config(f, N=None)],
         "config key 'N' is missing"),
        (lambda f: ["simulate", "--config", _sim_config(f, N=40.7)], "'N'"),
        (lambda f: ["simulate", "--config", _sim_config(f, paths=2.5)], "'paths'"),
        (lambda f: ["simulate", "--config", _sim_config(f, seed=1.5)], "'seed'"),
        (lambda f: ["simulate", "--config", _sim_config(f, substeps=2.9)], "'substeps'"),
        (lambda f: ["simulate", "--config", _sim_config(f, substep=10)], "'substep'"),
        (lambda f: ["compare", "--config", _sim_config(f, h_limit=0.02)], "'h_limit'"),
        (lambda f: ["simulate", "--config", _sim_config(f, ell=5.0)], "'ell'"),
        (lambda f: ["fdt", "--mixture", str(f["mix"]), "--beta", "1e200",
                    "--gamma", "0.5"], "beta"),
        (lambda f: ["simulate", "--config", _sim_config(f, N=1, init=BAND_INIT)],
         "N = 1"),
        (lambda f: ["params", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "nan"], "beta must be finite"),
        (lambda f: ["params", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "inf"], "beta must be finite"),
        (lambda f: ["phase", "--mixture", str(f["mix"]), "--beta-grid", "nan:1:3"],
         "nan:1:3"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "0.3", "--stride", "0"], "--stride"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "0.3", "--stride", "-3"], "--stride"),
        (lambda f: ["fdt", "--mixture", str(f["mix"]), "--beta", "0.3",
                    "--gamma", "0.5", "--T", "1", "--h", "0"], "--h must be positive"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "0.3", "--T", "1e300", "--h", "1e-300"], "T / h"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "0.3", "--T", "1", "--h", "1e-320"], "T / h"),
        (lambda f: ["compare", "--config", _sim_config(f, h_obs=1e-320)], "h_obs"),
        (lambda f: ["compare", "--config", _sim_config(f, h_limit=1e-320)], "'h_limit'"),
        (lambda f: ["phase", "--mixture", str(f["dir"]), "--beta-grid", "0:1:2"],
         "mixture file"),
        (lambda f: ["--out-dir", str(f["mix"]), "phase", "--mixture", str(f["mix"]),
                    "--beta-grid", "0:1:2"], "--out-dir"),
        (lambda f: ["simulate", "--config", _sim_config(f, N=True)], "'N'"),
        (lambda f: ["simulate", "--config", _sim_config(f, paths=True)], "'paths'"),
        (lambda f: ["simulate", "--config", _sim_config(f, seed=True)], "'seed'"),
        (lambda f: ["simulate", "--config", _sim_config(f, substeps=True)], "'substeps'"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "0.3", "--T", "1e300", "--h", "1"], "T / h"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", str(f["init"]),
                    "--beta", "0.3", "--T", "1e19", "--h", "1"], "T / h"),
        (lambda f: ["fdt", "--mixture", str(f["mix"]), "--beta", "0.3",
                    "--gamma", "0.5", "--T", "1e300", "--h", "1"], "--T / --h"),
        # below sys.maxsize points, but numpy refuses arrays that long with a
        # ValueError, where a grid numpy asks memory for is a MemoryError
        (lambda f: ["fdt", "--mixture", str(f["mix"]), "--beta", "0.3",
                    "--gamma", "0.5", "--T", "2e18", "--h", "1"], "--T / --h"),
        (lambda f: ["phase", "--mixture", str(f["mix"]), "--beta-grid",
                    "0:1:100000000000000000000"], "0:1:100000000000000000000"),
        (lambda f: ["phase", "--mixture", str(f["mix"]), "--beta-grid",
                    "0:1:2000000000000000000"], "0:1:2000000000000000000"),
        # numpy refused the dense coefficient array: "Maximum allowed dimension"
        (lambda f: ["phase", "--mixture", _mixture_file(
            f, {"2": 1.0, "100000000000000000000": 1.0}), "--beta-grid", "0:1:2"],
         "mixture power 100000000000000000000"),
        # built with inf coefficients of nu'; the phase then blamed small weights
        (lambda f: ["phase", "--mixture", _mixture_file(f, {"2": 1e308, "3": 1e308}),
                    "--beta-grid", "0:1:2"], "mixture weights {2: 1e+308, 3: 1e+308}"),
        # each of these ran, with the typo's value ignored
        (lambda f: ["params", "--mixture", str(f["mix"]), "--init", _init_file(
            f, {"gibbs": {"beta0": 0.3, "qEA": 0.5}}), "--beta", "0.3"],
         "gibbs key 'qEA' is not known"),
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init", _init_file(
            f, {"q_star": 0.7, "V": {"E": 0.4, "Estar": -0.3}}), "--beta", "0.3"],
         "V key 'Estar' is not known"),
        (lambda f: ["params", "--mixture", str(f["mix"]), "--init", _init_file(
            f, {"gibbs": {"beta0": 0.3}, "V": {"E": 0.0}}), "--beta", "0.3"],
         "init spec key 'V' is not known"),
        (lambda f: ["simulate", "--config", _sim_config(
            f, mixture={"coeffs": {"2": 1.0}, "radius": 0.5})],
         "mixture key 'radius' is not known"),
        # the last key for a power won: this ran as {2: 5.0}
        (lambda f: ["simulate", "--config", _sim_config(
            f, mixture={"coeffs": {"2": 1.0, "02": 5.0}})], "mixture coeffs key '02'"),
        # json kept the last of two equal keys: this ran as {2: 1e-300}
        (lambda f: ["phase", "--mixture", _text_file(
            f, '{"coeffs": {"2": 1.0, "2": 1e-300}}'), "--beta-grid", "0:1:2"],
         "gives the key '2' twice"),
    ], ids=["missing-config", "mixture-key", "variant-ell", "N-string", "no-paths",
            "N-zero", "N-negative", "seed-negative", "N-missing", "N-fraction",
            "paths-fraction", "seed-fraction", "substeps-fraction", "substep-typo",
            "h_limit-not-dividing-h_obs", "ell-without-fconfined",
            "fdt-kernel-overflow", "band-start-at-N-one", "params-nan-beta",
            "params-inf-beta-rs", "phase-nan-grid", "solve-stride-zero",
            "solve-stride-negative", "fdt-zero-step", "solve-ratio-overflow",
            "solve-subnormal-step", "compare-subnormal-h_obs",
            "compare-subnormal-h_limit", "mixture-is-a-directory",
            "out-dir-is-a-file", "N-true", "paths-true", "seed-true", "substeps-true",
            "solve-unindexable-grid", "solve-grid-past-2^63", "fdt-unindexable-grid",
            "fdt-grid-past-array-size", "phase-grid-past-2^63", "phase-grid-past-array-size",
            "phase-power-past-the-largest", "phase-weights-overflow-nu",
            "params-gibbs-key-typo", "solve-V-key-typo", "params-gibbs-and-V",
            "simulate-mixture-key-typo", "simulate-two-keys-for-one-power",
            "phase-repeated-json-key"])
    def test_bad_input_is_config_error_without_traceback(self, files, argv, named):
        proc = _run_cli(["--out-dir", str(files["dir"] / "e"), *argv(files)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr

    @pytest.mark.parametrize("argv, named", [
        (lambda f: ["fdt", "--mixture", str(f["mix"]), "--beta", "0.3",
                    "--gamma", "-5"], "increase gamma"),
        # numpy's overflow warnings, with their source lines, came first
        (lambda f: ["solve", "--mixture", str(f["mix"]), "--init",
                    _init_file(f, GENERIC_INIT), "--beta", "40", "--T", "2",
                    "--h", "0.01"], "at slice 3"),
    ], ids=["fdt-gamma-too-small", "solve-blow-up"])
    def test_failed_computation_is_one_line_exit_1_without_traceback(self, files, argv,
                                                                     named):
        proc = _run_cli(["--out-dir", str(files["dir"] / "e"), *argv(files)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
        assert named in proc.stderr

    @pytest.mark.parametrize("bad", [True, "0.5"], ids=["true", "string"])
    @pytest.mark.parametrize("command, changes, named", [
        ("simulate", lambda v: {"beta": v}, "config key 'beta'"),
        ("simulate", lambda v: {"T": v}, "config key 'T'"),
        ("simulate", lambda v: {"h_obs": v}, "config key 'h_obs'"),
        ("simulate", lambda v: {"variant": "fconfined", "ell": v}, "config key 'ell'"),
        ("compare", lambda v: {"h_limit": v}, "config key 'h_limit'"),
        ("simulate", lambda v: {"mixture": {"coeffs": {"2": v}}}, "b_2^2"),
        ("simulate", lambda v: {"init": {"q_star": v, "V": {"E": 0.12}}}, "q_star"),
        ("simulate", lambda v: {"init": {"q_star": 0.0, "V": {"E": v}}}, "E"),
        ("simulate", lambda v: {"init": {"q_star": 0.7, "V": {"E": 0.4, "E_star": v}}},
         "E_star"),
        ("simulate", lambda v: {"init": {"q_star": 0.7, "V": {"E": 0.4, "G_star": v}}},
         "G_star"),
        ("simulate", lambda v: {"init": {"q_star": 0.7, "V": {"E": 0.4, "q_o": v}}}, "q_o"),
        ("simulate", lambda v: {"init": {"gibbs": {"beta0": v, "q_EA": 0.5}}}, "beta0"),
        ("simulate", lambda v: {"init": {"gibbs": {"beta0": 0.4, "q_EA": v}}}, "q_EA"),
        ("simulate", lambda v: {"init": {"gibbs": {"beta0": 0.4, "q_EA": 0.5, "GS": v}}},
         "GS"),
    ], ids=["beta", "T", "h_obs", "ell", "h_limit", "weight", "q_star", "E", "E_star",
            "G_star", "q_o", "beta0", "q_EA", "GS"])
    def test_real_key_refuses_a_bool_or_a_string(self, files, capsys, command, changes,
                                                 named, bad):
        # float() read JSON true as 1.0 and "0.5" as 0.5, and most of these ran with exit 0
        rc = main(["--out-dir", str(files["dir"] / "r"), command,
                   "--config", _sim_config(files, **changes(bad))])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert f"{named} must be finite" in err

    @pytest.mark.parametrize("command, changes", [
        ("simulate", {"variant": "fconfined"}),
        ("compare", {"h_limit": 0.03}),
        # 0.02 divides T = 0.5 but not h_obs = 0.05
        ("compare", {"h_limit": 0.02}),
        ("compare", {"ell": 5.0}),
        ("simulate", {"N": 1, "init": BAND_INIT}),
    ], ids=["fconfined-without-ell", "h_limit-off-grid", "h_limit-off-observable-grid",
            "ell-on-the-sphere", "band-start-at-N-one"])
    def test_bad_run_config_is_refused_before_the_draw(self, files, monkeypatch,
                                                       command, changes):
        def no_draw(*args):
            raise AssertionError("the tensor was drawn")

        monkeypatch.setattr(cli, "sample_system", no_draw)
        rc = main(["--out-dir", str(files["dir"] / "d"), command,
                   "--config", _sim_config(files, **changes)])
        assert rc == 2

    @pytest.mark.parametrize("spec", ["0:inf:3", "1:-inf:3", "0:1:-2"])
    def test_non_finite_or_negative_grid_is_config_error(self, files, spec):
        rc = main(["--out-dir", str(files["dir"] / "g"), "phase", "--mixture",
                   str(files["mix"]), "--beta-grid", spec])
        assert rc == 2
        assert not (files["dir"] / "g" / "phase.csv").exists()

    def test_stride_is_refused_before_the_solve(self, files, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the limit was solved")

        monkeypatch.setattr(cli, "solve_dynamics", no_solve)
        assert main(["--out-dir", str(files["dir"] / "s"), "solve", "--mixture",
                     str(files["mix"]), "--init", str(files["init"]), "--beta", "0.3",
                     "--stride", "0"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_size_guard_runs_before_the_start_geometry(self, files, monkeypatch,
                                                       alloc_peak, command):
        # the guard came only in sample_system, after ConditioningSpec had
        # built x_0 and x_star: 81 MB at N = 2000000, growing with N
        def no_spec(*args):
            raise AssertionError("the start geometry was built")

        monkeypatch.setattr(cli, "ConditioningSpec", no_spec)
        config = _sim_config(files, N=2_000_000)
        rc, peak = alloc_peak(lambda: main(["--out-dir", str(files["dir"] / "n"),
                                            command, "--config", config]))
        assert rc == 2
        assert peak < 5e6

    def test_memory_error_is_one_line_and_exit_1(self, files, monkeypatch, capsys):
        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000001, 1000001) and data type float64")

        monkeypatch.setattr(cli, "solve_dynamics", too_large)
        rc = main(["--out-dir", str(files["dir"] / "m"), "solve", "--mixture",
                   str(files["mix"]), "--init", str(files["init"]), "--beta", "0.3",
                   "--T", "1000", "--h", "0.001"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: out of memory: ")
        assert "7.28 TiB" in err

    def test_malformed_config(self, files):
        bad = files["dir"] / "bad.json"
        bad.write_text("{not json")
        rc = main(["--out-dir", str(files["dir"] / "y"), "simulate",
                   "--config", str(bad)])
        assert rc == 2
