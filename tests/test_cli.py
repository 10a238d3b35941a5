import json
import math

import numpy as np
import pytest

from aeblow import cli


def run_cli(args):
    return cli.main(args)


def test_validate_flat_exit_zero(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run_cli(["validate", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["lambda0"] > 0


def test_validate_powerlaw_stdout(capsys):
    assert run_cli(["validate", "--set", "metric.kind=power-law",
                    "--set", "metric.c=0.5", "--set", "metric.rho=1.0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True


def test_eigen_csv_matches_closed_form(tmp_path):
    out = tmp_path / "rep.json"
    csvp = tmp_path / "phi.csv"
    assert run_cli(["eigen", "--set", "run.lam=0.1",
                    "--set", "run.r_max=40.0", "--set", "run.dr=0.05",
                    "--out", str(out), "--csv", str(csvp)]) == 0
    rep = json.loads(out.read_text())
    assert rep["phi0"] == pytest.approx(1.0 / math.sinh(1.0), rel=1e-6)
    lines = csvp.read_bytes().split(b"\r\n")
    assert lines[0] == b"r,phi,dphi,log_phi,k_int"
    row = lines[1 + int(round(20.0 / 0.05))].decode().split(",")
    r, phi = float(row[0]), float(row[1])
    assert r == pytest.approx(20.0, abs=1e-12)
    exact = math.sinh(0.1 * r) / (0.1 * r) / math.sinh(1.0)
    assert phi == pytest.approx(exact, rel=1e-6)


def test_ode_kato_report(capsys):
    assert run_cli(["ode", "--set", "run.beta=2.0", "--set", "run.k=6.0",
                    "--set", "run.f0=1.0", "--set", "run.f0p=2.0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["blew_up"] is True
    assert rep["t_blowup"] == pytest.approx(1.0, abs=1e-3)


def test_ode_comparison_mode(capsys):
    assert run_cli(["ode", "--set", "run.mode=comparison",
                    "--set", "run.lam=0.5", "--set", "run.T=10.0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["forward_c_low"] > 0
    assert rep["backward_c_low"] > 0


def test_solve_csv_and_snapshots(tmp_path):
    out = tmp_path / "rep.json"
    csvp = tmp_path / "traj.csv"
    snap = tmp_path / "snaps.npy"
    assert run_cli(["solve", "--set", "run.eps=0.3", "--set", "run.p=2.0",
                    "--set", "solver.tmax=4.0",
                    "--set", "run.snapshots=[1.0,2.0]",
                    "--set", f"run.snapshot_file={snap}",
                    "--out", str(out), "--csv", str(csvp)]) == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "completed"
    assert rep["snapshot_times"] == [1.0, 2.0]
    arr = np.load(snap)
    assert arr.shape[0] == 2 and arr.shape[1] == 2
    header = csvp.read_bytes().split(b"\r\n")[0]
    assert header == b"t,F,Fpp,H,sup_u,edge_r"


def test_missing_required_key_exit_2(capsys):
    assert run_cli(["solve"]) == 2
    err = capsys.readouterr().err
    assert "run" in err and "eps" in err


def test_bad_config_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"solver": {"dr": }')
    assert run_cli(["solve", "--config", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_unknown_block_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sover": {"dr": 0.1}}')
    assert run_cli(["solve", "--config", str(bad)]) == 2
    assert "sover" in capsys.readouterr().err


def test_bad_override_exit_2(capsys):
    assert run_cli(["solve", "--set", "nonsense"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_sweep_smoke_and_determinism(tmp_path):
    args = ["sweep", "--set", "run.p=2.0", "--set", "run.eps_max=7.0",
            "--set", "run.count=5", "--set", "run.ratio=1.3",
            "--set", "solver.tmax=400.0", "--set", "solver.dr=0.1",
            "--set", "run.tmax_budget=2100.0"]
    out1, csv1 = tmp_path / "a.json", tmp_path / "a.csv"
    out2, csv2 = tmp_path / "b.json", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1), "--csv", str(csv1)]) == 0
    assert run_cli(args + ["--out", str(out2), "--csv", str(csv2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()
    rep = json.loads(out1.read_text())
    assert -2.5 < rep["slope"] < -1.5


def test_critical_smoke(tmp_path):
    out = tmp_path / "crit.json"
    assert run_cli(["critical", "--set", "run.t_max=16.0",
                    "--set", "solver.dr=0.1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["bounds_passed"] is True
    assert rep["min_ratio"] > 1.0
    assert rep["a1_drift"] < 2.0 and rep["a2_drift"] < 2.0
    assert rep["iteration_rel_err"] < 1e-2


@pytest.mark.parametrize("override,message", [
    ("solver.dr=abc", "solver.dr must be a number"),
    ("solver.rmax=1", "rmax=1 too small")])
def test_critical_reads_solver_block(override, message, capsys):
    assert run_cli(["critical", "--set", "run.t_max=4.0",
                    "--set", "solver.dr=0.1", "--set", "run.lam_points=5",
                    "--set", override]) == 2
    assert message in capsys.readouterr().err


def test_entry_point_registered():
    import importlib.metadata as md
    import pathlib
    import sys
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("aeblow") == "aeblow.cli:main"
    assert callable(cli.main)
    try:
        dist = md.distribution("aeblow")
    except md.PackageNotFoundError:
        return      # plain checkout: no installed metadata to compare against
    names = {e.name: e.value for e in dist.entry_points
             if e.group == "console_scripts"}
    assert names.get("aeblow") == scripts["aeblow"]
