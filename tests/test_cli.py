import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from aeblow import cli, errors


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
                    "--set", "run.r_max=40.0", "--set", "solver.dr=0.05",
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


def test_eigen_tabulated_metric(capsys):
    # a table of K = 1 is the flat metric: Phi(0) = 1/sinh(1) at n = 3
    assert run_cli(["eigen", "--set", "metric.kind=tabulated",
                    "--set", "metric.table=[[0,1],[1,1],[2,1],[3,1]]",
                    "--set", "metric.n=3", "--set", "run.lam=0.1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["phi0"] == pytest.approx(1.0 / math.sinh(1.0), rel=1e-12)


def test_ode_kato_report(capsys):
    assert run_cli(["ode", "--set", "run.beta=2.0", "--set", "run.k=6.0",
                    "--set", "run.f0=1.0", "--set", "run.f0p=2.0",
                    "--set", "run.deltas=[0.001,0.002,0.004,0.008]"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["blew_up"] is True
    assert rep["t_blowup"] == pytest.approx(1.0, abs=1e-3)
    sweep = rep["sweep"]
    assert sweep["deltas"] == [0.001, 0.002, 0.004, 0.008]
    assert len(sweep["times"]) == 4 and sweep["times"] == sorted(
        sweep["times"], reverse=True)
    assert sweep["slope"] == pytest.approx(rep["theory_exponent"], abs=0.05)


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
    assert header == b"t,F,Fpp,sup_u,edge_r"


def test_solve_eps_zero_is_trivial(capsys):
    assert run_cli(["solve", "--set", "run.eps=0", "--set", "run.p=2.0",
                    "--set", "solver.tmax=1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "completed" and rep["sup_final"] == 0.0


def test_missing_required_key_exit_2(capsys):
    assert run_cli(["solve"]) == 2
    err = capsys.readouterr().err
    assert "run" in err and "eps" in err


def test_bad_config_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"solver": {"dr": }')
    assert run_cli(["solve", "--config", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "metric": {"kind": "power-law", "n": 3, "c": 0.5, "rho": 1.0},
        "run": {"points": 500}}))
    assert run_cli(["validate", "--config", str(cfg),
                    "--set", "metric.c=-0.3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["profile_name"] == "power-n3-c-0.3-rho1.0"
    assert rep["passed"] is True


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


# the family used to be sized by its own radius rule, which fell short of
# the solver grid once int_0^r0 K > 2 and ended the run with exit 1
@pytest.mark.parametrize("extra", [
    ["data.r0=5"],
    ["metric.kind=power-law", "metric.c=0.5", "metric.rho=1", "data.r0=3"]])
def test_critical_family_covers_solver_grid(extra, tmp_path):
    out = tmp_path / "crit.json"
    args = ["critical", "--set", "run.t_max=8", "--set", "solver.dr=0.1"]
    for item in extra:
        args += ["--set", item]
    assert run_cli(args + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["bounds_passed"] is True


@pytest.mark.parametrize("override,message", [
    ("solver.dr=abc", "solver.dr must be a number"),
    ("solver.rmax=1", "rmax=1 too small"),
    ("solver.sup_cap=null", "solver.sup_cap must not be null"),
    ("run.eps=true", "run.eps must be a positive number"),
    # the cubic lambda weights need 4 nodes; 3 gave NaN/inf and exit 1
    ("run.lam_points=3", "at least 4 grid points")])
def test_critical_reads_solver_block(override, message, capsys):
    assert run_cli(["critical", "--set", "run.t_max=4.0",
                    "--set", "solver.dr=0.1", "--set", "run.lam_points=5",
                    "--set", override]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["solve", "sweep"])
def test_unknown_solve_mode_exit_2(kind, capsys):
    eps = {"solve": "run.eps=0.3", "sweep": "run.eps_max=7"}[kind]
    assert run_cli([kind, "--set", eps, "--set", "run.p=2.0",
                    "--set", "solver.tmax=2",
                    "--set", "run.solve_mode=bogus"]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "'transformed' or 'direct'" in err


# each of these once ended in a ValueError, ZeroDivisionError or TypeError
# traceback with exit 1
@pytest.mark.parametrize("kind,overrides", [
    ("sweep", ["run.p=2.0", "run.eps_max=7", "run.count=abc"]),
    ("sweep", ["run.p=2.0", "run.eps_max=7", "run.count=2.5"]),
    ("critical", ["run.t_max=abc"]),
    ("critical", ["run.snapshot_step=0"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "data.u0_amp=x"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "solver.cfl=x"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "run.snapshots=[1,\"x\"]"]),
    ("ode", ["run.beta=2.0", "run.k=x"]),
    ("ode", ["run.beta=2.0", "run.deltas=[]"]),
    ("ode", ["run.beta=2.0", "run.deltas=[0.1]"]),
    ("eigen", ["run.lam=0.1", "run.r_max=x"]),
    ("eigen", ["run.lam=0.1", "solver.dr=0"]),
    ("eigen", ["run.lam=0"]),
    ("validate", ["metric.n=abc"]),
    ("validate", ["metric.n=3.5"]),
    ("validate", ["metric.kind=power-law", "metric.c=x", "metric.rho=1"]),
    ("validate", ["metric.kind=tabulated", "metric.table=[0,1,2,3]"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "solver.tmax=1",
               "damping.kind=scattering-power", "damping.mu=x",
               "damping.beta=2"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "solver.tmax=1",
               "damping.kind=tabulated", "damping.table=[1,2]"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "solver.tmax=1",
               "damping.kind=tabulated", "damping.table=[[0,0.1],[1,0.1]]",
               "damping.tail_l1=x"]),
    # these ran to the end and exited 1, or ran the nonlinear equation
    ("eigen", ["run.lam=0.1", "run.r_max=5"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "solver.tmax=1",
               "solver.nonlinear=no"]),
    ("solve", ["run.eps=0.3", "run.p=2.0", "solver.tmax=1",
               'solver.nonlinear="false"']),
    ("sweep", ["run.p=2.0", "run.eps_max=7", "run.count=3"]),
    # these exited 1 with a DomainError, the sweep after evolving the
    # earlier points
    ("solve", ["run.eps=-0.1", "run.p=2.0"]),
    ("solve", ["run.eps=NaN", "run.p=2.0", "solver.tmax=1"]),
    ("critical", ["run.eps=-0.1"]),
    ("ode", ["run.mode=comparison", "run.lam=0"]),
    ("ode", ["run.mode=comparison", "run.lam=0.5", "run.T=-1"]),
    ("ode", ["run.beta=0.5"]),
    ("sweep", ["run.p=2.0", "solver.tmax=1",
               "run.eps_grid=[0.5,0.4,0.3,0.2,0]"]),
    # unknown keys were ignored: this solve ran dr = 0.05
    ("solve", ["run.eps=0.1", "run.p=2", "solver.d=0.5"]),
    ("critical", ["run.lam_point=9"]),
    # non-finite numbers ended in a traceback (exit 1), or ran and exited 0
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=NaN"]),
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=Infinity"]),
    ("solve", ["run.eps=0.3", "run.p=2", "damping.kind=scattering-power",
               "damping.mu=NaN", "damping.beta=2"]),
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=1",
               "damping.kind=signed-oscillatory", "damping.mu=0.3",
               "damping.beta=Infinity"]),
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=1",
               "damping.kind=tabulated", "damping.table=[[0,NaN],[1,0.1]]"]),
    ("validate", ["metric.kind=power-law", "metric.c=NaN", "metric.rho=1"]),
    ("validate", ["metric.kind=power-law", "metric.c=0.3", "metric.rho=NaN"]),
    ("validate", ["metric.kind=tabulated",
                  "metric.table=[[0,1],[1,Infinity],[2,1],[3,1]]"]),
    # out-of-domain values exited 1 with a DomainError
    ("validate", ["metric.n=1"]),
    ("validate", ["metric.kind=power-law", "metric.c=0.7", "metric.rho=1"]),
    ("validate", ["metric.kind=power-law", "metric.c=0.3", "metric.rho=-1"]),
    ("validate", ["run.r_max=-1"]),
    ("solve", ["run.eps=0.3", "run.p=2", "damping.kind=scattering-power",
               "damping.mu=0.3", "damping.beta=0.5"]),
    ("critical", ["run.p=2"]),
    ("eigen", ["run.lam=5"]),
    # f0 = 0 ran without end; a negative seed ended in a scipy traceback
    ("ode", ["run.beta=2", "run.f0=0"]),
    ("ode", ["run.beta=2", "run.f0=-1"]),
    ("ode", ["run.beta=2", "run.deltas=[0.1,-1]"]),
    # points = 0 ended in a traceback; a bad stride was clamped to 1, and
    # without --csv never read
    ("validate", ["run.points=0"]),
    ("solve", ["run.eps=0.3", "run.p=2", "run.stride=-3"]),
    # a key its block's kind or mode does not take was dropped, and true
    # read as 1.0: each ran and exited 0
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=2", "damping.mu=0.5",
               "damping.beta=2"]),
    ("validate", ["metric.c=0.3"]),
    ("ode", ["run.mode=comparison", "run.lam=0.5", "run.beta=3"]),
    ("ode", ["run.beta=2", "run.lam=0.3"]),
    ("solve", ["run.eps=true", "run.p=2", "solver.tmax=1"]),
    # a block the subcommand never reads is checked too
    ("validate", ["damping.kind=bogus"]),
    # a present null was reported as a missing key
    ("solve", ["run.eps=0.3", "run.p=2", "data.r0=null"]),
    ("ode", ["run.beta=null"]),
    # snapshot times that are not a list, or lie before t = 0
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=1", "run.snapshots=3"]),
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=1",
               "run.snapshots=[-1]"])])
def test_bad_config_value_exit_2(kind, overrides, capsys):
    args = [kind]
    for item in overrides:
        args += ["--set", item]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error,status", [
    (errors.ConfigurationError, 2), (errors.DomainError, 2),
    (errors.IntegrationError, 1), (errors.PositivityError, 1),
    (errors.InsufficientDataError, 1)])
def test_error_class_sets_exit_status(error, status, monkeypatch, capsys):
    def body(cfg):
        raise error("raised by the body")
    monkeypatch.setitem(cli._COMMANDS, "validate",
                        (body, *cli._COMMANDS["validate"][1:]))
    assert run_cli(["validate"]) == status
    err = capsys.readouterr().err
    assert "raised by the body" in err and "Traceback" not in err


def _child_env():
    """Environment for a child interpreter that imports aeblow from src."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_cli():
    proc = subprocess.run([sys.executable, "-m", "aeblow", "validate"],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["passed"] is True


# scipy costs about 0.6 s to import, so only the paths that solve an ODE,
# integrate b or build a spline load it
_SCIPY_PROBE = """
import sys
from aeblow import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def solve(*extra):
    cfg = cli.ExperimentConfig.build(
        "solve", None, ["run.eps=0.3", "run.p=2.0", "solver.tmax=2", *extra],
        out=sys.argv[1])
    assert cli.run(cfg) == 0

assert scipy_loaded() == [], scipy_loaded()
solve()
assert scipy_loaded() == [], scipy_loaded()
solve("metric.kind=tabulated", "metric.table=[[0,1.1],[1,1.05],[2,1],[3,1]]",
      "damping.kind=signed-oscillatory", "damping.mu=0.3", "damping.beta=2")
assert "scipy.integrate" in sys.modules and "scipy.interpolate" in sys.modules
"""


def test_scipy_imported_only_where_used(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           str(tmp_path / "rep.json")],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "rep.json").read_text())["status"] == "completed"


def test_entry_point_registered():
    import importlib.metadata as md
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
