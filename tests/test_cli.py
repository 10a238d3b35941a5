import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from aeblow import cli, errors
from aeblow import entire_solutions as eig
from aeblow import lifespan as ls
from aeblow import testfn_critical as crit
from aeblow import wave_solver as ws


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


def test_ode_kato_without_beta_exit_2(capsys):
    # beta has no default: a run block without it is a configuration error
    assert run_cli(["ode", "--set", "run.k=2.0"]) == 2
    assert "config 'run' block missing key 'beta'" in capsys.readouterr().err


def test_ode_kato_nonpositive_k_exit_2(capsys):
    # the lemma needs k > 0; F'' = -F^2 would fall through F = 0 instead
    assert run_cli(["ode", "--set", "run.beta=2", "--set", "run.k=-1",
                    "--set", "run.f0p=1"]) == 2
    assert "k > 0" in capsys.readouterr().err


def test_ode_kato_moderate_beta_from_rest(capsys):
    # a moderate beta from F'(0) = 0 reaches its blow-up time (28.2858545505,
    # checked against scipy's solve of F'' in tests/test_ode_lab.py)
    assert run_cli(["ode", "--set", "run.beta=3.6662545988443824",
                    "--set", "run.a=2.0991497157408388",
                    "--set", "run.alpha=0.037109375",
                    "--set", "run.k=2.945089450726632",
                    "--set", "run.f0=0.07782972007021413",
                    "--set", "run.f0p=0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["blew_up"] is True
    assert rep["t_blowup"] == pytest.approx(28.2858545505, abs=1e-9)


def test_ode_kato_global_solution_exit_1(capsys):
    # alpha > beta + 1 with small data: F grows only linearly, no blow-up
    assert run_cli(["ode", "--set", "run.beta=5", "--set", "run.a=2",
                    "--set", "run.alpha=7"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["blew_up"] is False and rep["t_blowup"] is None


def test_ode_kato_beta_near_one_exit_2(capsys):
    assert run_cli(["ode", "--set", "run.beta=1.0001"]) == 2
    assert "need beta >= 1.01" in capsys.readouterr().err


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


def test_unknown_kind_rejected():
    # the command line never gets here (argparse knows the subcommands);
    # a caller of ExperimentConfig.build does
    with pytest.raises(errors.ConfigurationError,
                       match="unknown experiment kind 'bogus'"):
        cli.ExperimentConfig.build("bogus", None, [])


@pytest.mark.parametrize("body,message", [
    ("[1, 2]", "config root must be an object"),
    ('{"solver": 3}', "config block 'solver' must be an object")])
def test_config_file_shape_exit_2(body, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    assert run_cli(["solve", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("item", ["eps=0.3", "run.eps.x=0.3", "sover.dr=0.1"])
def test_malformed_override_key_exit_2(item, capsys):
    assert run_cli(["solve", "--set", item]) == 2
    assert "must be <block>.<field>" in capsys.readouterr().err


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


def _serial_critical(sets, path):
    """The critical command as one evolution followed by the family shoot,
    in this process: the reference of the forked command.  Writes the report
    to path and returns the exit status."""
    cfg = cli.ExperimentConfig.build("critical", None, sets)
    run = cfg.run
    t_max, eps = run["t_max"], run["eps"]
    profile, dprof, data, scfg = cli._profiles(cfg, tmax=t_max)
    p = ls.critical_exponent(profile.n)
    q = crit.critical_q(profile.n)
    lam_grid = crit.log_lambda_grid(eig.lambda_max(profile), run["lam_points"])
    snaps = list(np.arange(0.0, t_max + 1e-9, run["snapshot_step"]))
    traj = ws.evolve_transformed(profile, dprof, data, eps, scfg, p=p,
                                 snapshot_times=snaps, functionals=False)
    ev = crit.build_evaluator(profile, dprof, q=q, r_max=float(traj.r[-1]),
                              r1=traj.r1, lam_grid=lam_grid, dr=traj.dr)
    crep = crit.critical_F(traj, ev)
    samples = [s for T in (t_max / 4, t_max / 2, t_max) for s in
               [(r, T, t) for t in (0.0, T / 4, T / 2) for r in (data.r0, 0.4 * T)]
               + [(r, T, T) for r in (data.r0, 0.25 * T, 0.6 * T, 0.9 * T)]]
    brep = crit.xi_bounds_check(ev, samples)
    irep = crit.slicing_iteration_check(
        crep.T, crep.lhs, crit.SlicingConstants(c_int=crep.min_ratio,
                                                B=run["B"], eps=eps, p=p))
    cli._write_json({
        "n": profile.n, "p": p, "q": q, "eps": eps, "t_max": t_max,
        "a1": brep.a1, "a2": brep.a2,
        "a1_drift": brep.drift_a1, "a2_drift": brep.drift_a2,
        "bounds_passed": brep.passed,
        "min_ratio": crep.min_ratio, "min_slicing1": crep.min_slicing1,
        "T": [float(t) for t in crep.T],
        "F": [float(x) for x in crep.lhs],
        "interaction": [float(x) for x in crep.rhs],
        "measured_c": irep.measured_c, "diverges": irep.diverges,
        "threshold_T": irep.threshold_T,
        "iteration_rel_err": irep.max_iter_rel_err}, str(path))
    ok = (brep.passed and crep.min_ratio > 0.0 and crep.min_slicing1 > 0.0
          and irep.max_iter_rel_err < 1e-2)
    return 0 if ok else 1


def _use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)


_CRITICAL_RUN = ["run.t_max=8.0", "run.eps=0.4", "run.lam_points=17",
                 "run.snapshot_step=0.5", "run.B=0.5", "solver.dr=0.1"]
CRITICALS = {
    "zero": [],
    "scattering-power": ["damping.kind=scattering-power", "damping.mu=0.5",
                         "damping.beta=2.0"],
    "signed-oscillatory": ["damping.kind=signed-oscillatory",
                           "damping.mu=0.3", "damping.beta=2.0"],
    "tabulated": ["damping.kind=tabulated",
                  "damping.table=[[0,0.4],[2,0.1],[4,0.3],[6,0.05]]"],
    "power-law": ["metric.kind=power-law", "metric.c=0.5", "metric.rho=1",
                  "data.r0=3"],
}


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("case", CRITICALS)
def test_critical_equals_the_serial_pipeline(case, cores, monkeypatch,
                                             tmp_path):
    sets = _CRITICAL_RUN + CRITICALS[case]
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    status = _serial_critical(sets, want)
    _use_cores(monkeypatch, cores)
    args = ["critical", "--out", str(got)]
    for item in sets:
        args += ["--set", item]
    assert run_cli(args) == status
    assert got.read_bytes() == want.read_bytes()
    assert multiprocessing.active_children() == []


def test_critical_evolves_in_a_worker(monkeypatch, tmp_path):
    parent, evolve, shoot = os.getpid(), ws._evolve, crit.build_evaluator
    shooters = []

    def evolve_elsewhere(*args):
        if os.getpid() == parent:
            raise AssertionError("the evolution ran in the calling process")
        return evolve(*args)

    def spy(*args, **kw):
        shooters.append(os.getpid())
        return shoot(*args, **kw)

    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(ws, "_evolve", evolve_elsewhere)
    monkeypatch.setattr(crit, "build_evaluator", spy)
    args = ["critical", "--out", str(tmp_path / "crit.json")]
    for item in _CRITICAL_RUN:
        args += ["--set", item]
    assert run_cli(args) == 0
    assert shooters == [parent]
    assert multiprocessing.active_children() == []


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


# each run horizon has one way in, and a bad one names the key that was set
@pytest.mark.parametrize("kind,overrides,message", [
    ("sweep", ["run.p=2.0", "run.eps_max=7", "run.tmax_budget=2100",
               "run.tmax_exponent=2"], "unknown config key run.tmax_exponent"),
    # critical ran to run.t_max and wrote the bytes of a run without it
    ("critical", ["solver.tmax=3"],
     "solver.tmax is not read by critical: its horizon is run.t_max"),
    # above p_c there is no small-data lifespan for a budget to scale by
    ("sweep", ["run.p=3.0", "run.eps_max=7", "run.tmax_budget=2100"],
     "tmax_budget scales by the subcritical lifespan exponent"),
    # these named solver.tmax, a key never set
    ("critical", ["run.t_max=-5"], "run.t_max must be a positive number"),
    ("sweep", ["run.p=2.0", "run.eps_max=7", "run.tmax_budget=-5"],
     "run.tmax_budget must be a positive number")],
    ids=["tmax_exponent", "critical-solver.tmax", "budget-above-p_c",
         "negative-t_max", "negative-budget"])
def test_horizon_keys_exit_2_naming_the_key(kind, overrides, message, capsys):
    args = [kind]
    for item in overrides:
        args += ["--set", item]
    assert run_cli(args) == 2
    assert message in capsys.readouterr().err


def test_critical_bytes_independent_of_blas_threads(tmp_path):
    """A critical-n3-sized report has the same bytes under one and two
    OpenBLAS threads: critical_F's lambda-space images sum in einsum's one
    order, where a BLAS product splits its sums by thread."""
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"crit-{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "aeblow", "critical",
             "--set", "run.t_max=40", "--set", "solver.dr=0.05",
             "--set", "run.eps=0.4", "--out", str(out)],
            env=dict(_child_env(), OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("kind", ["solve", "sweep"])
def test_unknown_solve_mode_exit_2(kind, capsys):
    eps = {"solve": "run.eps=0.3", "sweep": "run.eps_max=7"}[kind]
    assert run_cli([kind, "--set", eps, "--set", "run.p=2.0",
                    "--set", "solver.tmax=2",
                    "--set", "run.solve_mode=bogus"]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "'transformed' or 'direct'" in err


# each of these once ended in a ValueError, ZeroDivisionError or TypeError
def test_negative_tail_l1_exit_2_naming_the_key(capsys):
    # it ran and exited 0 with delta1 = exp(5) > 1, a CFL step ~100x too large
    args = ["solve"]
    for item in ("run.eps=0.3", "run.p=2", "solver.tmax=3",
                 "damping.kind=tabulated", "damping.table=[[0,0.1],[4,0.1]]",
                 "damping.tail_l1=-5"):
        args += ["--set", item]
    assert run_cli(args) == 2
    assert "damping tail_l1 must be finite and >= 0" in capsys.readouterr().err


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
               "run.snapshots=[-1]"]),
    # a number was taken as a file descriptor (OSError, exit 1); without
    # snapshots no file was written and the run exited 0
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=1",
               "run.snapshots=[0.5]", "run.snapshot_file=7"]),
    ("solve", ["run.eps=0.3", "run.p=2", "solver.tmax=1",
               "run.snapshot_file=x.npy"])])
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


# scipy costs about 0.6 s to import, and aeblow integrates its ODEs itself
# (aeblow._ode), so only the signed-oscillatory L1 bound (quad) loads
# scipy.integrate and only a tabulated metric's spline scipy.interpolate;
# eigen, critical and every ode load no scipy at all
_SCIPY_PROBE = """
import sys
from aeblow import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(kind, *sets):
    cfg = cli.ExperimentConfig.build(kind, None, list(sets), out=sys.argv[1])
    assert cli.run(cfg) == 0

def solve(*extra):
    run("solve", "run.eps=0.3", "run.p=2.0", "solver.tmax=2", *extra)

assert scipy_loaded() == [], scipy_loaded()
solve()
assert scipy_loaded() == [], scipy_loaded()
run("eigen", "run.lam=0.1")
run("critical", "run.t_max=8", "solver.dr=0.1")
run("ode", "run.mode=comparison", "run.lam=0.3", "run.T=5",
    "damping.kind=scattering-power", "damping.mu=0.5", "damping.beta=2")
run("ode", "run.beta=2.0", "run.k=6.0", "run.f0p=2.0")
run("ode", "run.beta=3.0")
assert scipy_loaded() == [], scipy_loaded()
solve("damping.kind=signed-oscillatory", "damping.mu=0.3", "damping.beta=2")
assert "scipy.integrate" in sys.modules
assert "scipy.interpolate" not in sys.modules
solve("metric.kind=tabulated", "metric.table=[[0,1.1],[1,1.05],[2,1],[3,1]]",
      "damping.kind=signed-oscillatory", "damping.mu=0.3", "damping.beta=2")
assert "scipy.interpolate" in sys.modules
"""


def test_scipy_imported_only_where_used(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           str(tmp_path / "rep.json")],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "rep.json").read_text())["status"] == "completed"


# multiprocessing (about 9 ms to import) is loaded by the commands that fork,
# sweep and critical, alone: import and solve times stay free of it; no
# command loads a process pool
_MULTIPROCESSING_PROBE = """
import sys
from aeblow import cli

def run(kind, *sets):
    cfg = cli.ExperimentConfig.build(kind, None, list(sets), out=sys.argv[1])
    assert cli.run(cfg) == 0

assert "multiprocessing" not in sys.modules
run("solve", "run.eps=0.3", "run.p=2.0", "solver.tmax=2")
assert "multiprocessing" not in sys.modules
if sys.argv[2] == "sweep":
    run("sweep", "run.p=2.0", "run.eps_max=7", "run.ratio=1.3", "run.count=5",
        "solver.dr=0.1", "solver.tmax=100")
else:
    run("critical", "run.t_max=8", "solver.dr=0.1")
assert "multiprocessing" in sys.modules
assert "concurrent.futures" not in sys.modules
"""


@pytest.mark.parametrize("kind,key", [("sweep", "monotone"),
                                      ("critical", "bounds_passed")])
def test_multiprocessing_imported_only_by_sweep_and_critical(kind, key,
                                                             tmp_path):
    proc = subprocess.run([sys.executable, "-c", _MULTIPROCESSING_PROBE,
                           str(tmp_path / "rep.json"), kind],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "rep.json").read_text())[key] is True


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


def test_readme_digest_jobs_are_the_readme_examples():
    # tools/report_digests.py --workload readme digests the README's CLI
    # examples from its own list; the two must not drift apart
    import importlib.util
    import shlex
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "report_digests", root / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    block = (root / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    jobs = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        assert words[0] == "aeblow"
        jobs.append((words[1], [w for prev, w in zip(words, words[1:])
                                if prev == "--set"]))
    assert jobs == tool.README_JOBS


def test_sweep_of_data_past_the_first_threshold_exits_2(capsys):
    # sup|u(0)| = 2e6 eps reaches the first detection threshold 1e6 eps at
    # every point; the sweep exited 1 on a negative extrapolated time
    assert run_cli(["sweep", "--set", "data.u0_amp=2e6", "--set", "run.p=2.0",
                    "--set", "run.eps_max=1.0", "--set", "solver.dr=0.1",
                    "--set", "solver.tmax=2"]) == 2
    assert "already reaches the first detection threshold" \
        in capsys.readouterr().err
