"""Batch front-end: config parsing, experiment orchestration, artifacts.

One JSON config (plus repeatable --set overrides) drives every subcommand.
Outputs are deterministic: ``sweep`` and ``critical`` fork workers and
merge their results in a fixed order, JSON keys are sorted, floats rendered
with repr, CSV written with CRLF line endings.  Exit codes:
0 success, 1 a measured check failed (any other AeblowError), 2 a usage
error or a ConfigurationError (DomainError included).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from . import damping as damping_mod
from . import entire_solutions as eigen_mod
from . import lifespan as lifespan_mod
from . import metric as metric_mod
from . import ode_lab
from . import testfn_critical as critical_mod
from . import wave_solver as solver_mod
from . import _config
from ._config import from_block, number, numbers, text
from .errors import AeblowError, ConfigurationError

# a data or solver key left out takes its DataProfile or SolverConfig default
_DEFAULTS = {"metric": {"kind": "flat", "n": 3}, "damping": {"kind": "zero"},
             "data": {}, "solver": {}, "run": {}}

# data and solver keys (metric, damping: _config.KIND_KEYS; run: _COMMANDS)
_KEYS = {
    "solver": tuple(f.name for f in fields(solver_mod.SolverConfig)),
    "data": tuple(f.name for f in fields(solver_mod.DataProfile)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    metric: dict
    damping: dict
    data: dict
    solver: dict
    run: dict
    out: str | None = None
    csv: str | None = None

    @staticmethod
    def build(kind: str, path: str | None, overrides, out=None, csv_path=None):
        if kind not in _COMMANDS:
            raise ConfigurationError(f"unknown experiment kind {kind!r}")
        blocks = {k: dict(v) for k, v in _DEFAULTS.items()}
        if path is not None:
            try:
                with open(path) as f:
                    user = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigurationError(
                    f"config parse error at line {e.lineno} col {e.colno}: "
                    f"{e.msg}") from None
            if not isinstance(user, dict):
                raise ConfigurationError("config root must be an object")
            for k, v in user.items():
                if k not in blocks:
                    raise ConfigurationError(f"unknown config block {k!r}")
                if not isinstance(v, dict):
                    raise ConfigurationError(f"config block {k!r} must be an object")
                blocks[k].update(v)
        for item in overrides or []:
            key, _, raw = item.partition("=")
            if not _:
                raise ConfigurationError(f"override {item!r} is not key=value")
            parts = key.split(".")
            if len(parts) != 2 or parts[0] not in blocks:
                raise ConfigurationError(
                    f"override key {key!r} must be <block>.<field> with block "
                    f"in {sorted(blocks)}")
            try:
                val = json.loads(raw)
            except json.JSONDecodeError:
                val = raw
            blocks[parts[0]][parts[1]] = val
        for name in _config.KIND_KEYS:
            _config.kind(blocks[name], name)
        for name in ("data", "solver"):
            _config.check_keys(blocks[name], name, _KEYS[name], repr(kind))
        run_keys = _COMMANDS[kind][2]
        if isinstance(run_keys, dict):      # ode: the keys of its run.mode
            _config.kind(blocks["run"], "run", run_keys, "mode", "kato")
        else:
            _config.check_keys(blocks["run"], "run", run_keys, repr(kind))
        return ExperimentConfig(kind=kind, out=out, csv=csv_path, **blocks)


# -- deterministic writers ---------------------------------------------------

def _fnum(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_json(report: dict, path: str | None) -> None:
    body = json.dumps(report, sort_keys=True, indent=2,
                      allow_nan=True, default=float) + "\n"
    if path is None:
        sys.stdout.write(body)
    else:
        with open(path, "w", newline="") as f:
            f.write(body)


def _write_csv(header, rows, path: str | None) -> None:
    f = sys.stdout if path is None else open(path, "w", newline="")
    try:
        w = csv.writer(f, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fnum(x) for x in row])
    finally:
        if path is not None:
            f.close()


def _profiles(cfg: ExperimentConfig, **solver):
    """(metric, damping, data, solver config) of an experiment; solver
    replaces values of the solver block."""
    return (metric_mod.profile_from_config(cfg.metric),
            damping_mod.damping_from_config(cfg.damping),
            from_block(solver_mod.DataProfile, cfg.data, "data"),
            from_block(solver_mod.SolverConfig, dict(cfg.solver, **solver),
                       "solver"))


# -- subcommand bodies ---------------------------------------------------------
# each returns (passed, JSON report, (CSV header, rows) or None); run() writes

def _run_validate(cfg: ExperimentConfig):
    profile = metric_mod.profile_from_config(cfg.metric)
    r_hi = number(cfg.run, "run", "r_max", max(50.0, 20.0 / profile.rho))
    grid = np.linspace(1e-3, r_hi, number(cfg.run, "run", "points", 4000,
                                          integer=True, positive=True))
    rep = metric_mod.validate_long_range(profile, grid)
    return rep.passed, asdict(rep), None


def _run_eigen(cfg: ExperimentConfig):
    profile = metric_mod.profile_from_config(cfg.metric)
    lam = number(cfg.run, "run", "lam", positive=True)
    r_max = number(cfg.run, "run", "r_max", 50.0 / lam)
    if r_max < 1.0 / lam:    # mu_diagnostic needs the exterior r >= 1/lam
        raise ConfigurationError(
            f"config key run.r_max={r_max:g} must reach 1/run.lam = {1.0 / lam:g}")
    dr = from_block(solver_mod.SolverConfig, cfg.solver, "solver").dr
    sol = eigen_mod.build_entire_solution(profile, lam, r_max, dr=dr)
    env = eigen_mod.verify_envelopes(sol)
    mu = eigen_mod.mu_diagnostic(sol)
    d0 = eigen_mod.verify_derivative_bounds(sol)
    report = {
        "lam": lam, "n": profile.n, "metric": cfg.metric, "r_max": r_max,
        "phi0": float(sol.phi[0]),
        "c_low": env.c_low, "c_high": env.c_high, "d0": d0,
        "sup_int_mu": mu.sup_int_mu, "sup_mu_over_lam": mu.sup_mu_over_lam,
        "mu_int_bound": mu.bound_int, "mu_bound": mu.bound_mu,
        "passed": bool(env.c_low > 0.0 and mu.passed),
    }
    rows = zip(sol.r, sol.phi, sol.dphi, sol.log_phi, sol.k_int)
    return (report["passed"], report,
            (["r", "phi", "dphi", "log_phi", "k_int"], rows))


# the keys an ode run block takes, by its mode
_ODE_KEYS = {"kato": ("mode", "beta", "a", "alpha", "k", "f0", "f0p", "deltas"),
             "comparison": ("mode", "lam", "T")}


def _run_ode(cfg: ExperimentConfig):
    run = cfg.run
    if _config.kind(run, "run", _ODE_KEYS, "mode", "kato") == "kato":
        # a and alpha take the CLI's defaults
        prob = from_block(ode_lab.KatoProblem,
                          {"a": 1.0, "alpha": 0.0, **run}, "run")
        res = ode_lab.kato_blowup_time(prob)
        report = {"mode": "kato", "problem": asdict(prob),
                  "blew_up": res.blew_up, "t_blowup": res.t_blowup,
                  "theory_exponent": prob.theory_exponent}
        if "deltas" in run:
            deltas = numbers(run, "run", "deltas", positive=True)
            times, slope, intercept = ode_lab.kato_delta_sweep(prob, deltas)
            report["sweep"] = {"deltas": deltas,
                               "times": [float(t) for t in times],
                               "slope": slope, "intercept": intercept}
        return res.blew_up, report, None
    prof = damping_mod.damping_from_config(cfg.damping)
    lam = number(run, "run", "lam", positive=True)
    T = number(run, "run", "T", 20.0, positive=True)
    fwd = ode_lab.forward_comparison(prof, lam, T)
    bwd = ode_lab.backward_comparison(prof, lam, T)
    report = {"mode": "comparison", "lam": lam, "T": T,
              "delta1": prof.delta1,
              "forward_c_low": fwd.c_low, "backward_c_low": bwd.c_low}
    return min(fwd.c_low, bwd.c_low) > 0, report, None


def _run_solve(cfg: ExperimentConfig):
    profile, dprof, data, scfg = _profiles(cfg)
    run = cfg.run
    eps = number(run, "run", "eps")
    p = number(run, "run", "p")
    evolve = lifespan_mod._evolver(text(run, "run", "solve_mode", "transformed"))
    snaps = numbers(run, "run", "snapshots")
    snap_file = text(run, "run", "snapshot_file", None)
    if snap_file is not None and not snaps:
        raise ConfigurationError(
            "config key run.snapshot_file needs run.snapshots")
    stride = number(run, "run", "stride", 1, integer=True, positive=True)
    # F and Fpp go only to the CSV table
    traj = evolve(profile, dprof, data, eps, scfg, p=p, snapshot_times=snaps,
                  functionals=cfg.csv is not None)
    sup_rep = solver_mod.check_support_trajectory(traj)
    report = {
        "status": traj.status, "t_end": float(traj.t[-1]), "dt": traj.dt,
        "mode": traj.mode, "eps": eps, "p": p,
        "sup_final": float(traj.sup[-1]),
        "support_min_slack": sup_rep.slack,
        "support_tol": sup_rep.tol,
        "support_within_tol": bool(sup_rep.passed),
    }
    if snap_file is not None and len(traj.snap_t):
        with open(snap_file, "wb") as f:
            np.save(f, np.stack([traj.snap_u, traj.snap_v], axis=1))
        report["snapshot_times"] = [float(t) for t in traj.snap_t]
    if traj.F is None:
        return True, report, None
    fpp, edge_r = traj.fpp, traj.edge_r
    rows = ((traj.t[i], traj.F[i], fpp[i], traj.sup[i], edge_r[i])
            for i in range(0, len(traj.t), stride))
    return True, report, (["t", "F", "Fpp", "sup_u", "edge_r"], rows)


def _run_sweep(cfg: ExperimentConfig):
    profile, dprof, data, scfg = _profiles(cfg)
    run = cfg.run
    p = number(run, "run", "p")
    if "eps_grid" in run:
        grid = numbers(run, "run", "eps_grid", positive=True)
    else:
        grid = lifespan_mod.geometric_eps_grid(
            number(run, "run", "eps_max"),
            number(run, "run", "count", 7, integer=True),
            ratio=number(run, "run", "ratio", math.sqrt(2.0)))
    fit = lifespan_mod.sweep_and_fit(
        profile, dprof, data, grid, p, scfg,
        mode=text(run, "run", "solve_mode", "transformed"),
        tmax_budget=number(run, "run", "tmax_budget", None, positive=True))
    return True, fit.as_dict(), (["eps", "t_blowup"], zip(fit.eps, fit.t))


def _run_critical(cfg: ExperimentConfig):
    run = cfg.run
    if "tmax" in cfg.solver:
        raise ConfigurationError("config key solver.tmax is not read by "
                                 "critical: its horizon is run.t_max")
    t_max = number(run, "run", "t_max", 40.0, positive=True)
    profile, dprof, data, scfg = _profiles(cfg, tmax=t_max)
    n = profile.n
    p = lifespan_mod.critical_exponent(n)
    q = critical_mod.critical_q(n)
    eps = number(run, "run", "eps", 0.4, positive=True)
    lam_grid = critical_mod.log_lambda_grid(
        eigen_mod.lambda_max(profile),
        number(run, "run", "lam_points", 17, integer=True))
    step = number(run, "run", "snapshot_step", 0.5, positive=True)
    snaps = list(np.arange(0.0, t_max + 1e-9, step))
    samples = [s for T in (t_max / 4, t_max / 2, t_max) for s in
               [(r, T, t) for t in (0.0, T / 4, T / 2) for r in (data.r0, 0.4 * T)]
               + [(r, T, T) for r in (data.r0, 0.25 * T, 0.6 * T, 0.9 * T)]]
    state = solver_mod.init(profile, dprof, data, eps, scfg, p=p)
    disc = state.disc
    # the evolution and the family share only the grid, so a worker evolves
    # while this process shoots; the trajectory comes back, since the
    # evaluator's damping caches cannot be pickled, and the worker's exit
    # overlaps critical_F
    with lifespan_mod._forked([partial(solver_mod._evolve, state, snaps,
                                       None, False)]) as (evolved,):
        # the family spans the solver grid, which Discretization sized
        ev = critical_mod.build_evaluator(
            profile, dprof, q=q, r_max=float(disc.r[-1]), r1=disc.r1,
            lam_grid=lam_grid, dr=disc.dr)
        brep = critical_mod.xi_bounds_check(ev, samples)
        crep = critical_mod.critical_F(evolved(), ev)
    consts = critical_mod.SlicingConstants(
        c_int=crep.min_ratio, B=number(run, "run", "B", 0.5), eps=eps, p=p)
    irep = critical_mod.slicing_iteration_check(crep.T, crep.lhs, consts)
    report = {
        "n": n, "p": p, "q": q, "eps": eps, "t_max": t_max,
        "a1": brep.a1, "a2": brep.a2,
        "a1_drift": brep.drift_a1, "a2_drift": brep.drift_a2,
        "bounds_passed": brep.passed,
        "min_ratio": crep.min_ratio, "min_slicing1": crep.min_slicing1,
        "T": [float(t) for t in crep.T],
        "F": [float(x) for x in crep.lhs],
        "interaction": [float(x) for x in crep.rhs],
        "measured_c": irep.measured_c, "diverges": irep.diverges,
        "threshold_T": irep.threshold_T,
        "iteration_rel_err": irep.max_iter_rel_err,
    }
    ok = (brep.passed and crep.min_ratio > 0.0 and crep.min_slicing1 > 0.0
          and irep.max_iter_rel_err < 1e-2)
    return ok, report, None


# subcommand -> (body, help, the keys its run block takes, by mode for ode)
_COMMANDS = {
    "validate": (_run_validate,
                 "check the long-range conditions on a metric profile",
                 ("r_max", "points")),
    "eigen": (_run_eigen,
              "build one exponential-growth eigenfunction and its report",
              ("lam", "r_max")),
    "ode": (_run_ode,
            "comparison/blow-up ODE studies (run.mode: kato|comparison)",
            _ODE_KEYS),
    "solve": (_run_solve, "one radial wave evolution with scalar records",
              ("eps", "p", "solve_mode", "snapshots", "snapshot_file",
               "stride")),
    "sweep": (_run_sweep, "lifespan sweep over an eps grid with slope fit",
              ("p", "eps_grid", "eps_max", "count", "ratio", "tmax_budget",
               "solve_mode")),
    "critical": (_run_critical,
                 "critical-exponent test-function and slicing checks",
                 ("t_max", "eps", "lam_points", "snapshot_step", "B")),
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment and write its report, and its CSV when asked
    for; returns the process exit status."""
    ok, report, table = _COMMANDS[cfg.kind][0](cfg)
    _write_json(report, cfg.out)
    if cfg.csv is not None and table is not None:
        _write_csv(*table, cfg.csv)
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aeblow",
        description="numerical laboratory for radial waves on asymptotically "
                    "flat backgrounds")
    sub = ap.add_subparsers(dest="kind", required=True)
    for kind, (_, help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(kind, help=help_text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", dest="overrides",
                        metavar="BLOCK.KEY=VALUE",
                        help="override one config value (repeatable)")
        sp.add_argument("--out", help="JSON report path (default stdout)")
        sp.add_argument("--csv", help="CSV artifact path (where applicable)")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.build(args.kind, args.config, args.overrides,
                                     out=args.out, csv_path=args.csv)
        return run(cfg)
    except ConfigurationError as e:
        print(f"aeblow: configuration error: {e}", file=sys.stderr)
        return 2
    except AeblowError as e:
        print(f"aeblow: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
