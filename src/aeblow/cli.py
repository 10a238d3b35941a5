"""Batch front-end: config parsing, experiment orchestration, artifacts.

One JSON config (plus repeatable --set overrides) drives every subcommand.
Outputs are deterministic: runs are sequential, JSON keys sorted, floats
rendered with repr, CSV written with CRLF line endings.  Exit codes:
0 success, 1 a measured check failed, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import damping as damping_mod
from . import entire_solutions as eigen_mod
from . import lifespan as lifespan_mod
from . import metric as metric_mod
from . import ode_lab
from . import testfn_critical as critical_mod
from . import wave_solver as solver_mod
from .errors import AeblowError, ConfigurationError

KINDS = ("validate", "eigen", "ode", "solve", "sweep", "critical")

_DEFAULTS = {
    "metric": {"kind": "flat", "n": 3},
    "damping": {"kind": "zero"},
    "data": {"r0": 1.0, "u0_amp": 1.0, "u1_amp": 1.0},
    "solver": {"dr": 0.05, "tmax": 10.0, "cfl": 0.45, "rmax": None},
    "run": {},
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
        if kind not in KINDS:
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
        return ExperimentConfig(kind=kind, out=out, csv=csv_path, **blocks)


# -- deterministic writers ---------------------------------------------------

def _fnum(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_json(report: dict, path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2,
                      allow_nan=True, default=float) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


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


def _reqfloat(block: dict, bname: str, key: str) -> float:
    if key not in block or block[key] is None:
        raise ConfigurationError(f"config {bname!r} block missing key {key!r}")
    try:
        return float(block[key])
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"config key {bname}.{key} must be a number") from None


def _solver_config(cfg: ExperimentConfig) -> solver_mod.SolverConfig:
    s = cfg.solver
    return solver_mod.SolverConfig(
        dr=_reqfloat(s, "solver", "dr"), tmax=_reqfloat(s, "solver", "tmax"),
        cfl=float(s.get("cfl", 0.45)),
        rmax=None if s.get("rmax") is None else float(s["rmax"]),
        nonlinear=bool(s.get("nonlinear", True)),
        sup_cap=float(s.get("sup_cap", 1e12)))


def _profiles(cfg: ExperimentConfig):
    """(metric, damping, data) profiles of an experiment."""
    d = cfg.data
    return (metric_mod.profile_from_config(cfg.metric),
            damping_mod.damping_from_config(cfg.damping),
            solver_mod.DataProfile(r0=_reqfloat(d, "data", "r0"),
                                   u0_amp=float(d.get("u0_amp", 0.0)),
                                   u1_amp=float(d.get("u1_amp", 0.0))))


# -- subcommand bodies ---------------------------------------------------------

def _run_validate(cfg: ExperimentConfig) -> int:
    profile = metric_mod.profile_from_config(cfg.metric)
    r_hi = float(cfg.run.get("r_max", max(50.0, 20.0 / profile.rho)))
    grid = np.linspace(1e-3, r_hi, int(cfg.run.get("points", 4000)))
    rep = metric_mod.validate_long_range(profile, grid)
    _write_json(asdict(rep), cfg.out)
    return 0 if rep.passed else 1


def _run_eigen(cfg: ExperimentConfig) -> int:
    profile = metric_mod.profile_from_config(cfg.metric)
    lam = _reqfloat(cfg.run, "run", "lam")
    r_max = float(cfg.run.get("r_max", 50.0 / lam))
    dr = float(cfg.run.get("dr", cfg.solver["dr"]))
    sol = eigen_mod.build_entire_solution(profile, lam, r_max, dr=dr)
    env = eigen_mod.verify_envelopes(sol)
    mu = eigen_mod.mu_diagnostic(sol)
    d0 = eigen_mod.verify_derivative_bounds(sol)
    report = {
        "lam": lam, "n": profile.n, "metric": cfg.metric, "r_max": r_max,
        "phi0": sol.phi0,
        "c_low": env.c_low, "c_high": env.c_high, "d0": d0,
        "sup_int_mu": mu.sup_int_mu, "sup_mu_over_lam": mu.sup_mu_over_lam,
        "mu_int_bound": mu.bound_int, "mu_bound": mu.bound_mu,
        "passed": bool(env.c_low > 0.0 and mu.passed),
    }
    _write_json(report, cfg.out)
    if cfg.csv is not None:
        rows = zip(sol.r, sol.phi, sol.dphi, sol.log_phi, sol.k_int)
        _write_csv(["r", "phi", "dphi", "log_phi", "k_int"], rows, cfg.csv)
    return 0 if report["passed"] else 1


def _run_ode(cfg: ExperimentConfig) -> int:
    run = cfg.run
    mode = run.get("mode", "kato")
    if mode == "kato":
        prob = ode_lab.KatoProblem(
            a=float(run.get("a", 1.0)), alpha=float(run.get("alpha", 0.0)),
            beta=_reqfloat(run, "run", "beta"), k=float(run.get("k", 1.0)),
            f0=float(run.get("f0", 1.0)), f0p=float(run.get("f0p", 0.0)))
        res = ode_lab.kato_blowup_time(prob)
        report = {"mode": "kato", "problem": asdict(prob),
                  "blew_up": res.blew_up, "t_blowup": res.t_blowup,
                  "crossings": list(res.crossings),
                  "theory_exponent": prob.theory_exponent}
        if "deltas" in run:
            times, slope, intercept = ode_lab.kato_delta_sweep(
                prob.a, prob.alpha, prob.beta,
                np.asarray(run["deltas"], dtype=float), k=prob.k)
            report["sweep"] = {"deltas": list(map(float, run["deltas"])),
                               "times": [float(t) for t in times],
                               "slope": slope, "intercept": intercept}
        _write_json(report, cfg.out)
        return 0 if res.blew_up else 1
    if mode == "comparison":
        prof = damping_mod.damping_from_config(cfg.damping)
        lam = _reqfloat(run, "run", "lam")
        T = float(run.get("T", 20.0))
        fwd = ode_lab.forward_comparison(prof, lam, T)
        bwd = ode_lab.backward_comparison(prof, lam, T)
        report = {"mode": "comparison", "lam": lam, "T": T,
                  "delta1": prof.delta1,
                  "forward_c_low": fwd.c_low, "backward_c_low": bwd.c_low}
        _write_json(report, cfg.out)
        return 0 if min(fwd.c_low, bwd.c_low) > 0 else 1
    raise ConfigurationError(f"config key run.mode: unknown ode mode {mode!r}")


def _run_solve(cfg: ExperimentConfig) -> int:
    profile, dprof, data = _profiles(cfg)
    scfg = _solver_config(cfg)
    run = cfg.run
    eps = _reqfloat(run, "run", "eps")
    p = _reqfloat(run, "run", "p")
    mode = run.get("solve_mode", "transformed")
    snaps = [float(t) for t in run.get("snapshots", [])]
    evolve = (solver_mod.evolve_transformed if mode == "transformed"
              else solver_mod.evolve_damped_direct)
    traj = evolve(profile, dprof, data, eps, scfg, p=p, snapshot_times=snaps)
    sup_rep = solver_mod.check_support_trajectory(traj)
    report = {
        "status": traj.status, "t_end": float(traj.t[-1]), "dt": traj.dt,
        "mode": traj.mode, "eps": eps, "p": p,
        "sup_final": float(traj.sup[-1]),
        "support_min_slack": float(np.min(sup_rep.slack)),
        "support_tol": sup_rep.tol,
        "support_within_tol": bool(sup_rep.passed),
    }
    if run.get("snapshot_file") and len(traj.snap_t):
        with open(run["snapshot_file"], "wb") as f:
            np.save(f, np.stack([traj.snap_u, traj.snap_v], axis=1))
        report["snapshot_times"] = [float(t) for t in traj.snap_t]
    _write_json(report, cfg.out)
    if cfg.csv is not None:
        stride = max(1, int(run.get("stride", 1)))
        idx = range(0, len(traj.t), stride)
        H, G = traj.H, traj.fpp
        rows = ((traj.t[i], traj.F[i], G[i], H[i], traj.sup[i],
                 traj.edge_r[i]) for i in idx)
        _write_csv(["t", "F", "Fpp", "H", "sup_u", "edge_r"], rows, cfg.csv)
    return 0


def _run_sweep(cfg: ExperimentConfig) -> int:
    profile, dprof, data = _profiles(cfg)
    scfg = _solver_config(cfg)
    run = cfg.run
    p = _reqfloat(run, "run", "p")
    if "eps_grid" in run:
        grid = np.asarray(run["eps_grid"], dtype=float)
    else:
        grid = lifespan_mod.geometric_eps_grid(
            _reqfloat(run, "run", "eps_max"), int(run.get("count", 7)),
            ratio=float(run.get("ratio", math.sqrt(2.0))))
    tmax_for = None
    if "tmax_budget" in run:
        budget = float(run["tmax_budget"])
        expo = float(run.get("tmax_exponent", 2.0))
        tmax_for = lambda e: min(scfg.tmax, budget / e ** expo)
    fit = lifespan_mod.sweep_and_fit(profile, dprof, data, grid, p, scfg,
                                     mode=run.get("solve_mode", "transformed"),
                                     tmax_for=tmax_for,
                                     refine=bool(run.get("refine", False)))
    _write_json(fit.as_dict(), cfg.out)
    if cfg.csv is not None:
        _write_csv(["eps", "t_blowup"], zip(fit.eps, fit.t), cfg.csv)
    return 0


def _run_critical(cfg: ExperimentConfig) -> int:
    profile, dprof, data = _profiles(cfg)
    run = cfg.run
    n = profile.n
    p_raw = run.get("p", "auto")
    p = lifespan_mod.critical_exponent(n) if p_raw == "auto" else float(p_raw)
    q = critical_mod.critical_q(n, p)
    t_max = float(run.get("t_max", 40.0))
    eps = float(run.get("eps", 0.4))
    scfg = _solver_config(replace(cfg, solver=dict(cfg.solver, tmax=t_max)))
    lam_pts = int(run.get("lam_points", 17))
    ev = critical_mod.build_evaluator(
        profile, dprof, q=q,
        r_max=(t_max / dprof.delta1 + 2.0) / profile.delta0 + 2.0,
        r1=metric_mod.k_integral(profile, data.r0),
        lam_grid=critical_mod.log_lambda_grid(
            min(1.0, eigen_mod.lambda_max(profile)), lam_pts), dr=scfg.dr)
    step = float(run.get("snapshot_step", 0.5))
    snaps = list(np.arange(0.0, t_max + 1e-9, step))
    traj = solver_mod.evolve_transformed(profile, dprof, data, eps, scfg,
                                         p=p, snapshot_times=snaps)
    crep = critical_mod.critical_F(traj, ev)
    samples = []
    for T in (t_max / 4, t_max / 2, t_max):
        for t in (0.0, T / 4, T / 2):
            samples.append((data.r0, T, t))
            samples.append((0.4 * T, T, t))
        for r in (data.r0, 0.25 * T, 0.6 * T, 0.9 * T):
            samples.append((r, T, T))
    brep = critical_mod.xi_bounds_check(ev, samples)
    consts = critical_mod.SlicingConstants(
        c_int=crep.min_ratio, B=float(run.get("B", 0.5)), eps=eps, p=p)
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
    _write_json(report, cfg.out)
    ok = (brep.passed and crep.min_ratio > 0.0 and crep.min_slicing1 > 0.0
          and irep.max_iter_rel_err < 1e-2)
    return 0 if ok else 1


_BODIES = {"validate": _run_validate, "eigen": _run_eigen, "ode": _run_ode,
           "solve": _run_solve, "sweep": _run_sweep, "critical": _run_critical}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    return _BODIES[cfg.kind](cfg)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aeblow",
        description="numerical laboratory for radial waves on asymptotically "
                    "flat backgrounds")
    sub = ap.add_subparsers(dest="kind", required=True)
    helps = {
        "validate": "check the long-range conditions on a metric profile",
        "eigen": "build one exponential-growth eigenfunction and its report",
        "ode": "comparison/blow-up ODE studies (run.mode: kato|comparison)",
        "solve": "one radial wave evolution with scalar records",
        "sweep": "lifespan sweep over an eps grid with slope fit",
        "critical": "critical-exponent test-function and slicing checks",
    }
    for kind in KINDS:
        sp = sub.add_parser(kind, help=helps[kind])
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
