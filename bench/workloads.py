"""Seeded job lists, acceptance gates and key outputs of the three workloads.

A job is one ``aeblow`` CLI experiment: a subcommand plus ``--set``
overrides, exactly what a user would type.  The generator turns a seed into
the job list of one *pass*; a benchmark run repeats that pass in a closed
loop.  The seed picks one of ``VARIANTS`` input sets (``seed % VARIANTS``)
so that every seed has stored reference outputs under ``reference/``.

Why each workload exists (profiles of the README commands, numpy kernel):

sweep-n3     the README ``sweep``; ~99 % of it is the time-stepping kernel.
critical-n3  the ``critical`` pipeline at criterion-7 scale; ~85-95 % of it
             is the per-lambda eigenfunction shooting (``build_family``).
damped-jobs  ~40 short damped jobs; the damping change-of-variable maps
             dominate, the kernel runs many short snapshot segments.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

VARIANTS = 64
WORKLOADS = ("sweep-n3", "critical-n3", "damped-jobs")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Round-off bound on the key outputs against the stored reference: the
# tolerance to which ROADMAP item 5 holds criterion-7's A1/A2.
REL_TOL = 1e-8

# jobs per pass
CRITICAL_JOBS = 4
DAMPED_MIX = (("comparison", 16), ("kato", 6), ("solve", 18))
# damping kind cycle: cheap closed-form power law most often, the quad-built
# oscillatory kind and the dense-ODE tabulated kind less often
DAMPING_CYCLE = ("scattering-power", "signed-oscillatory", "scattering-power",
                 "tabulated", "scattering-power", "signed-oscillatory",
                 "scattering-power", "scattering-power")


def _num(x: float) -> str:
    return f"{x:.6g}"


def _rng(workload: str, seed: int) -> np.random.Generator:
    salt = WORKLOADS.index(workload)
    return np.random.default_rng([salt, seed % VARIANTS])


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n values in [lo, hi), one from each of n equal strata, in random order.

    Every seed then covers each parameter range evenly, so the work of a
    pass, and with it the timing, varies little from seed to seed.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _sweep_jobs(rng):
    # kernel work goes like eps_max^-2.5 (measured), so +-0.5 % here is
    # +-1.3 % of work
    eps_max = 7.0 * (1.0 + 0.005 * (2.0 * rng.random() - 1.0))
    return [("sweep", ["run.p=2.0", f"run.eps_max={eps_max:.9g}",
                       "run.ratio=1.3", "solver.tmax=400",
                       "run.tmax_budget=2100"])]


def _critical_jobs(rng):
    n = CRITICAL_JOBS
    t_max = _strata(rng, n, 39.2, 40.8)
    eps = _strata(rng, n, 0.36, 0.44)
    return [("critical", [f"run.t_max={_num(t)}", "solver.dr=0.05",
                          f"run.eps={_num(e)}"]) for t, e in zip(t_max, eps)]


def _damping_overrides(rng, kind: str, mu: float, beta: float):
    if kind == "tabulated":
        # positive piecewise-linear b on [0, 8] rescaled to L1 mass ~0.9
        t = np.arange(9.0)
        b = rng.uniform(0.2, 1.0, size=len(t))
        b *= rng.uniform(0.855, 0.945) / np.trapezoid(b, t)
        table = [[float(a), float(_num(v))] for a, v in zip(t, b)]
        return ["damping.kind=tabulated",
                "damping.table=" + json.dumps(table, separators=(",", ":"))]
    return [f"damping.kind={kind}", f"damping.mu={_num(mu)}",
            f"damping.beta={_num(beta)}"]


def _damped_jobs(rng):
    jobs = []
    for kind, n in DAMPED_MIX:
        if kind == "kato":
            for beta, k, f0p in zip(_strata(rng, n, 1.5, 3.0),
                                    _strata(rng, n, 1.0, 6.0),
                                    _strata(rng, n, 0.5, 2.0)):
                jobs.append(("ode", ["run.mode=kato", f"run.beta={_num(beta)}",
                                     f"run.k={_num(k)}", f"run.f0p={_num(f0p)}"]))
            continue
        mus, betas = _strata(rng, n, 0.2, 0.6), _strata(rng, n, 1.6, 2.4)
        if kind == "comparison":
            for i, lam in enumerate(_strata(rng, n, 0.05, 0.3)):
                damp = _damping_overrides(
                    rng, DAMPING_CYCLE[i % len(DAMPING_CYCLE)], mus[i], betas[i])
                jobs.append(("ode", ["run.mode=comparison",
                                     f"run.lam={_num(lam)}"] + damp))
            continue
        params = zip(_strata(rng, n, -0.3, 0.3), _strata(rng, n, 0.5, 2.0),
                     _strata(rng, n, 0.05, 0.3), _strata(rng, n, 2.0, 3.0))
        for i, (c, rho, eps, p) in enumerate(params):
            # each damping kind is solved in both modes
            damp = _damping_overrides(
                rng, DAMPING_CYCLE[(i // 2) % len(DAMPING_CYCLE)], mus[i], betas[i])
            jobs.append(("solve", [
                "metric.kind=power-law", f"metric.c={_num(c)}",
                f"metric.rho={_num(rho)}",
                f"run.solve_mode={('direct', 'transformed')[i % 2]}",
                f"run.eps={_num(eps)}", f"run.p={_num(p)}", "solver.tmax=12",
                "run.snapshots=" + json.dumps([float(k) for k in range(1, 13)]),
            ] + damp))
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


_GENERATORS = {"sweep-n3": _sweep_jobs, "critical-n3": _critical_jobs,
               "damped-jobs": _damped_jobs}


def jobs_for(workload: str, seed: int):
    """The job list of one pass: [(kind, overrides), ...]."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](_rng(workload, seed))


def jobs_digest(jobs) -> str:
    """Fingerprint of a job list, stored with its reference outputs."""
    text = json.dumps(jobs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- output checks ---------------------------------------------------------------

def key_outputs(kind: str, overrides, report: dict) -> list[float]:
    """Blow-up times and slope, A1/A2 and min_ratio, c_low, sup_final."""
    if kind == "sweep":
        return [report["slope"]] + list(report["t"])
    if kind == "critical":
        return [report["a1"], report["a2"], report["min_ratio"]]
    if kind == "solve":
        return [report["sup_final"]]
    if report["mode"] == "kato":
        return [report["t_blowup"]]
    return [report["forward_c_low"], report["backward_c_low"]]


def gate_failures(kind: str, status: int, report: dict | None) -> list[str]:
    """Acceptance gates a job must meet; empty when the job passed."""
    if status != 0 or report is None:
        return [f"exit status {status}"]
    bad = []
    if kind == "sweep" and not abs(report["slope"] / -2.0 - 1.0) <= 0.15:
        bad.append(f"sweep slope {report['slope']!r} not within 15% of -2")
    if kind == "critical":
        if report["bounds_passed"] is not True:
            bad.append("critical bounds_passed is false")
        if not report["min_ratio"] > 0.0:
            bad.append(f"critical min_ratio {report['min_ratio']!r} <= 0")
    if kind == "ode" and report["mode"] == "comparison":
        c_low = min(report["forward_c_low"], report["backward_c_low"])
        if not c_low > 0.0:
            bad.append(f"comparison c_low {c_low!r} <= 0")
    if kind == "solve" and not math.isfinite(report["sup_final"]):
        bad.append("solve sup_final is not finite")
    return bad


def rel_dev(values, reference) -> float:
    """Largest relative deviation of key outputs from their reference."""
    if len(values) != len(reference):
        return math.inf
    worst = 0.0
    for x, r in zip(values, reference):
        if x == r:
            continue
        worst = max(worst, abs(x - r) / max(abs(r), 1e-300))
    return worst


def load_reference(workload: str, seed: int, jobs):
    """Stored key outputs of this seed's input set, or None when absent.

    A stored entry whose job-list digest differs from ``jobs`` means the
    generator changed after the reference was captured; that is an error,
    not a silent skip.
    """
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    variant = seed % VARIANTS
    entry = json.loads(path.read_text()).get(str(variant))
    if entry is None:
        return None
    if entry["digest"] != jobs_digest(jobs):
        raise RuntimeError(f"{path.name}: stored reference of input set "
                           f"{variant} was made from other jobs; recapture it")
    return {"variant": variant, "outputs": entry["outputs"]}
