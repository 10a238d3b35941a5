"""Blow-up detection, epsilon sweeps, and lifespan exponent fits.

The detected blow-up time comes from sup|u| crossing three geometric
thresholds (1e6, 1e8, 1e10 times eps) with log-interpolation between recorded
steps followed by Aitken extrapolation of the crossing times.  Sweeping eps
over a geometric grid and fitting log T against log eps recovers the scaling
exponent 2p(p-1)/((n-1)p^2-(n+1)p-2) in the subcritical range, and
-(p-1)/(3-p) for n=2, p<2 with velocity-only data; a sweep's time budget
scales each point's horizon by the same exponent.

The points of a sweep share nothing, so ``sweep_and_fit`` detects them in
forked child processes, one point a child and at most one child per core
the process may run on, smallest eps (longest lifespan) first.  Each point
is the same computation as in a plain loop, and the records are merged in
eps order before the fit, so the fit is bit for bit that of the plain loop,
which is what runs on a single core.  ``_forked`` is the package's one way
to fork: the ``critical`` command evolves in its child while it shoots its
eigenfunction family.
"""

from __future__ import annotations

import math
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .damping import DampingProfile
from .errors import (AeblowError, ConfigurationError, DomainError,
                     InsufficientDataError, PositivityError)
from .metric import MetricProfile
from .wave_solver import (THRESHOLD_FACTORS, DataProfile, SolverConfig,
                          Trajectory, evolve_damped_direct, evolve_transformed)

__all__ = [
    "critical_exponent",
    "subcritical_exponent",
    "special_exponent",
    "LifespanRecord",
    "FitReport",
    "detect_blowup",
    "sweep_and_fit",
    "geometric_eps_grid",
]


def critical_exponent(n: int) -> float:
    """Positive root of (n-1)p^2 - (n+1)p - 2 = 0."""
    if n < 2:
        raise DomainError("critical exponent needs dimension n >= 2")
    disc = (n + 1.0) ** 2 + 8.0 * (n - 1.0)
    return ((n + 1.0) + math.sqrt(disc)) / (2.0 * (n - 1.0))


def subcritical_exponent(n: int, p: float) -> float:
    """Lifespan scaling exponent 2p(p-1)/((n-1)p^2-(n+1)p-2)."""
    den = (n - 1.0) * p * p - (n + 1.0) * p - 2.0
    if den == 0:
        raise DomainError("exponent undefined at the critical p")
    return 2.0 * p * (p - 1.0) / den


def special_exponent(p: float) -> float:
    """The n=2, p<2, velocity-only improvement -(p-1)/(3-p)."""
    if not 1.0 < p < 3.0:
        raise DomainError("special exponent needs 1 < p < 3")
    return -(p - 1.0) / (3.0 - p)


@dataclass(frozen=True)
class LifespanRecord:
    eps: float
    blew_up: bool
    t_detected: float          # nan when no blow-up within budget
    crossings: tuple           # interpolated threshold crossing times
    status: str

    def __post_init__(self):
        if self.blew_up and not self.t_detected > 0:
            raise PositivityError("blow-up record with nonpositive time")


def _aitken(t1: float, t2: float, t3: float) -> float:
    """Geometric-sequence extrapolation of the accumulation point."""
    den = t3 - 2.0 * t2 + t1
    if abs(den) < 1e-14 * max(abs(t3), 1.0):
        return t3
    return (t1 * t3 - t2 * t2) / den


def _crossing_times(traj: Trajectory, eps: float):
    """Log-interpolated times where sup|u| first exceeds each threshold;
    sup[0] lies below the first (detect_blowup checks it)."""
    times = []
    sup = traj.sup
    t = traj.t
    for fac in THRESHOLD_FACTORS:
        thr = fac * eps
        idx = np.nonzero(sup >= thr)[0]
        if len(idx) == 0:
            return times
        m = int(idx[0])
        if sup[m - 1] <= 0:     # velocity-only data start at sup = 0
            times.append(float(t[m]))
            continue
        frac = (math.log(thr) - math.log(sup[m - 1])) \
            / (math.log(sup[m]) - math.log(sup[m - 1]))
        times.append(float(t[m - 1] + frac * (t[m] - t[m - 1])))
    return times


def _evolver(mode: str):
    """The evolution of a solve mode, looked up in this module's namespace
    on every call."""
    if mode not in ("transformed", "direct"):
        raise ConfigurationError(
            f"unknown solve mode {mode!r}: use 'transformed' or 'direct'")
    return evolve_transformed if mode == "transformed" else evolve_damped_direct


def detect_blowup(metric: MetricProfile, damping: DampingProfile | None,
                  data: DataProfile, eps: float, p: float,
                  config: SolverConfig,
                  mode: str = "transformed") -> LifespanRecord:
    """Run one evolution and extract the blow-up time, if any.

    A run that exhausts its time budget without crossing all thresholds
    yields a valid no-blow-up record (t_detected = nan), which a sweep may
    treat as "eps too small for this budget".  Data whose sup|u(0)| already
    reaches the first threshold are refused: that crossing has no time.
    """
    evolve = _evolver(mode)
    # the cap must sit above the largest detection threshold
    cap = max(config.sup_cap, 10 * THRESHOLD_FACTORS[-1] * eps)
    traj = evolve(metric, damping, data, eps, replace(config, sup_cap=cap),
                  p=p, functionals=False)
    first = THRESHOLD_FACTORS[0] * eps
    if eps > 0 and traj.sup[0] >= first:
        raise ConfigurationError(
            f"sup|u(0)| = {traj.sup[0]:.6g} already reaches the first "
            f"detection threshold {THRESHOLD_FACTORS[0]:g} eps = {first:.6g}; "
            f"lower the data amplitudes")
    crossings = _crossing_times(traj, eps) if eps > 0 else []
    blew = len(crossings) == len(THRESHOLD_FACTORS)
    t_det = _aitken(*crossings) if blew else float("nan")
    return LifespanRecord(eps=eps, blew_up=blew, t_detected=t_det,
                          crossings=tuple(crossings), status=traj.status)


def geometric_eps_grid(eps_max: float, count: int,
                       ratio: float = math.sqrt(2.0)) -> np.ndarray:
    """Decreasing geometric grid eps_max, eps_max/ratio, ..."""
    if eps_max <= 0 or count < 1 or ratio <= 1:
        raise ConfigurationError("eps grid needs eps_max > 0, count >= 1, ratio > 1")
    return eps_max / ratio ** np.arange(count)


@dataclass(frozen=True)
class FitReport:
    eps: np.ndarray
    t: np.ndarray
    slope: float
    intercept: float
    ci: float                 # 95% half-width on the slope
    theory: float
    theory_special: float | None
    ratio: float              # slope / theory
    monotone: bool

    def as_dict(self) -> dict:
        return {
            "slope": self.slope, "intercept": self.intercept, "ci": self.ci,
            "theory": self.theory, "theory_special": self.theory_special,
            "ratio": self.ratio, "monotone": self.monotone,
            "eps": [float(e) for e in self.eps],
            "t": [float(t) for t in self.t],
        }


def fit_records(records, n: int, p: float, data: DataProfile) -> FitReport:
    """Least-squares slope of log T against log eps for blow-up records."""
    blown = [r for r in records if r.blew_up]
    if len(blown) < 5:
        raise InsufficientDataError(
            f"need at least 5 blow-up records for a fit, got {len(blown)}")
    eps = np.array([r.eps for r in blown])
    order = np.argsort(eps)[::-1]
    eps = eps[order]
    t = np.array([r.t_detected for r in blown])[order]
    x = np.log(eps)
    y = np.log(t)
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    ci = 1.96 * math.sqrt(max(cov[0][0], 0.0))
    theory = subcritical_exponent(n, p)
    special = None
    if n == 2 and p < 2.0 and data.u1_amp > 0:
        special = special_exponent(p)
    return FitReport(
        eps=eps, t=t, slope=float(slope),
        intercept=float(intercept), ci=float(ci), theory=theory,
        theory_special=special, ratio=float(slope / theory),
        monotone=bool(np.all(np.diff(t) >= -1e-9)))


def _send_outcome(call, conn):
    """A forked child's body: run the call and send (ok, value) back; an
    error that would not survive the pipe goes as an AeblowError naming its
    type and message."""
    try:
        out = True, call()
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = AeblowError(f"{type(exc).__name__}: {exc}")
        out = False, exc
    conn.send(out)


@contextmanager
def _forked(calls):
    """One getter per zero-argument call, in call order, each returning its
    call's result or raising its error.

    Each call runs in its own forked child, which inherits the call (a
    damping's caches cannot be pickled) and sends its (ok, value) back over
    a one-way pipe.  The children start in call order, at most min(cores,
    calls) running at once; a getter waits on the running children's
    pipes, receives each one that finishes, and starts the next waiting
    call.  A received result is handed over at once: the child that sent
    it is joined on exit, so its teardown overlaps the caller's work.  A
    child that ends without sending is joined at once, and its getter
    raises an AeblowError with its exit code.  With one core, or without
    the fork start method, each getter runs its call in this process when
    it is read.  Every child is joined on exit, and the calls not yet
    started are dropped.
    """
    import multiprocessing
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if cores < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield list(calls)
        return
    from multiprocessing.connection import wait
    ctx = multiprocessing.get_context("fork")
    waiting = iter(enumerate(calls))
    running = {}        # the reading end of each child's pipe: (index, child)
    sent = []           # the children that sent, joined on exit
    outcomes = {}

    def start_next():
        for i, call in waiting:     # the first waiting call, if any
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_outcome, args=(call, writer))
            child.start()
            writer.close()      # so the reader sees EOF when the child ends
            running[reader] = i, child
            return

    def receive(reader):
        i, child = running.pop(reader)
        with reader:
            try:
                out = reader.recv()
            except EOFError:
                out = None
        if out is None:     # the child ended without sending
            child.join()
            out = False, AeblowError(f"forked call {i} ended without a "
                                     f"result (exit code {child.exitcode})")
        else:
            sent.append(child)
        outcomes[i] = out

    def get(i):
        while i not in outcomes:
            for reader in wait(list(running)):
                receive(reader)
                start_next()
        ok, value = outcomes[i]
        if ok:
            return value
        raise value

    try:
        for _ in range(min(cores, len(calls))):
            start_next()
        yield [partial(get, i) for i in range(len(calls))]
    finally:
        while running:
            receive(next(iter(running)))
        for child in sent:
            child.join()


def sweep_and_fit(metric: MetricProfile, damping: DampingProfile | None,
                  data: DataProfile, eps_grid, p: float,
                  config: SolverConfig, mode: str = "transformed",
                  tmax_budget: float | None = None) -> FitReport:
    """Detect blow-up across an eps grid and fit the lifespan exponent.

    Each point runs to config.tmax, or with a tmax_budget to
    min(config.tmax, tmax_budget / eps**e), e = 2p(p-1)/gamma(n, p) with
    gamma(n, p) = 2 + (n+1)p - (n-1)p^2 (minus subcritical_exponent, the
    fit's theory), as the sharp lifespan bound T(eps) ~ eps**(-e) scales; a
    budget needs p below the critical exponent, where that bound holds.
    The points run in forked child processes, one a point and at most one
    per core in the process's CPU affinity, smallest eps first; with one
    core, or without the fork start method, one after another.  The records
    are merged in eps order whatever order the points finish in, so the fit
    is deterministic, and the error of the first failing point in that
    order is raised.  Every child is joined before this returns or raises.
    """
    pc = critical_exponent(metric.n)
    if abs(p - pc) < 1e-9:
        raise ConfigurationError(
            "p equals the critical exponent: a direct sweep would need "
            "exponential time budgets; use the critical-case checks instead")
    if tmax_budget is not None and p > pc:
        raise ConfigurationError(
            f"tmax_budget scales by the subcritical lifespan exponent, which "
            f"needs p < p_c({metric.n}) = {pc:.6g}, not p = {p:g}")
    eps_grid = [float(e) for e in sorted(eps_grid, reverse=True)]
    if len(eps_grid) < 5:
        raise ConfigurationError("sweep needs at least 5 eps values")
    e = -subcritical_exponent(metric.n, p)
    calls = [partial(detect_blowup, metric, damping, data, eps, p,
                     config if tmax_budget is None else
                     replace(config, tmax=float(min(config.tmax,
                                                    tmax_budget / eps ** e))),
                     mode=mode) for eps in eps_grid]
    # longest lifespans first, so the last point to finish is short
    with _forked(calls[::-1]) as points:
        records = [point() for point in reversed(points)]
    return fit_records(records, metric.n, p, data)
