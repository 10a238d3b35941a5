"""Blow-up detection, epsilon sweeps, and lifespan exponent fits.

The detected blow-up time comes from sup|u| crossing three geometric
thresholds (1e6, 1e8, 1e10 times eps) with log-interpolation between recorded
steps followed by Aitken extrapolation of the crossing times.  Sweeping eps
over a geometric grid and fitting log T against log eps recovers the scaling
exponent 2p(p-1)/((n-1)p^2-(n+1)p-2) in the subcritical range, and
-(p-1)/(3-p) for n=2, p<2 with velocity-only data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .damping import DampingProfile
from .errors import (ConfigurationError, DomainError, InsufficientDataError,
                     PositivityError)
from .metric import MetricProfile
from .ode_lab import _aitken
from .wave_solver import (DataProfile, SolverConfig, Trajectory,
                          evolve_damped_direct, evolve_transformed)

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

THRESHOLD_FACTORS = (1e6, 1e8, 1e10)


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


def _crossing_times(traj: Trajectory, eps: float):
    """Log-interpolated times where sup|u| first exceeds each threshold."""
    times = []
    sup = traj.sup
    t = traj.t
    for fac in THRESHOLD_FACTORS:
        thr = fac * eps
        idx = np.nonzero(sup >= thr)[0]
        if len(idx) == 0:
            return times
        m = int(idx[0])
        if m == 0 or sup[m - 1] <= 0:
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
    treat as "eps too small for this budget".
    """
    evolve = _evolver(mode)
    # the cap must sit above the largest detection threshold
    cap = max(config.sup_cap, 1e11 * eps)
    traj = evolve(metric, damping, data, eps, replace(config, sup_cap=cap), p=p)
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


def sweep_and_fit(metric: MetricProfile, damping: DampingProfile | None,
                  data: DataProfile, eps_grid, p: float,
                  config: SolverConfig, mode: str = "transformed",
                  tmax_for=None) -> FitReport:
    """Detect blow-up across an eps grid and fit the lifespan exponent.

    tmax_for(eps) may supply a per-point time budget; with the default the
    shared config.tmax is used for every point.  Points are run in eps order
    so the merged records are deterministic.
    """
    pc = critical_exponent(metric.n)
    if abs(p - pc) < 1e-9:
        raise ConfigurationError(
            "p equals the critical exponent: a direct sweep would need "
            "exponential time budgets; use the critical-case checks instead")
    eps_grid = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    if len(eps_grid) < 5:
        raise ConfigurationError("sweep needs at least 5 eps values")
    records = []
    for eps in eps_grid:
        cfg = config if tmax_for is None \
            else replace(config, tmax=float(tmax_for(eps)))
        records.append(detect_blowup(metric, damping, data, float(eps), p,
                                     cfg, mode=mode))
    return fit_records(records, metric.n, p, data)
