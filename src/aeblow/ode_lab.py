"""Second-order ODE studies: comparison solutions and the blow-up ODE.

Two users: the auxiliary solutions of y'' = lam^2 mt(t)^2 y used to build
test functions, and the blow-up ODE F'' = k (1+t)^-alpha F^beta whose finite
blow-up time scales like a power of the seed size delta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .damping import DampingProfile, eta_of_s, m_tilde
from .errors import ConfigurationError, DomainError, IntegrationError

__all__ = [
    "ComparisonSolution",
    "forward_comparison",
    "backward_comparison",
    "KatoProblem",
    "KatoResult",
    "kato_blowup_time",
    "kato_delta_sweep",
]


@dataclass(frozen=True)
class ComparisonSolution:
    """Solution of y'' = lam^2 mt(t)^2 y with measured envelope constants."""

    t: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    c_low: float              # inf of min(lam*y/sinh(lam*eta_arg), |y'|/cosh(...))


def _comparison(damping: DampingProfile, lam: float, T: float,
                backward: bool) -> ComparisonSolution:
    """Solve y'' = lam^2 mt^2 y from y = 0, y' = 1 at t = 0, or backwards from
    y = 0, y' = -1 at t = T; sample it at 400 points on [0, T] and measure its
    sinh envelope in eta from the start, skipping the start (both sides 0).
    eta(T) comes from the float path, which rounds unlike eta[-1]."""
    from . import _ode
    if lam <= 0 or T <= 0:
        raise DomainError("lambda and the time span must be positive")
    sign = -1.0 if backward else 1.0

    def rhs(t, z):
        return [z[1], lam * lam * m_tilde(damping, t) ** 2 * z[0]]

    res = _ode.solve(rhs, (T, 0.0) if backward else (0.0, T), [0.0, sign],
                     1e-11, 1e-13, dense_output=True)
    if not res.success:
        raise IntegrationError(res.message)
    ts = np.linspace(0.0, T, 400)
    y, yp = res.sol(ts)
    eta = np.asarray(eta_of_s(damping, ts))
    if backward:
        keep, dist = slice(None, -1), float(eta_of_s(damping, T)) - eta
    else:
        keep, dist = slice(1, None), eta
    arg = lam * dist[keep]
    c_low = float(np.min(np.minimum(lam * y[keep] / np.sinh(arg),
                                    sign * yp[keep] / np.cosh(arg))))
    return ComparisonSolution(t=ts, y=y, yp=yp, c_low=c_low)


def forward_comparison(damping: DampingProfile, lam: float,
                       t_max: float) -> ComparisonSolution:
    """Solve y'' = lam^2 mt^2 y, y(0)=0, y'(0)=1 and measure its sinh envelope."""
    return _comparison(damping, lam, t_max, backward=False)


def backward_comparison(damping: DampingProfile, lam: float,
                        T: float) -> ComparisonSolution:
    """Solve y'' = lam^2 mt^2 y backwards from y(T)=0, y'(T)=-1."""
    return _comparison(damping, lam, T, backward=True)


# -- blow-up ODE ---------------------------------------------------------------

@dataclass(frozen=True)
class KatoProblem:
    """F'' = k (1+t)^-alpha F^beta with seed F(0) = f0, F'(0) = f0p."""

    a: float
    alpha: float
    beta: float
    k: float = 1.0
    f0: float = 1.0
    f0p: float = 0.0

    def __post_init__(self):
        if self.beta <= 1 or self.a < 1:
            raise DomainError("need beta > 1 and a >= 1")
        if (self.beta - 1.0) * self.a <= self.alpha - 2.0:
            raise DomainError("hypothesis (beta-1) a > alpha - 2 violated")
        if not self.f0 > 0:
            raise DomainError("need f0 > 0")

    @property
    def theory_exponent(self) -> float:
        """Slope of log T_b vs log delta predicted for F >= delta (t+1)^a."""
        return -(self.beta - 1.0) / ((self.beta - 1.0) * self.a - self.alpha + 2.0)


@dataclass(frozen=True)
class KatoResult:
    blew_up: bool
    t_blowup: float | None
    crossings: tuple[float, ...]


_THRESHOLDS = (1e8, 1e10, 1e12)


def _aitken(t1: float, t2: float, t3: float) -> float:
    """Geometric-sequence extrapolation of the accumulation point."""
    den = t3 - 2.0 * t2 + t1
    if abs(den) < 1e-14 * max(abs(t3), 1.0):
        return t3
    return (t1 * t3 - t2 * t2) / den


def kato_blowup_time(problem: KatoProblem, tolerance: float = 1e-10,
                     t_budget: float = 1e6) -> KatoResult:
    """Numerical blow-up time via threshold crossings at 1e8/1e10/1e12.

    The three crossing times accumulate geometrically at the vertical
    asymptote, so Aitken extrapolation removes the leading threshold bias.
    """
    from . import _ode
    p = problem

    def rhs(t, z):
        return [z[1], p.k * (1.0 + t) ** (-p.alpha) * z[0] ** p.beta]

    res = _ode.solve(rhs, (0.0, t_budget), [p.f0, p.f0p], tolerance,
                     tolerance * p.f0, "RK45", thresholds=_THRESHOLDS,
                     max_step=t_budget / 16.0)
    if res.status == -1:
        raise IntegrationError(f"kato solve failed at t={res.t[-1]:g}, "
                               f"F={res.y[0, -1]:g}: {res.message}")
    crossings = tuple(float(ev[0]) for ev in res.t_events if len(ev))
    if len(crossings) < 3:
        return KatoResult(blew_up=False, t_blowup=None, crossings=crossings)
    tb = _aitken(*crossings[:3])
    return KatoResult(blew_up=True, t_blowup=float(tb), crossings=crossings[:3])


def kato_delta_sweep(problem: KatoProblem, deltas: np.ndarray):
    """Blow-up times over a delta grid plus the fitted log-log slope.

    Seeds F(0) = F'(0) = delta, matching the lemma's hypothesis at a = 1.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) < 2:
        raise ConfigurationError("a delta sweep needs at least 2 deltas")
    times = []
    for d in deltas:
        res = kato_blowup_time(replace(problem, f0=d, f0p=d))
        if not res.blew_up:
            raise IntegrationError(f"no blow-up for delta={d:g} within budget")
        times.append(res.t_blowup)
    times = np.asarray(times)
    slope, intercept = np.polyfit(np.log(deltas), np.log(times), 1)
    return times, float(slope), float(intercept)
