"""Second-order ODE studies: comparison solutions and the blow-up ODE.

Two users: the auxiliary solutions of y'' = lam^2 mt(t)^2 y, sampled at 400
times, used to build test functions, and the blow-up ODE F'' = k (1+t)^-alpha F^beta whose finite
blow-up time scales like a power of the seed size delta.  Both are stepped
by aeblow._ode's DOP853; the blow-up time is the limit of t in a variable
that runs to infinity as F blows up, read off once the time left is known
to within the tolerance, so no event or root is looked for.
"""

from __future__ import annotations

import math
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
    y = 0, y' = -1 at t = T; sample it at 400 points on [0, T], taken in the
    solve's direction, and measure its sinh envelope in eta from the start,
    skipping the start (both sides 0).
    eta(T) comes from the float path, which rounds unlike eta[-1]."""
    from . import _ode
    if lam <= 0 or T <= 0:
        raise DomainError("lambda and the time span must be positive")
    sign = -1.0 if backward else 1.0

    def rhs(t, z):
        return [z[1], lam * lam * m_tilde(damping, t) ** 2 * z[0]]

    ts = np.linspace(0.0, T, 400)
    step = -1 if backward else 1        # the samples in the solve's direction
    y, yp = _ode.solve(rhs, (0.0, T)[::step], [0.0, sign], 1e-11, 1e-13,
                       ts[::step], "comparison solve")[:, ::step]
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

# the solve's w relaxes at the rate 2 (beta+1)/(beta-1), so its explicit
# steps shrink like beta - 1
_BETA_MIN = 1.01


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
        if not self.beta >= _BETA_MIN or self.a < 1:
            raise DomainError(f"need beta >= {_BETA_MIN:g} and a >= 1")
        if (self.beta - 1.0) * self.a <= self.alpha - 2.0:
            raise DomainError("hypothesis (beta-1) a > alpha - 2 violated")
        if not self.f0 > 0:
            raise DomainError("need f0 > 0")
        if not self.k > 0:
            raise DomainError("need k > 0")

    @property
    def theory_exponent(self) -> float:
        """Slope of log T_b vs log delta predicted for F >= delta (t+1)^a."""
        return -(self.beta - 1.0) / ((self.beta - 1.0) * self.a - self.alpha + 2.0)


@dataclass(frozen=True)
class KatoResult:
    blew_up: bool
    t_blowup: float | None


_RTOL = 1e-11
_TAIL_TOL = 1e-13      # the tail's error bound, relative to the blow-up time


def _advance(stepper, where) -> bool:
    """One accepted step; False once the stepper has reached its bound.  A
    failed step raises, naming where(stepper) = (t, F)."""
    message = stepper.step()
    if message is not None:
        t, F = where(stepper)
        raise IntegrationError(f"kato solve failed at t={t:g}, F={F:g}: "
                               f"{message}")
    return stepper.status == "running"


def kato_blowup_time(problem: KatoProblem,
                     t_budget: float = 1e6) -> KatoResult:
    """The blow-up time of F'' = k (1+t)^-alpha F^beta, F(0) = f0,
    F'(0) = f0p, as the limit of t along a change of variables (Stuart &
    Floater 1990).

    The solve steps in t until F >= 2 f0 and F' > 0, then changes to
    s = (beta-1)/2 ln F, which runs to infinity as F blows up, with the
    unknowns t and w = F' F^-(beta+1)/2 (kept away from 0 by the switch):

        dt/ds = 2 e^-s / ((beta-1) w),
        dw/ds = (2k (1+t)^-alpha / w - (beta+1) w) / (beta-1).

    Both are regular for every s.  A blow-up drives w to
    w* = sqrt(2k (1+t)^-alpha / (beta+1)) and the time left to the tail
    2 e^-s / ((beta-1) w).  Off w*, or with w* changing over the tail, that
    tail is off by at most tail (|w^2/w*^2 - 1| + alpha tail / (1+t)); the
    solve stops at the first step where this is below 1e-13 of t + tail
    and returns t + tail.  A solution that does not blow up never meets
    that test (w leaves w*, and the tail grows like t), so its t passes
    t_budget: that in either phase, or a t + tail past t_budget, is
    "no blow-up".  A failed step raises.
    """
    from . import _ode
    p = problem
    t, F, Fp = 0.0, p.f0, p.f0p

    def rhs_t(t, z):
        return [z[1], p.k * (1.0 + t) ** -p.alpha * z[0] ** p.beta]

    # F' grows on the scale sqrt(k f0^(beta+1)) while F doubles
    scale = np.array([p.f0, math.sqrt(p.k * p.f0 ** (p.beta + 1.0))])
    stepper = _ode.Stepper(rhs_t, t, [F, Fp], t_budget, _RTOL, _RTOL * scale)
    while not (F >= 2.0 * p.f0 and Fp > 0):
        running = _advance(stepper, lambda s: (s.t, s.y[0]))
        t, (F, Fp) = stepper.t, stepper.y.tolist()
        if not running:
            return KatoResult(blew_up=False, t_blowup=None)
    b1, w2_star = p.beta - 1.0, 2.0 * p.k / (p.beta + 1.0)

    def rhs_s(s, z):
        t, w = z
        return [2.0 * math.exp(-s) / (b1 * w),
                (2.0 * p.k * (1.0 + t) ** -p.alpha / w - (p.beta + 1.0) * w)
                / b1]

    stepper = _ode.Stepper(rhs_s, b1 / 2.0 * math.log(F),
                           [t, Fp * F ** (-(p.beta + 1.0) / 2.0)], math.inf,
                           _RTOL, 1e-15)

    def where(s):
        with np.errstate(over="ignore"):
            return s.y[0], np.exp(2.0 * s.t / b1)

    while True:
        _advance(stepper, where)
        t, w = stepper.y.tolist()
        tail = 2.0 * math.exp(-stepper.t) / (b1 * w)
        dev = w * w * (1.0 + t) ** p.alpha / w2_star - 1.0
        if t > t_budget or (tail * (abs(dev) + p.alpha * tail / (1.0 + t))
                            <= _TAIL_TOL * (t + tail)):
            break
    if t + tail > t_budget:
        return KatoResult(blew_up=False, t_blowup=None)
    return KatoResult(blew_up=True, t_blowup=t + tail)


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
