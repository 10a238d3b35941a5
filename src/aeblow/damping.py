"""Integrable time damping b(t) and the change of variable that removes it.

With m(t) = exp(int_0^t b), s = h(t) = int_0^t 1/m, and eta the inverse of h,
the damped operator d_t^2 + b d_t - Lap becomes d_s^2 - mt(s)^2 Lap with
mt(s) = m(eta(s)) pinned inside [delta1, 1/delta1], delta1 = exp(-||b||_L1).
h, eta and (for kinds without a closed form) m come from two dense DOP853
solutions, each stepped on demand only as far as the queries reach; a value
read does not depend on which times were read before (_DenseODE).

A float time (Python float or np.float64, what solve_ivp hands a right-hand
side) takes a float path through b, m, h, eta and mt: the same formulas in
float arithmetic, with the dense caches' DOP853 interpolant evaluated in
floats in scipy's own operation order (_DenseODE).  It returns the same bits
as a 0-d array holding the time.  Ints, lists and arrays go through arrays.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _config
from .errors import ConfigurationError, DomainError, IntegrationError

__all__ = [
    "DampingProfile",
    "zero_damping",
    "scattering_power_damping",
    "signed_oscillatory_damping",
    "tabulated_damping",
    "m_of_t",
    "h_of_t",
    "eta_of_s",
    "m_tilde",
    "damping_from_config",
]

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14


class _DenseODE:
    """Dense DOP853 solution of y' = f(t, y), y(0) = y0, stepped on demand.

    A DOP853 stepper with no end time advances until it passes the latest
    query and keeps each step's dense output; its steps are the same whatever
    the queries.  An array query goes through scipy's OdeSolution over the
    steps so far.  A scalar query evaluates scipy's interpolant in floats, in
    scipy's own order: the segment rule of OdeSolution._call_single
    (bisect_left on the breakpoints, lower segment at a breakpoint) and the
    Horner-like loop of Dop853DenseOutput._call_impl.  It reads the fields F,
    t_old, h and y_old of the segment in place;
    test_float_path_is_bit_identical guards them.
    """

    def __init__(self, f: Callable, y0: list[float], what: str):
        self._f = f
        self._y0 = y0
        self._what = what
        self.tmax = -math.inf           # no step taken yet
        self._stepper = None
        self._ts = [0.0]
        self._pieces = []

    def _ensure(self, t: float):
        if self._stepper is None:
            from scipy.integrate import DOP853
            self._stepper = DOP853(self._f, 0.0, self._y0, math.inf,
                                   rtol=_ODE_RTOL, atol=_ODE_ATOL)
            # OdeSolver.fun closes over the solver: clear it with this cache
            weakref.finalize(self, self._stepper.__dict__.clear)
        while self.tmax < t:
            message = self._stepper.step()
            if self._stepper.status != "running":
                raise IntegrationError(f"{self._what} integration failed: {message}")
            self.tmax = float(self._stepper.t)
            self._ts.append(self.tmax)
            self._pieces.append(self._stepper.dense_output())

    def __call__(self, t, row: int = 0):
        """Component `row` of y at t (scalar or array)."""
        if not isinstance(t, float) and np.ndim(t):
            self._ensure(np.max(t))
            from scipy.integrate import OdeSolution
            return OdeSolution(self._ts, self._pieces)(t)[row]
        t = float(t)
        self._ensure(t)
        pieces = self._pieces
        seg = min(max(bisect_left(self._ts, t) - 1, 0), len(pieces) - 1)
        piece = pieces[seg]
        F = piece.F
        x = (t - float(piece.t_old)) / float(piece.h)
        u = 1 - x
        y = 0.0
        for i in range(len(F)):       # scipy: enumerate(reversed(F))
            y = (y + F.item(-1 - i, row)) * (u if i % 2 else x)
        return y + piece.y_old.item(row)


def _times(t):
    """t as a float when it is one (np.float64 included), else as an array;
    0 <= t < inf is checked, so NaN and inf are rejected too."""
    if isinstance(t, float):
        if not 0 <= t < math.inf:
            raise DomainError("time must be finite and nonnegative")
        return float(t)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):
        raise DomainError("time must be finite and nonnegative")
    return t


def _result(out):
    """A float or 0-d result as a Python float, an array as it is."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


@dataclass(frozen=True)
class DampingProfile:
    """Immutable integrable damping coefficient.

    kinds: "zero", "scattering-power" (b = mu (1+t)^-beta), "signed-oscillatory"
    (b = mu cos(t) (1+t)^-beta), "tabulated".  l1_norm is a certified bound on
    ||b||_L1 (analytic tail for the power kinds, declared tail tail_l1 for
    tables).
    """

    kind: str
    mu: float = 0.0
    beta: float = 2.0
    l1_norm: float = 0.0
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_b: np.ndarray | None = field(default=None, repr=False)
    tail_l1: float = 0.0
    _cache: object | None = field(default=None, repr=False, compare=False)
    _eta_cache: object | None = field(default=None, repr=False, compare=False)

    @property
    def delta1(self) -> float:
        return float(np.exp(-self.l1_norm))

    def b(self, t):
        """Evaluate b(t) for t >= 0."""
        t = _times(t)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "scattering-power":
            out = self.mu * (1.0 + t) ** (-self.beta)
        elif self.kind == "signed-oscillatory":
            out = self.mu * np.cos(t) * (1.0 + t) ** (-self.beta)
        else:
            out = np.interp(t, self.table_t, self.table_b, right=0.0)
        return _result(out)


def zero_damping() -> DampingProfile:
    return DampingProfile(kind="zero", l1_norm=0.0)


def _finish(profile: DampingProfile) -> DampingProfile:
    # caches are mutable helpers living on a frozen dataclass; they hold
    # derived state only, so sharing the profile across workers stays safe
    # _cache solves c' = b (c = int b) and h' = exp(-c); _eta_cache solves
    # eta'(s) = m(eta(s)), eta(0) = 0.  The right-hand sides reach the
    # profile through a weak proxy, so no reference cycle keeps a dropped
    # profile and its dense solutions alive until the cyclic collector runs.
    ref = weakref.proxy(profile)
    object.__setattr__(profile, "_cache", _DenseODE(
        lambda t, y: [ref.b(t), np.exp(-y[0])], [0.0, 0.0], "damping cache"))
    object.__setattr__(profile, "_eta_cache", _DenseODE(
        lambda s, y: [m_of_t(ref, y[0])], [0.0], "eta"))
    return profile


def scattering_power_damping(mu: float, beta: float) -> DampingProfile:
    """b(t) = mu (1+t)^-beta with beta > 1; ||b||_L1 = |mu|/(beta-1)."""
    if beta <= 1:
        raise DomainError("scattering damping needs beta > 1")
    return _finish(DampingProfile(kind="scattering-power", mu=mu, beta=beta,
                                  l1_norm=abs(mu) / (beta - 1.0)))


def signed_oscillatory_damping(mu: float, beta: float) -> DampingProfile:
    """b(t) = mu cos(t) (1+t)^-beta, beta > 1 -- sign-changing, integrable."""
    if beta <= 1:
        raise DomainError("oscillatory damping needs beta > 1")
    from scipy.integrate import quad
    # |b| <= |mu|(1+t)^-beta, so the power-kind tail bound certifies L1
    # integrate |cos| piecewise over its half-periods so quad never fights
    # the oscillation
    edges = np.arange(0.0, 200.0 + math.pi, math.pi / 2.0)
    head = sum(quad(lambda t: abs(mu * math.cos(t)) * (1.0 + t) ** (-beta),
                    a, b, epsabs=1e-13, epsrel=1e-11)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    tail = abs(mu) * (1.0 + 200.0) ** (1.0 - beta) / (beta - 1.0)
    return _finish(DampingProfile(kind="signed-oscillatory", mu=mu, beta=beta,
                                  l1_norm=head + tail))


def tabulated_damping(t, b, tail_l1: float = 0.0) -> DampingProfile:
    """Piecewise-linear b from samples; b = 0 beyond the table.

    tail_l1 is a user-declared bound on the L1 mass beyond the table end.
    """
    t = np.asarray(t, dtype=float)
    b = np.asarray(b, dtype=float)
    if t.ndim != 1 or t.shape != b.shape or len(t) < 2 or t[0] != 0.0:
        raise ConfigurationError("damping table must start at t=0, length >= 2")
    if np.any(np.diff(t) <= 0):
        raise ConfigurationError("damping table times must increase")
    l1 = float(np.trapezoid(np.abs(b), t)) + float(tail_l1)
    prof = DampingProfile(kind="tabulated", l1_norm=l1, table_t=t, table_b=b,
                          tail_l1=float(tail_l1))
    return _finish(prof)


# -- change-of-variable maps --------------------------------------------------

def m_of_t(profile: DampingProfile, t):
    """m(t) = exp(int_0^t b), the damping integrating factor."""
    t = _times(t)
    if profile.kind == "zero":
        out = np.ones_like(t)
    elif profile.kind == "scattering-power":
        cumb = profile.mu * (1.0 - (1.0 + t) ** (1.0 - profile.beta)) / (profile.beta - 1.0)
        out = np.exp(cumb)
    else:
        out = np.exp(profile._cache(t))
    return _result(out)


def h_of_t(profile: DampingProfile, t):
    """h(t) = int_0^t 1/m -- the strictly increasing new time variable."""
    t = _times(t)
    out = np.copy(t) if profile.kind == "zero" else profile._cache(t, row=1)
    return _result(out)


def eta_of_s(profile: DampingProfile, s):
    """eta(s), inverse of h: eta(h(t)) = t, with eta'(s) = m(eta(s))."""
    s = _times(s)
    out = np.copy(s) if profile.kind == "zero" else profile._eta_cache(s)
    return _result(out)


def m_tilde(profile: DampingProfile, s):
    """mt(s) = m(eta(s)), pinned inside [delta1, 1/delta1]."""
    return m_of_t(profile, eta_of_s(profile, s))


# -- config parsing --------------------------------------------------------------

def damping_from_config(cfg: dict) -> DampingProfile:
    kind = _config.kind(cfg, "damping")
    if kind == "zero":
        return zero_damping()
    if kind == "tabulated":
        t, b = _config.rows(cfg, "damping", "table")
        return tabulated_damping(
            t, b, tail_l1=_config.number(cfg, "damping", "tail_l1", 0.0))
    maker = (scattering_power_damping if kind == "scattering-power"
             else signed_oscillatory_damping)
    return maker(_config.number(cfg, "damping", "mu"),
                 _config.number(cfg, "damping", "beta"))
