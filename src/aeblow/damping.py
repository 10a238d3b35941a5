"""Integrable time damping b(t) and the change of variable that removes it.

With m(t) = exp(int_0^t b), s = h(t) = int_0^t 1/m, and eta the inverse of h,
the damped operator d_t^2 + b d_t - Lap becomes d_s^2 - mt(s)^2 Lap with
mt(s) = m(eta(s)) pinned inside [delta1, 1/delta1], delta1 = exp(-||b||_L1).
h, eta and (for kinds without a closed form) m come from two dense DOP853
solutions (aeblow._ode.Dense), each stepped on demand only as far as the
queries reach; a value read does not depend on which times were read before.

Each profile resolves its kind once, at construction, into the maps b, m and
mt, which take a float or an array; the caches' right-hand sides call them
directly.  A float time (Python float or np.float64, what an ODE solver hands
a right-hand side) takes a float path: the same formulas in float arithmetic,
with the dense caches' DOP853 pieces evaluated in floats.  It returns the
same bits as a 0-d array holding the time.  Ints, lists and arrays go through
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy._core.multiarray import interp as _interp   # np.interp's own

from . import _config
from .errors import ConfigurationError, DomainError

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
    (b = mu cos(t) (1+t)^-beta), both beta > 1, and "tabulated" (b interpolated
    in table_t, table_b, zero beyond).  l1_norm, a certified bound on ||b||_L1
    (analytic tail for the power kinds, declared tail tail_l1 >= 0 for
    tables), the maps b, m, mt and their dense caches are worked out here,
    never passed in.
    """

    kind: str
    mu: float = 0.0
    beta: float = 2.0
    l1_norm: float = field(init=False)
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_b: np.ndarray | None = field(default=None, repr=False)
    tail_l1: float = 0.0
    _cache: object = field(init=False, repr=False, compare=False)
    _eta_cache: object = field(init=False, repr=False, compare=False)
    _b: Callable = field(init=False, repr=False, compare=False)
    _m: Callable = field(init=False, repr=False, compare=False)
    _mt: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _config.KIND_KEYS["damping"]:
            raise ConfigurationError(f"unknown damping kind {self.kind!r}")
        if not 0 <= self.tail_l1 < math.inf:
            raise ConfigurationError("damping tail_l1 must be finite and >= 0")
        # b and m for this kind, on a float or an array; m of the kinds with
        # no closed form reads the dense cache made below
        mu, beta = self.mu, self.beta
        if self.kind == "zero":
            l1, b, m = 0.0, np.zeros_like, np.ones_like
        elif self.kind == "tabulated":
            tt = np.asarray(self.table_t, dtype=float)
            tb = np.asarray(self.table_b, dtype=float)
            if tt.ndim != 1 or tt.shape != tb.shape or len(tt) < 2 or tt[0] != 0.0:
                raise ConfigurationError("damping table must start at t=0, length >= 2")
            if np.any(np.diff(tt) <= 0):
                raise ConfigurationError("damping table times must increase")
            vars(self).update(table_t=tt, table_b=tb, tail_l1=float(self.tail_l1))
            l1 = float(np.trapezoid(np.abs(tb), tt)) + self.tail_l1
            b = lambda t: _interp(t, tt, tb, None, 0.0)
            m = lambda t: np.exp(cache(t))
        elif beta <= 1:
            what = "scattering" if self.kind == "scattering-power" else "oscillatory"
            raise DomainError(f"{what} damping needs beta > 1")
        elif self.kind == "signed-oscillatory":
            from scipy.integrate import quad
            # |b| <= |mu|(1+t)^-beta bounds the tail; integrate |cos| piecewise
            # over its half-periods so quad never fights the oscillation
            edges = np.arange(0.0, 200.0 + math.pi, math.pi / 2.0)
            head = sum(quad(lambda t: abs(mu * math.cos(t)) * (1.0 + t) ** (-beta),
                            lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
                       for lo, hi in zip(edges[:-1], edges[1:]))
            l1 = head + abs(mu) * (1.0 + 200.0) ** (1.0 - beta) / (beta - 1.0)
            b = lambda t: mu * np.cos(t) * (1.0 + t) ** (-beta)
            m = lambda t: np.exp(cache(t))
        else:
            l1 = abs(mu) / (beta - 1.0)
            b = lambda t: mu * (1.0 + t) ** (-beta)
            m = lambda t: np.exp(mu * (1.0 - (1.0 + t) ** (1.0 - beta)) / (beta - 1.0))
        # cache solves c' = b (c = int b), h' = exp(-c); eta_cache eta' = m(eta).
        # Their right-hand sides hand b and m Python floats, as the public
        # maps do.  No map closes over the profile, so no reference cycle
        # keeps a dropped profile and its dense solutions alive.
        cache = eta_cache = None
        mt = m
        if self.kind != "zero":
            from ._ode import Dense
            cache = Dense(lambda t, y: [b(float(t)), np.exp(-y[0])],
                          [0.0, 0.0], _ODE_RTOL, _ODE_ATOL,
                          "damping cache integration")
            eta_cache = Dense(lambda s, y: [m(float(y[0]))], [0.0],
                              _ODE_RTOL, _ODE_ATOL, "eta integration")
            mt = lambda s: m(eta_cache(s))
        vars(self).update(l1_norm=l1, _cache=cache, _eta_cache=eta_cache,
                          _b=b, _m=m, _mt=mt)

    @property
    def delta1(self) -> float:
        return float(np.exp(-self.l1_norm))

    def b(self, t):
        """Evaluate b(t) for t >= 0."""
        return _result(self._b(_times(t)))


def zero_damping() -> DampingProfile:
    return DampingProfile(kind="zero")


def scattering_power_damping(mu: float, beta: float) -> DampingProfile:
    """b(t) = mu (1+t)^-beta with beta > 1; ||b||_L1 = |mu|/(beta-1)."""
    return DampingProfile(kind="scattering-power", mu=mu, beta=beta)


def signed_oscillatory_damping(mu: float, beta: float) -> DampingProfile:
    """b(t) = mu cos(t) (1+t)^-beta, beta > 1 -- sign-changing, integrable."""
    return DampingProfile(kind="signed-oscillatory", mu=mu, beta=beta)


def tabulated_damping(t, b, tail_l1: float = 0.0) -> DampingProfile:
    """Piecewise-linear b from samples; b = 0 beyond the table.

    tail_l1 is a user-declared bound on the L1 mass beyond the table end.
    """
    return DampingProfile(kind="tabulated", table_t=t, table_b=b, tail_l1=tail_l1)


# -- change-of-variable maps --------------------------------------------------

def m_of_t(profile: DampingProfile, t):
    """m(t) = exp(int_0^t b), the damping integrating factor."""
    return _result(profile._m(_times(t)))


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
    return _result(profile._mt(_times(s)))


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
