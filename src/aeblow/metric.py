"""Radial metric profiles K(r) and derived quantities.

The metric is g = K(r)^2 dr^2 + r^2 dw^2 with K a long-range perturbation of 1.
Everything downstream (eigenfunctions, wave solver, support bounds) consumes a
MetricProfile through the evaluators defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _config
from .errors import ConfigurationError, DomainError

__all__ = [
    "MetricProfile",
    "ValidationReport",
    "flat_profile",
    "power_law_profile",
    "tabulated_profile",
    "eval_k",
    "k_integral",
    "k_integral_grid",
    "g_potential",
    "validate_long_range",
    "profile_from_config",
]

# nodes/weights of 5-point Gauss-Legendre on [-1, 1], the one rule for the
# integral of K (exact through degree 9 per cell)
_GL_X = np.array([
    -0.9061798459386640, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.9061798459386640,
])
_GL_W = np.array([
    0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
    0.4786286704993665, 0.2369268850561891,
])
# widest cell k_integral cuts [0, r] into
_KINT_CELL = 0.05


@dataclass(frozen=True)
class MetricProfile:
    """Immutable spherically symmetric metric profile.

    kind is one of "flat", "power-law", "tabulated".  For the power-law family
    K(r) = 1 + c <r>^(-rho) with c in [-1/2, 1/2] and rho > 0.  A tabulated
    profile is evaluated through a clamped cubic spline of its samples
    table_r, table_k.  name, delta0 (K lies in (delta0, 1/delta0)) and the
    spline are worked out here from the other fields, never passed in.
    """

    name: str = field(init=False)
    n: int
    kind: str
    delta0: float = field(init=False)
    rho: float = 1.0
    c: float = 0.0
    table_r: np.ndarray | None = field(default=None, repr=False)
    table_k: np.ndarray | None = field(default=None, repr=False)
    _spline: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _config.KIND_KEYS["metric"]:
            raise ConfigurationError(f"unknown metric kind {self.kind!r}")
        # derived fields go straight into the instance dict: it is frozen
        if self.kind == "flat":
            vars(self).update(name=f"flat-n{self.n}", delta0=0.99)
        elif self.kind == "power-law":
            c, rho = self.c, self.rho
            if not -0.5 <= c <= 0.5:
                raise DomainError(f"c must lie in [-1/2, 1/2], got {c}")
            if rho <= 0:
                raise DomainError(f"rho must be positive, got {rho}")
            # K ranges over (1, 1+c] for c > 0 and [1+c, 1) for c < 0; delta0
            # must bound K on both sides, so the tight choice is sign-dependent.
            vars(self).update(name=f"power-n{self.n}-c{c}-rho{rho}",
                              delta0=(1.0 / (1.0 + c) if c >= 0.0 else 1.0 + c) * 0.99)
        else:
            r = np.asarray(self.table_r, dtype=float)
            k = np.asarray(self.table_k, dtype=float)
            if r.ndim != 1 or r.shape != k.shape or len(r) < 4:
                raise ConfigurationError(
                    "table must be two equal 1-d arrays, length >= 4")
            if np.any(np.diff(r) <= 0) or r[0] != 0.0:
                raise ConfigurationError("table radii must start at 0 and increase")
            if np.any(k <= 0):
                raise ConfigurationError("tabulated K must be positive")
            from scipy.interpolate import CubicSpline
            delta0 = max(min(float(k.min()), 1.0 / float(k.max())), 1e-6) * 0.99
            vars(self).update(name="tabulated", delta0=delta0, table_r=r, table_k=k,
                              _spline=CubicSpline(r, k, bc_type="clamped"))
        if self.n < 2:
            raise DomainError(f"spatial dimension must be >= 2, got {self.n}")


def flat_profile(n: int) -> MetricProfile:
    """Euclidean metric, K identically 1."""
    return MetricProfile(n=n, kind="flat")


def power_law_profile(n: int, c: float, rho: float) -> MetricProfile:
    """K(r) = 1 + c <r>^(-rho) with c in [-1/2, 1/2], rho > 0."""
    return MetricProfile(n=n, kind="power-law", rho=rho, c=c)


def tabulated_profile(n: int, r: Sequence[float], k: Sequence[float],
                      rho: float = 1.0) -> MetricProfile:
    """Profile built from samples [[r, K]]; clamped cubic spline in between."""
    return MetricProfile(n=n, kind="tabulated", rho=rho, table_r=r, table_k=k)


def eval_k(profile: MetricProfile, r):
    """Return (K, K', K'') at radius r >= 0 (scalar or array).

    A float radius (Python float or np.float64, what an ODE solver hands a
    right-hand side) on a flat or power-law profile is computed in float
    arithmetic, skipping the array round trip.  Both paths run the same
    formulas, and a float returns the same bits as a 0-d array holding it.
    Ints, arrays and tabulated profiles go through arrays.  Scalars come back
    as Python floats.
    """
    fast = isinstance(r, float) and profile.kind != "tabulated"
    r = float(r) if fast else np.asarray(r, dtype=float)
    if (r < 0 if fast else np.any(r < 0)):
        raise DomainError("radius must be nonnegative")
    if profile.kind == "flat":
        one, zero = (1.0, 0.0) if fast else (np.ones_like(r), np.zeros_like(r))
        out = (one, zero, zero)
    elif profile.kind == "power-law":
        c, rho = profile.c, profile.rho
        s = 1.0 + r * r
        k = 1.0 + c * s ** (-rho / 2.0)
        k1 = -c * rho * r * s ** (-rho / 2.0 - 1.0)
        k2 = -c * rho * s ** (-rho / 2.0 - 2.0) * (s - (rho + 2.0) * r * r)
        out = (k, k1, k2)
    else:
        sp = profile._spline
        rmax = profile.table_r[-1]
        rc = np.minimum(r, rmax)  # constant extrapolation beyond the table
        out = (np.asarray(sp(rc)), np.asarray(sp(rc, 1)), np.asarray(sp(rc, 2)))
    if fast or r.ndim == 0:
        k, k1, k2 = out
        return float(k), float(k1), float(k2)
    return out


def k_integral(profile: MetricProfile, r: float) -> float:
    """Integral of K from 0 to r: the last node of k_integral_grid on [0, r]
    cut into cells no wider than _KINT_CELL; a table's knots are cell ends,
    so every cell sees one cubic piece."""
    if r < 0:
        raise DomainError("radius must be nonnegative")
    grid = np.linspace(0.0, r, math.ceil(r / _KINT_CELL) + 1)
    if profile.kind == "tabulated":
        grid = np.union1d(grid, profile.table_r[profile.table_r < r])
    return float(k_integral_grid(profile, grid)[-1])


def k_integral_grid(profile: MetricProfile, r_grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of K at every node of an increasing grid from 0.

    Per-interval 5-point Gauss-Legendre, so the table is cheap to build on
    solver grids yet far below 1e-10 relative for smooth K.
    """
    r = np.asarray(r_grid, dtype=float)
    if r[0] != 0 or np.any(np.diff(r) <= 0):
        raise DomainError("grid must start at 0 and increase")
    lo, hi = r[:-1], r[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    kv = eval_k(profile, pts.ravel())[0].reshape(pts.shape)
    return np.concatenate(([0.0], np.cumsum(half * (kv @ _GL_W))))


def g_potential(profile: MetricProfile, r):
    """Effective potential G(r) of the y-form radial equation.

    G = -(n-1)(n-3)/(4 r^2) + (n-1)K'/(2 r K) + K''/(2K) - (3/4)(K'/K)^2.
    Singular at r = 0 unless every term cancels.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("g_potential requires r > 0 (1/r^2 singularity)")
    n = profile.n
    k, k1, k2 = eval_k(profile, r)
    g = (-(n - 1) * (n - 3) / (4.0 * r * r)
         + (n - 1) * k1 / (2.0 * r * k)
         + k2 / (2.0 * k)
         - 0.75 * (k1 / k) ** 2)
    if r.ndim == 0:
        return float(g)
    return g


@dataclass(frozen=True)
class ValidationReport:
    """Measured long-range norms and the pass/fail verdict."""

    profile_name: str
    passed: bool
    k_in_bounds: bool
    decay_ok: tuple[bool, bool, bool]
    kp_l1: float
    kp_l2: float
    kpp_l1: float
    sup_r_kp: float
    sup_r2_kpp: float
    sup_r2_g: float
    r2: float
    lambda0: float
    failures: tuple[str, ...]


def validate_long_range(profile: MetricProfile, grid: np.ndarray) -> ValidationReport:
    """Measure the long-range conditions on K over a radial grid.

    Also reports R2, the smallest measured radius beyond which
    n - 1 - r K'/K >= 0 holds at every grid node, and lambda0 = min(1/R2, 1).
    """
    r = np.asarray(grid, dtype=float)
    rho = profile.rho if profile.kind != "flat" else np.inf
    if profile.kind != "flat" and r[-1] < 10.0 / rho:
        raise ConfigurationError(
            f"grid must reach at least 10/rho = {10.0 / rho:g}, got {r[-1]:g}")
    k, k1, k2 = eval_k(profile, r)
    failures: list[str] = []

    k_in_bounds = bool(np.all((k > profile.delta0) & (k < 1.0 / profile.delta0)))
    if not k_in_bounds:
        failures.append("K outside (delta0, 1/delta0)")

    # decay: <r>^(m+rho) |d^m (K-1)| must not grow along the grid; compare the
    # outer-half sup against the inner-half sup
    br = np.sqrt(1.0 + r * r)
    rho_eff = profile.rho
    decay_flags = []
    for m, d in enumerate((np.abs(k - 1.0), np.abs(k1), np.abs(k2))):
        q = br ** (m + rho_eff) * d
        half = len(r) // 2
        inner = float(np.max(q[:half])) if half else 0.0
        outer = float(np.max(q[half:]))
        ok = profile.kind == "flat" or outer <= 1.5 * inner + 1e-12
        decay_flags.append(bool(ok))
        if not ok:
            failures.append(f"<r>^({m}+rho)|K^({m})-1| grows along the grid")

    kp_l1 = float(np.trapezoid(np.abs(k1), r))
    kp_l2 = float(np.sqrt(np.trapezoid(k1 * k1, r)))
    kpp_l1 = float(np.trapezoid(np.abs(k2), r))
    sup_r_kp = float(np.max(np.abs(r * k1)))
    sup_r2_kpp = float(np.max(np.abs(r * r * k2)))
    rpos = r[r > 0]
    sup_r2_g = float(np.max(np.abs(rpos ** 2 * g_potential(profile, rpos)))) if len(rpos) else 0.0

    # smallest radius beyond which n-1 - r K'/K >= 0 at every node
    cond = (profile.n - 1) - r * k1 / k >= -1e-14
    if cond[-1] and np.all(cond):
        r2 = 0.0
    elif cond[-1]:
        last_bad = int(np.max(np.nonzero(~cond)[0]))
        r2 = float(r[last_bad + 1]) if last_bad + 1 < len(r) else float(r[-1])
    else:
        r2 = float("inf")
        failures.append("n-1 - r K'/K negative at the grid end")

    lambda0 = min(1.0, 1.0 / r2) if r2 > 0 else 1.0
    return ValidationReport(
        profile_name=profile.name,
        passed=not failures,
        k_in_bounds=k_in_bounds,
        decay_ok=tuple(decay_flags),
        kp_l1=kp_l1, kp_l2=kp_l2, kpp_l1=kpp_l1,
        sup_r_kp=sup_r_kp, sup_r2_kpp=sup_r2_kpp, sup_r2_g=sup_r2_g,
        r2=r2, lambda0=lambda0,
        failures=tuple(failures),
    )


# -- config parsing ------------------------------------------------------------

def profile_from_config(cfg: dict) -> MetricProfile:
    kind = _config.kind(cfg, "metric")
    n = _config.number(cfg, "metric", "n", integer=True)
    if kind == "flat":
        return flat_profile(n)
    if kind == "power-law":
        return power_law_profile(n, _config.number(cfg, "metric", "c"),
                                 _config.number(cfg, "metric", "rho"))
    r, k = _config.rows(cfg, "metric", "table")
    return tabulated_profile(n, r, k, rho=_config.number(cfg, "metric", "rho", 1.0))
