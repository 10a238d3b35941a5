"""Positive entire solutions of Lap_g Phi = lam^2 Phi for radial metrics.

The radial equation Phi'' + ((n-1)/r - K'/K) Phi' = lam^2 K^2 Phi is shot from
r = 0 by its even limit and integrated in log form (log Phi, Phi'/Phi), which
keeps the exponentially growing solution in range over arbitrarily long radii.
A family's lambdas are one system up to the end of its grid; rows whose 1/lam
lies beyond continue alone to their normalization.  Linearity makes the
rescale to Phi(1/lam) = 1 exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, PositivityError
from .metric import (MetricProfile, eval_k, k_integral, k_integral_grid,
                     validate_long_range)

__all__ = [
    "EntireSolution",
    "EigenFamily",
    "EnvelopeReport",
    "MuReport",
    "lambda_max",
    "build_entire_solution",
    "build_family",
    "verify_envelopes",
    "verify_derivative_bounds",
    "mu_diagnostic",
]

_RTOL = 1e-11
_ATOL = 1e-15


@dataclass(frozen=True)
class EntireSolution:
    """One eigenfunction Phi_lam on a uniform radial grid, Phi(1/lam) = 1."""

    lam: float
    profile: MetricProfile
    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    log_phi: np.ndarray
    k_int: np.ndarray          # cumulative int_0^r K on the same grid

    @property
    def r_ball(self) -> float:
        return 1.0 / self.lam


@dataclass(frozen=True)
class EigenFamily:
    """Eigenfunctions for a lambda grid sharing one radial grid.

    phi is (n_lambda, n_r), row k belongs to lams[k]; contiguous so that the
    lambda quadratures downstream reduce to matrix-vector products.
    """

    profile: MetricProfile
    lams: np.ndarray
    r: np.ndarray
    phi: np.ndarray


def lambda_max(profile: MetricProfile) -> float:
    """lam0 = min(1/R2, 1) with R2 measured by the long-range validator on
    [0, max(200, 10/rho + 1)]."""
    rho = profile.rho if profile.kind != "flat" else 1.0
    grid = np.linspace(0.0, max(200.0, 10.0 / rho + 1.0), 4001)
    return validate_long_range(profile, grid).lambda0


def _shoot(profile: MetricProfile, lams: np.ndarray, r_max: float, dr: float):
    """Shoot every lambda as one system and sample the grid [0, r_max].

    Returns (grid, Phi, log Phi, Phi'/Phi), one row per lambda, normalized to
    Phi(1/lam) = 1.  The joint system runs to r_max + dr; rows whose 1/lam
    lies beyond that continue alone, only to reach their normalization.
    """
    from . import _ode
    if np.any(lams <= 0):
        raise DomainError("lambda must be positive")
    lam0 = lambda_max(profile)
    if lams.max() > lam0 * (1.0 + 1e-12):
        raise DomainError(f"lambda={lams.max():g} exceeds lambda0={lam0:g}")
    n = profile.n

    def solve(lam, r0, z0, t_eval):
        """(log Phi, Phi'/Phi) rows of every lam, sampled at t_eval."""
        lam2, half = lam * lam, len(lam)
        tmp = np.empty(half)

        def rhs(r, z):
            # a fresh array each call, since the stepper keeps f between steps
            k, k1, _ = eval_k(profile, r)
            w = z[half:]
            out = np.empty(2 * half)
            out[:half] = w
            dw = out[half:]
            if r == 0.0:     # even limit: Phi'/Phi ~ lam^2 K(0)^2 r / n
                np.multiply(lam2, k * k / n, out=dw)
                return out
            np.multiply(lam2, k * k, out=dw)
            np.subtract(dw, np.multiply((n - 1) / r - k1 / k, w, out=tmp),
                        out=dw)
            np.subtract(dw, np.multiply(w, w, out=tmp), out=dw)
            return out

        res = _ode.solve(rhs, (r0, t_eval[-1]), z0, _RTOL, _ATOL,
                         t_eval=t_eval)
        if not res.success:
            raise IntegrationError(f"eigenfunction solve failed: {res.message}")
        return res.y

    m = len(lams)
    grid = np.arange(0.0, r_max + dr / 2.0, dr)
    r_end = r_max + dr
    balls = 1.0 / lams
    far = balls > r_end
    ts = np.union1d(grid, np.append(balls[~far], r_end))
    z = solve(lams, 0.0, np.zeros(2 * m), ts)    # log Phi(0) = 0 before the shift
    l_ball = z[np.arange(m), np.searchsorted(ts, np.minimum(balls, r_end))]
    if np.any(far):
        tf = np.unique(balls[far])
        zf = solve(lams[far], r_end, z[np.tile(far, 2), -1], tf)
        l_ball[far] = zf[np.arange(far.sum()), np.searchsorted(tf, balls[far])]
    at = np.searchsorted(ts, grid)
    log_phi = z[:m, at] - l_ball[:, None]
    w = z[m:, at]
    phi = np.exp(log_phi)
    if np.any(phi <= 0) or np.any(w < -1e-12):
        raise PositivityError("Phi must be positive and nondecreasing")
    return grid, phi, log_phi, w


def _rows_at(grid: np.ndarray, phi: np.ndarray, r) -> np.ndarray:
    """phi (one row, or rows over grid) linearly interpolated at the radii r,
    shape phi.shape[:-1] + r.shape; exact at grid nodes."""
    r = np.asarray(r, dtype=float)
    if np.any(r < grid[0] - 1e-12) or np.any(r > grid[-1] + 1e-12):
        raise DomainError("radius outside the eigenfunction grid")
    i = np.clip(np.searchsorted(grid, r), 1, len(grid) - 1)
    s = (r - grid[i - 1]) / (grid[i] - grid[i - 1])
    return (1.0 - s) * phi[..., i - 1] + s * phi[..., i]


def build_entire_solution(profile: MetricProfile, lam: float, r_max: float,
                          dr: float = 0.05) -> EntireSolution:
    """The family of one, with the derivatives and int_0^r K that only the
    diagnostics read."""
    r, (phi,), (log_phi,), (w,) = _shoot(profile, np.array([lam], dtype=float),
                                         r_max, dr)
    n = profile.n
    dphi = w * phi
    k, k1, _ = eval_k(profile, r)
    d2phi = lam * lam * k * k * phi
    d2phi[1:] -= ((n - 1) / r[1:] - k1[1:] / k[1:]) * dphi[1:]
    d2phi[0] = lam * lam * k[0] * k[0] * phi[0] / n    # even limit at r = 0
    return EntireSolution(
        lam=lam, profile=profile, r=r,
        phi=phi, dphi=dphi, d2phi=d2phi, log_phi=log_phi,
        k_int=k_integral_grid(profile, r))


def build_family(profile: MetricProfile, lams: np.ndarray, r_max: float,
                 dr: float = 0.05) -> EigenFamily:
    """Eigenfunctions for every lambda in the grid, shot as one system."""
    lams = np.sort(np.asarray(lams, dtype=float))
    r, phi, _, _ = _shoot(profile, lams, r_max, dr)
    return EigenFamily(profile=profile, lams=lams, r=r, phi=phi)


# -- diagnostics ---------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeReport:
    c_low: float
    c_high: float


def verify_envelopes(sol: EntireSolution) -> EnvelopeReport:
    """Measure Phi against E(r) = <lam r>^(-(n-1)/2) exp(lam int_0^r K)."""
    lam = sol.lam
    log_env = (-(sol.profile.n - 1) / 2.0 * 0.5 * np.log1p((lam * sol.r) ** 2)
               + lam * sol.k_int)
    ratio = np.exp(sol.log_phi - log_env)
    return EnvelopeReport(c_low=float(ratio.min()), c_high=float(ratio.max()))


def verify_derivative_bounds(sol: EntireSolution) -> float:
    """Measured D0 = sup over [0, 1/lam] of the two derivative ratios."""
    lam = sol.lam
    mask = sol.r <= 1.0 / lam + 1e-12
    r = sol.r[mask]
    phi, dphi, d2phi = sol.phi[mask], sol.dphi[mask], sol.d2phi[mask]
    lam2 = lam * lam
    first = np.zeros_like(r)
    pos = r > 0
    first[pos] = dphi[pos] / (lam2 * r[pos] * phi[pos])
    if not pos[0]:
        first[0] = eval_k(sol.profile, 0.0)[0] ** 2 / sol.profile.n  # even limit
    second = np.abs(d2phi) / (lam2 * phi)
    return float(max(first.max(), second.max()))


@dataclass(frozen=True)
class MuReport:
    sup_int_mu: float
    sup_mu_over_lam: float
    bound_int: float       # 8 delta0^-2 + 6 delta0^-4
    bound_mu: float        # 3 / delta0
    passed: bool


def mu_diagnostic(sol: EntireSolution) -> MuReport:
    """Riccati residual mu = y'/y - lam K of y = r^((n-1)/2) K^(-1/2) Phi.

    int mu is evaluated exactly as log y(r) - log y(1/lam) - lam int_1lam^r K,
    so no quadrature of mu itself enters.
    """
    lam = sol.lam
    n = sol.profile.n
    mask = sol.r >= 1.0 / lam
    if not np.any(mask):
        raise DomainError("grid does not reach the exterior region r >= 1/lambda")
    r = sol.r[mask]
    k, k1, _ = eval_k(sol.profile, r)
    if np.any(sol.phi[mask] <= 0):
        raise PositivityError("y must stay positive on the exterior region")
    log_y = (n - 1) / 2.0 * np.log(r) - 0.5 * np.log(k) + sol.log_phi[mask]
    w = sol.dphi[mask] / sol.phi[mask]
    mu = (n - 1) / (2.0 * r) - k1 / (2.0 * k) + w - lam * k

    r_ball = 1.0 / lam
    kb = eval_k(sol.profile, r_ball)[0]
    log_y_ball = (n - 1) / 2.0 * np.log(r_ball) - 0.5 * np.log(kb)  # log Phi = 0 there
    kint_ball = k_integral(sol.profile, r_ball)
    int_mu = log_y - log_y_ball - lam * (sol.k_int[mask] - kint_ball)

    d0 = sol.profile.delta0
    bound_int = 8.0 / d0 ** 2 + 6.0 / d0 ** 4
    bound_mu = 3.0 / d0
    sup_int = float(np.max(np.abs(int_mu)))
    sup_mu = float(np.max(np.abs(mu)) / lam)
    return MuReport(sup_int_mu=sup_int, sup_mu_over_lam=sup_mu,
                    bound_int=bound_int, bound_mu=bound_mu,
                    passed=(sup_int <= bound_int and sup_mu <= bound_mu))
