"""Positive entire solutions of Lap_g Phi = lam^2 Phi for radial metrics.

The radial equation Phi'' + ((n-1)/r - K'/K) Phi' = lam^2 K^2 Phi is shot from
the origin (even Taylor start) and integrated in log form (log Phi, Phi'/Phi),
which keeps the exponentially growing solution in range over arbitrarily long
radii.  Linearity makes the rescale to Phi(1/lam) = 1 exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, PositivityError
from .metric import MetricProfile, eval_k, k_integral_grid, validate_long_range

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
_ATOL = 1e-13


@dataclass(frozen=True)
class EntireSolution:
    """One eigenfunction Phi_lam on a uniform radial grid, Phi(1/lam) = 1."""

    lam: float
    n: int
    profile: MetricProfile
    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    log_phi: np.ndarray
    k_int: np.ndarray          # cumulative int_0^r K on the same grid
    phi0: float                # Phi at the origin

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


def lambda_max(profile: MetricProfile, r_max: float = 200.0) -> float:
    """lam0 = min(1/R2, 1) with R2 measured by the long-range validator."""
    rho = profile.rho if profile.kind != "flat" else 1.0
    grid = np.linspace(0.0, max(r_max, 10.0 / rho + 1.0), 4001)
    return validate_long_range(profile, grid).lambda0


def _solve_log_form(profile: MetricProfile, lam: float, r_end: float):
    """Integrate (log Phi, Phi'/Phi) from the Taylor start to r_end.

    Returns (dense solution, r_start, taylor coefficient), normalized later.
    """
    from scipy.integrate import solve_ivp
    n = profile.n
    k0 = eval_k(profile, 0.0)[0]
    r_start = 1e-4 / lam
    c2 = lam * lam * k0 * k0 / (2.0 * n)   # Phi ~ Phi(0)(1 + c2 r^2)
    w0 = 2.0 * c2 * r_start / (1.0 + c2 * r_start ** 2)
    l0 = np.log1p(c2 * r_start ** 2)       # relative to log Phi(0) = 0

    def rhs(r, z):
        k, k1, _ = eval_k(profile, r)
        w = z[1]
        return [w, lam * lam * k * k - ((n - 1) / r - k1 / k) * w - w * w]

    res = solve_ivp(rhs, (r_start, r_end), [l0, w0], method="DOP853",
                    rtol=_RTOL, atol=_ATOL, dense_output=True)
    if not res.success:
        raise IntegrationError(f"eigenfunction solve failed: {res.message}")
    return res.sol, r_start, c2


def build_entire_solution(profile: MetricProfile, lam: float, r_max: float,
                          dr: float = 0.05,
                          lam0: float | None = None) -> EntireSolution:
    """Shoot, normalize at r = 1/lam, and sample on the grid [0, r_max]."""
    if lam <= 0:
        raise DomainError("lambda must be positive")
    if lam0 is None:
        lam0 = lambda_max(profile)
    if lam > lam0 * (1.0 + 1e-12):
        raise DomainError(f"lambda={lam:g} exceeds lambda0={lam0:g}")
    n = profile.n
    r_ball = 1.0 / lam
    sol, r_start, c2 = _solve_log_form(profile, lam, max(r_max, r_ball) + dr)

    l_ball = float(sol(r_ball)[0])          # shift so Phi(1/lam) = 1
    grid = np.arange(0.0, r_max + dr / 2.0, dr)
    log_phi = np.empty_like(grid)
    w = np.empty_like(grid)
    small = grid < r_start
    if np.any(small):
        rs = grid[small]
        log_phi[small] = np.log1p(c2 * rs * rs) - l_ball
        w[small] = 2.0 * c2 * rs / (1.0 + c2 * rs * rs)
    big = ~small
    lv, wv = sol(grid[big])
    log_phi[big] = lv - l_ball
    w[big] = wv

    phi = np.exp(log_phi)
    dphi = w * phi
    k, k1, _ = eval_k(profile, grid)
    d2phi = lam * lam * k * k * phi.copy()
    rpos = grid > 0
    d2phi[rpos] -= ((n - 1) / grid[rpos] - k1[rpos] / k[rpos]) * dphi[rpos]
    if not rpos[0]:
        # even limit: Phi''(0) = lam^2 K(0)^2 Phi(0) / n
        d2phi[0] = lam * lam * k[0] * k[0] * phi[0] / n

    if np.any(phi <= 0) or np.any(dphi < -1e-12 * np.abs(phi)):
        raise PositivityError("Phi must be positive and nondecreasing")
    return EntireSolution(
        lam=lam, n=n, profile=profile, r=grid,
        phi=phi, dphi=dphi, d2phi=d2phi, log_phi=log_phi,
        k_int=k_integral_grid(profile, grid),
        phi0=float(np.exp(-l_ball)),
    )


def build_family(profile: MetricProfile, lams: np.ndarray, r_max: float,
                 dr: float = 0.05, lam0: float | None = None) -> EigenFamily:
    """Eigenfunctions for every lambda in the grid, shared radial grid."""
    lams = np.sort(np.asarray(lams, dtype=float))
    if lam0 is None:
        lam0 = lambda_max(profile)
    rows = []
    for lam in lams:
        sol = build_entire_solution(profile, lam, r_max, dr=dr, lam0=lam0)
        rows.append(sol.phi)          # every member shares the grid sol.r
    return EigenFamily(profile=profile, lams=lams, r=sol.r,
                       phi=np.ascontiguousarray(np.vstack(rows)))


# -- diagnostics ---------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeReport:
    lam: float
    c_low: float
    c_high: float
    inf_phi: float


def verify_envelopes(sol: EntireSolution) -> EnvelopeReport:
    """Measure Phi against E(r) = <lam r>^(-(n-1)/2) exp(lam int_0^r K)."""
    lam = sol.lam
    log_env = (-(sol.n - 1) / 2.0 * 0.5 * np.log1p((lam * sol.r) ** 2)
               + lam * sol.k_int)
    ratio = np.exp(sol.log_phi - log_env)
    return EnvelopeReport(lam=lam, c_low=float(ratio.min()),
                          c_high=float(ratio.max()),
                          inf_phi=float(sol.phi.min()))


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
        first[0] = eval_k(sol.profile, 0.0)[0] ** 2 / sol.n  # Taylor limit
    second = np.abs(d2phi) / (lam2 * phi)
    return float(max(first.max(), second.max()))


@dataclass(frozen=True)
class MuReport:
    lam: float
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
    n = sol.n
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
    kint_ball = np.interp(r_ball, sol.r, sol.k_int)
    int_mu = log_y - log_y_ball - lam * (sol.k_int[mask] - kint_ball)

    d0 = sol.profile.delta0
    bound_int = 8.0 / d0 ** 2 + 6.0 / d0 ** 4
    bound_mu = 3.0 / d0
    sup_int = float(np.max(np.abs(int_mu)))
    sup_mu = float(np.max(np.abs(mu)) / lam)
    return MuReport(lam=lam, sup_int_mu=sup_int, sup_mu_over_lam=sup_mu,
                    bound_int=bound_int, bound_mu=bound_mu,
                    passed=(sup_int <= bound_int and sup_mu <= bound_mu))
