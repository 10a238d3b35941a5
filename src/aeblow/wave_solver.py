"""Radial solver for the semilinear wave equation on the curved background.

Two equivalent formulations are evolved on a uniform grid in r:

  direct       d_t^2 u - Lap_g u + b(t) d_t u = |u|^p
  transformed  d_s^2 u - mt(s)^2 Lap_g u = mt(s)^2 |u|^p

with the radial operator Lap_g = K^-1 r^(1-n) d_r (K^-1 r^(n-1) d_r u).
The spatial discretization is conservative flux form on half-nodes:

  (L u)_i = [a_{i+1/2}(u_{i+1}-u_i) - a_{i-1/2}(u_i-u_{i-1})] / (dr^2 wt_i)

with a_{i+1/2} = r_{i+1/2}^{n-1}/K_{i+1/2} and node weight wt_i = K_i r_i^{n-1}
(origin half-cell wt_0 = K_0 (dr/2)^n / (n dr)).  L is symmetric in the
weighted inner product sum(wt_i dr . .), so the cell volumes
V_i = omega_{n-1} wt_i dr make sum(V_i (Lu)_i) telescope to the outer flux:
the second difference of F = sum(u V) reproduces mt^2 * sum(|u|^p V) to
round-off, which is the discrete form of the functional identity the
inequality checks rest on.

Time stepping is Stoermer-Verlet (see _kernels), CFL dt <= nu dr delta0 delta1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .damping import DampingProfile, eta_of_s, m_tilde, zero_damping
from .errors import ConfigurationError, DomainError, IntegrationError
from .metric import MetricProfile, eval_k, k_integral, k_integral_grid

__all__ = [
    "DataProfile",
    "SolverConfig",
    "RadialWaveState",
    "Trajectory",
    "SupportReport",
    "InequalityReport",
    "init",
    "step",
    "evolve_transformed",
    "evolve_damped_direct",
    "functional_H",
    "check_support_trajectory",
    "check_inequalities",
    "energy",
    "shadow_energy",
]

DEFAULT_CFL = 0.45
_SLACK_CELLS = 2.0   # allowed support overshoot, in units of dr/delta0


@dataclass(frozen=True)
class DataProfile:
    """Compactly supported nonnegative bump data on r < r0.

    Template (1 - (r/r0)^2)^4, scaled by u0_amp for the position and u1_amp
    for the velocity component; either may be zero.
    """

    r0: float = 1.0
    u0_amp: float = 1.0
    u1_amp: float = 1.0

    def __post_init__(self):
        if self.r0 <= 0:
            raise ConfigurationError("data config: r0 must be positive")
        if self.u0_amp < 0 or self.u1_amp < 0:
            raise ConfigurationError("data config: amplitudes must be nonnegative")

    def shape(self, r):
        r = np.asarray(r, dtype=float)
        return np.maximum(0.0, 1.0 - (r / self.r0) ** 2) ** 4

    def u0(self, r):
        return self.u0_amp * self.shape(r)

    def u1(self, r):
        return self.u1_amp * self.shape(r)


@dataclass(frozen=True)
class SolverConfig:
    dr: float = 0.05
    tmax: float = 10.0
    cfl: float = DEFAULT_CFL
    rmax: float | None = None
    nonlinear: bool = True
    sup_cap: float = 1e12

    def __post_init__(self):
        if self.dr <= 0:
            raise ConfigurationError("solver config: dr must be positive")
        if not 0 < self.cfl <= 0.5:
            raise ConfigurationError("solver config: cfl must lie in (0, 0.5]")
        if self.tmax <= 0:
            raise ConfigurationError("solver config: tmax must be positive")


class Discretization:
    """Grid, stencil and coefficient tables shared by states of one setup."""

    def __init__(self, metric: MetricProfile, damping: DampingProfile,
                 data: DataProfile, eps: float, p: float,
                 config: SolverConfig, mode: str):
        if mode not in ("transformed", "direct"):
            raise ConfigurationError(f"unknown solver mode {mode!r}")
        if eps < 0:
            raise DomainError("eps must be nonnegative")
        if p <= 1:
            raise ConfigurationError("solver config: p must exceed 1")
        self.damping = damping
        self.eps = float(eps)
        self.p = float(p)
        self.config = config
        self.mode = mode
        self.n = metric.n
        self.delta0 = metric.delta0
        self.delta1 = damping.delta1
        self.r1 = k_integral(metric, data.r0)

        dr = config.dr
        # worst-case physical time reached: eta(tmax) <= tmax/delta1
        t_phys = config.tmax / self.delta1 if mode == "transformed" \
            else config.tmax
        needed = (t_phys + self.r1) / self.delta0 + max(8 * dr, 0.5)
        rmax = config.rmax if config.rmax is not None else needed
        if rmax < needed - 1e-12:
            raise ConfigurationError(
                f"solver config: rmax={rmax:g} too small for tmax budget "
                f"(support may reach {needed:g})")
        self.N = int(math.ceil(rmax / dr))
        self.r = np.arange(self.N + 1) * dr
        self.dr = dr

        k_node, _, _ = eval_k(metric, self.r)
        r_half = self.r[:-1] + dr / 2.0
        k_half, _, _ = eval_k(metric, r_half)
        n = self.n
        a_half = r_half ** (n - 1) / k_half
        wt = k_node * self.r ** (n - 1)
        wt[0] = k_node[0] * (dr / 2.0) ** n / (n * dr)
        A = np.zeros(self.N + 1)
        B = np.zeros(self.N + 1)
        C = np.zeros(self.N + 1)
        A[:-1] = a_half / (dr * dr * wt[:-1])
        C[1:] = a_half / (dr * dr * wt[1:])
        B[:] = -(A + C)
        A[self.N] = B[self.N] = C[self.N] = 0.0  # Dirichlet row, never active
        self.A, self.B, self.C = A, B, C
        omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        self.V = omega * wt * dr
        self.kint = k_integral_grid(metric, self.r)

        # CFL: wave speed mt/K <= 1/(delta0 delta1) transformed, 1/K direct
        speed = self.delta0 * (self.delta1 if mode == "transformed" else 1.0)
        self.dt_max = config.cfl * dr * speed

    def schedule(self, t, dt: float):
        """(msq, bh, tau) of the steps landing on times t, vectorized over t.

        msq multiplies the spatial operator and source, bh = b dt/2 is the
        semi-implicit damping and tau is the physical time: mt(t)^2, 0, eta(t)
        in transformed mode, 1, b(t) dt/2, t in direct mode.
        """
        t = np.asarray(t, dtype=float)
        if self.mode == "transformed":
            msq = np.asarray(m_tilde(self.damping, t), dtype=float) ** 2
            return (msq, np.zeros_like(t),
                    np.asarray(eta_of_s(self.damping, t), dtype=float))
        return (np.ones_like(t),
                0.5 * dt * np.asarray(self.damping.b(t), dtype=float), t)

    def lap(self, u: np.ndarray) -> np.ndarray:
        out = _kernels._stencil(u, self.A, self.B, self.C, self.N,
                                np.empty_like(u))
        out[self.N] = 0.0
        return out

    def accel(self, t: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        msq, bh, _ = self.schedule(t, 1.0)
        src = np.abs(u) ** self.p if self.config.nonlinear else 0.0
        return msq * (self.lap(u) + src) - 2.0 * bh * v


@dataclass(frozen=True)
class RadialWaveState:
    """Solution snapshot: u, v = time derivative, a = second derivative."""

    t: float
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    disc: Discretization = field(repr=False)


def init(metric: MetricProfile, damping: DampingProfile | None,
         data: DataProfile, eps: float, config: SolverConfig,
         p: float = 2.0, mode: str = "transformed") -> RadialWaveState:
    """State at t=0 with u = eps*u0, v = eps*u1 on the sized grid."""
    damping = damping if damping is not None else zero_damping()
    disc = Discretization(metric, damping, data, eps, p, config, mode)
    u = eps * data.u0(disc.r)
    v = eps * data.u1(disc.r)
    a = disc.accel(0.0, u, v)
    return RadialWaveState(t=0.0, u=u, v=v, a=a, disc=disc)


def _support_edge(u: np.ndarray, v: np.ndarray) -> int:
    """Last cell where max(|u|, |v|) is live by the kernel's edge rule, else 0."""
    live = np.maximum(np.abs(u), np.abs(v))
    nz = np.flatnonzero(~(live <= _kernels._EDGE_REL * float(live.max())))
    return int(nz[-1]) if len(nz) else 0


def step(state: RadialWaveState, dt: float) -> RadialWaveState:
    """One Stoermer-Verlet step of the windowed kernel; damping semi-implicit."""
    disc = state.disc
    if dt > disc.dt_max * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt={dt:g} violates the CFL bound {disc.dt_max:g}")
    t1 = state.t + dt
    msq, bh, _ = disc.schedule(np.full(2, t1), dt)
    u, v, a = state.u.copy(), state.v.copy(), state.a.copy()
    _, status, _ = _kernels.advance_segment(
        u, v, a, disc.A, disc.B, disc.C, disc.V, np.zeros_like(u), np.ones(2),
        msq, bh, dt, disc.p,
        1 if disc.config.nonlinear else 0, 0, 1, math.inf,
        *(np.zeros(2) for _ in range(4)), np.zeros(2, dtype=np.int64),
        _support_edge(u, v))
    if status == 2:
        raise IntegrationError("non-finite values: blow-up reached inside step")
    return replace(state, t=t1, u=u, v=v, a=a)


# -- full evolutions -----------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Per-step scalar records plus optional field snapshots.

    Scalars are sampled at every step: sup = sup|u|, F = integral of u dv_g,
    int_up = integral of |u|^p dv_g, H = integral of u phi dv_g scaled by
    exp(-lam eta(t)), lam the eigenfunction's own, fold step by step (zero
    when no test eigenfunction was attached).  The fold happens inside the
    accumulation because the unscaled pairing reaches exp(lam eta) ~ 1e80+ on
    long runs and the O(eps) part would drown in float cancellation noise.
    eta holds eta(s) for the transformed mode and t itself for the direct
    mode, so eta + r1 is always the support budget in int-K units.
    """

    mode: str
    n: int                           # spatial dimension of the metric
    eps: float
    p: float
    dr: float
    dt: float
    r: np.ndarray
    t: np.ndarray
    sup: np.ndarray
    F: np.ndarray
    int_up: np.ndarray
    H: np.ndarray
    edge: np.ndarray
    msq: np.ndarray
    eta: np.ndarray
    kint: np.ndarray
    V: np.ndarray
    r1: float
    delta0: float
    status: str                      # "completed" | "blowup" | "nonfinite"
    snap_t: np.ndarray
    snap_u: np.ndarray               # (len(snap_t), len(r))
    snap_v: np.ndarray

    @property
    def edge_r(self) -> np.ndarray:
        return self.edge * self.dr

    @property
    def fpp(self) -> np.ndarray:
        """F'' through the integrated equation, not by differencing."""
        return self.msq * self.int_up


def _evolve(state: RadialWaveState, snapshot_times=None,
            phi_sol=None) -> Trajectory:
    disc = state.disc
    cfg = disc.config
    phiV = np.zeros_like(disc.V) if phi_sol is None \
        else _phi_on_grid(disc, phi_sol) * disc.V
    tmax = cfg.tmax
    nsteps = int(math.ceil(tmax / disc.dt_max - 1e-12))
    dt = tmax / nsteps
    tgrid = np.arange(nsteps + 1) * dt
    msq_arr, bh_arr, eta_full = disc.schedule(tgrid, dt)
    esc = np.ones(nsteps + 1) if phi_sol is None \
        else np.exp(-phi_sol.lam * eta_full)

    u = state.u.copy()
    v = state.v.copy()
    a = state.a.copy()
    rec_sup = np.zeros(nsteps + 1)
    rec_F = np.zeros(nsteps + 1)
    rec_Ip = np.zeros(nsteps + 1)
    rec_G = np.zeros(nsteps + 1)
    rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
    absu = np.abs(u)
    rec_sup[0] = float(absu.max())
    rec_F[0] = float(u @ disc.V)
    rec_Ip[0] = float(absu ** disc.p @ disc.V)
    rec_G[0] = float(u @ phiV) * esc[0]
    edge = rec_edge[0] = _support_edge(u, v)

    nonlin = 1 if cfg.nonlinear else 0
    snaps_req = sorted(float(ts) for ts in (snapshot_times or []))
    if snaps_req and (snaps_req[0] < -1e-12 or snaps_req[-1] > tmax + 1e-12):
        raise ConfigurationError("snapshot times must lie within [0, tmax]")
    snap_t, snap_u, snap_v = [], [], []

    m_cur = 0
    status = 0
    # one segment up to each snapshot, then one to tmax (ts None)
    for ts in snaps_req + [None]:
        m_target = nsteps if ts is None \
            else min(int(math.floor(ts / dt + 1e-9)), nsteps)
        if m_target > m_cur and status == 0:
            m_cur, status, edge = _kernels.advance_segment(
                u, v, a, disc.A, disc.B, disc.C, disc.V, phiV, esc, msq_arr,
                bh_arr, dt, disc.p, nonlin, m_cur, m_target - m_cur,
                cfg.sup_cap, rec_sup, rec_F, rec_Ip, rec_G, rec_edge, edge)
        if ts is None or (status != 0 and m_cur * dt < ts - 1e-9):
            break
        d = ts - m_cur * dt
        snap_t.append(ts)
        snap_u.append(u + d * v + 0.5 * d * d * a)
        snap_v.append(v + d * a)

    last = m_cur + 1
    return Trajectory(
        mode=disc.mode, n=disc.n, eps=disc.eps, p=disc.p, dr=disc.dr, dt=dt,
        r=disc.r, t=tgrid[:last], sup=rec_sup[:last], F=rec_F[:last],
        int_up=rec_Ip[:last], H=rec_G[:last], edge=rec_edge[:last],
        msq=msq_arr[:last], eta=eta_full[:last].copy(), kint=disc.kint,
        V=disc.V, r1=disc.r1, delta0=disc.delta0,
        status={0: "completed", 1: "blowup", 2: "nonfinite"}[status],
        snap_t=np.asarray(snap_t), snap_u=np.asarray(snap_u),
        snap_v=np.asarray(snap_v))


def _phi_on_grid(disc: Discretization, phi_sol) -> np.ndarray:
    if phi_sol.r[-1] < disc.r[-1] - 1e-9:
        raise DomainError("eigenfunction grid does not cover the solver grid")
    return np.interp(disc.r, phi_sol.r, phi_sol.phi)


def evolve_transformed(metric: MetricProfile, damping: DampingProfile | None,
                       data: DataProfile, eps: float, config: SolverConfig,
                       p: float = 2.0, snapshot_times=None,
                       phi_sol=None) -> Trajectory:
    """Evolve d_s^2 u = mt(s)^2 (Lap_g u + |u|^p) in the slow time s."""
    state = init(metric, damping, data, eps, config, p=p, mode="transformed")
    return _evolve(state, snapshot_times, phi_sol)


def evolve_damped_direct(metric: MetricProfile, damping: DampingProfile | None,
                         data: DataProfile, eps: float, config: SolverConfig,
                         p: float = 2.0, snapshot_times=None,
                         phi_sol=None) -> Trajectory:
    """Evolve d_t^2 u + b(t) d_t u = Lap_g u + |u|^p in the original time."""
    state = init(metric, damping, data, eps, config, p=p, mode="direct")
    return _evolve(state, snapshot_times, phi_sol)


# -- functionals ---------------------------------------------------------------

def functional_H(state: RadialWaveState, phi_sol) -> float:
    """H = exp(-lam eta) integral of u phi dv_g, lam = phi_sol.lam and eta
    the physical time."""
    disc = state.disc
    tau = float(disc.schedule(state.t, 1.0)[2])
    phi = _phi_on_grid(disc, phi_sol)
    return math.exp(-phi_sol.lam * tau) * float(state.u @ (phi * disc.V))


# -- support and inequality reports ---------------------------------------------

@dataclass(frozen=True)
class SupportReport:
    edge_r: float
    budget: float        # eta(t) + R1, in int-K units
    slack: float         # budget - int_0^edge K
    tol: float
    passed: bool


def check_support_trajectory(traj: Trajectory) -> SupportReport:
    """Finite-speed check int_0^edge K <= eta(t) + R1 within grid slack, at
    the worst of all recorded times of a trajectory."""
    budget = traj.eta + traj.r1
    slack = budget - traj.kint[traj.edge]
    i = int(np.argmin(slack))
    tol = _SLACK_CELLS * traj.dr / traj.delta0
    return SupportReport(edge_r=float(traj.edge_r[i]), budget=float(budget[i]),
                         slack=float(slack[i]), tol=tol,
                         passed=bool(slack[i] >= -tol))


@dataclass(frozen=True)
class InequalityReport:
    """Infima over the sample window of LHS/RHS for the growth inequalities.

    ratio_ff : F'' vs |F|^p (1+t)^(-n(p-1))
    ratio_fh : F'' vs |H|^p (1+t)^((n-1)(1-p/2))
    ratio_h  : H vs eps
    ratio_ft : F vs eps*t
    fpp_identity_err: worst pointwise relative gap between the discrete second
               difference of F and msq*int|u|^p dv over the whole run,
               with a floor absorbing the eps_mach*|F|/dt^2 cancellation noise
    """

    ratio_ff: float
    ratio_fh: float
    ratio_h: float
    ratio_ft: float
    fpp_identity_err: float
    fpp_min: float


def check_inequalities(traj: Trajectory) -> InequalityReport:
    """Measure the functional inequalities on a transformed-mode trajectory
    over the window t >= 1."""
    if traj.mode != "transformed":
        raise ConfigurationError(
            "inequality report needs the transformed formulation")
    t = traj.t
    n, p, eps = traj.n, traj.p, traj.eps
    # Drop the runaway tail: once sup|u| passes the first detection threshold
    # the focusing time scale falls below dt and the records stop meaning
    # anything.  1e6*eps matches the coarsest lifespan-detector threshold.
    hot = np.nonzero(traj.sup > 1e6 * eps)[0]
    t_hi = t[hot[0]] if len(hot) else np.inf
    mask = (t >= 1.0) & (t < t_hi)
    if not np.any(mask):
        raise DomainError("trajectory too short for the inequality window")
    tw = t[mask]
    F = traj.F[mask]
    H = traj.H[mask]
    fpp = traj.fpp[mask]
    one_t = 1.0 + tw
    ratio_ff = float(np.min(fpp / (np.abs(F) ** p * one_t ** (-n * (p - 1.0)))))
    with np.errstate(divide="ignore"):
        ratio_fh = float(np.min(fpp / (np.abs(H) ** p
                                       * one_t ** ((n - 1.0) * (1.0 - p / 2.0)))))
    ratio_h = float(np.min(H / eps))
    ratio_ft = float(np.min(F / (eps * tw)))

    d2 = (traj.F[2:] - 2.0 * traj.F[1:-1] + traj.F[:-2]) / traj.dt ** 2
    # Pointwise relative error: cancellation noise in the second difference is
    # ~eps_mach * |F| / dt^2, so normalize against the local magnitudes instead
    # of the global max (which a growing tail would dominate).
    fpp_in = traj.fpp[1:-1]
    floor = np.abs(traj.F[1:-1]) * 1e-13 / traj.dt ** 2
    denom = np.abs(fpp_in) + np.abs(d2) + floor + 1e-300
    fpp_identity_err = float(np.max(np.abs(d2 - fpp_in) / denom)) if len(d2) else 0.0
    return InequalityReport(
        ratio_ff=ratio_ff, ratio_fh=ratio_fh, ratio_h=ratio_h,
        ratio_ft=ratio_ft, fpp_identity_err=fpp_identity_err,
        fpp_min=float(traj.fpp.min()))


# -- energies ------------------------------------------------------------------

def energy(state: RadialWaveState) -> float:
    """Continuous-form energy sum V (v^2) + <u, -Lu>_V."""
    disc = state.disc
    return float(state.v ** 2 @ disc.V - state.u @ (disc.lap(state.u) * disc.V))


def shadow_energy(state: RadialWaveState, dt: float) -> float:
    """The quantity the Verlet step conserves exactly in the linear b=0 case."""
    disc = state.disc
    vh = state.v + 0.5 * dt * state.a
    u1 = state.u + dt * vh
    lap = disc.lap(state.u)
    return float(vh ** 2 @ disc.V - u1 @ (lap * disc.V))
