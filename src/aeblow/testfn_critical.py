"""Critical-exponent machinery: lambda-quadrature test functions and slicing.

The objects here combine the eigenfunction family with a decaying lambda
weight to build the space-time test function xi_q, measure its two-sided
envelope constants, evaluate the integral inequality that feeds the slicing
iteration, and run the iteration itself at the bookkeeping level (explicit
constants in, escalating lower bounds out).  Nothing in this module runs a
PDE; trajectories come in from wave_solver as snapshot arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .damping import DampingProfile, eta_of_s
from .entire_solutions import EigenFamily, build_family, lambda_max
from .errors import ConfigurationError, DomainError
from .lifespan import critical_exponent
from .metric import MetricProfile, k_integral


def log_lambda_grid(lam0: float, count: int = 17, decades: float = 3.0):
    """Log-spaced grid on (0, lam0], largest point exactly lam0; the cubic
    quadrature weights need at least 4 points."""
    if lam0 <= 0.0 or count < 4:
        raise ConfigurationError("need lam0 > 0 and at least 4 grid points")
    return np.geomspace(lam0 * 10.0 ** (-decades), lam0, count)


def _cubic_weights(x: np.ndarray) -> np.ndarray:
    """Integration weights for samples on an increasing grid: each panel
    [x_j, x_{j+1}] integrates the Lagrange cubic through the four nearest
    points (clamped to the ends), giving a 4th-order composite rule on
    smooth integrands regardless of spacing."""
    m = len(x)
    w = np.zeros(m)
    for j in range(m - 1):
        i0 = min(max(j - 1, 0), m - 4)
        idx = np.arange(i0, i0 + 4)
        a, b = x[j], x[j + 1]
        for k in idx:
            others = [i for i in idx if i != k]
            # integrate prod (t - x_i)/(x_k - x_i) over [a, b] exactly
            c = np.poly(x[others]) / np.prod(x[k] - x[others])
            ci = np.polyint(c)
            w[k] += np.polyval(ci, b) - np.polyval(ci, a)
    return w


@dataclass(frozen=True)
class XiEvaluator:
    """Frozen ingredients for xi_q: eigen family, weight exponent, geometry.

    w holds the composite Lagrange-cubic weights (_cubic_weights) in lambda
    over the family grid, with the lowest subinterval [0, lam_min] closed by
    exact integration of a local c*lambda^q model (the integrand has
    unbounded slope there for q < 1, so an ordinary end rule would bias the
    quadrature).
    """

    family: EigenFamily
    damping: DampingProfile
    q: float
    r1: float
    w: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        lam = self.family.lams
        if self.q <= -1.0:
            raise ConfigurationError("lambda weight needs q > -1")
        if lam[0] <= 0.0:
            raise ConfigurationError("lambda grid must be positive")
        w = _cubic_weights(lam)
        # integral of (f(lam_min)/lam_min^q) * s^q over [0, lam_min]
        w[0] += lam[0] / (self.q + 1.0)
        object.__setattr__(self, "w", w)


def build_evaluator(profile: MetricProfile, damping: DampingProfile, q: float,
                    r_max: float, r1: float, lam_grid=None,
                    dr: float = 0.05) -> XiEvaluator:
    if lam_grid is None:
        lam_grid = log_lambda_grid(lambda_max(profile))
    fam = build_family(profile, lam_grid, r_max, dr=dr)
    return XiEvaluator(family=fam, damping=damping, q=q, r1=r1)


def refine_lambda_grid(ev: XiEvaluator) -> XiEvaluator:
    """Same evaluator with geometric midpoints inserted into the lambda grid;
    only the midpoints are shot, the base rows are reused."""
    fam = ev.family
    mids = build_family(fam.profile, np.sqrt(fam.lams[:-1] * fam.lams[1:]),
                        fam.r[-1], dr=float(fam.r[1] - fam.r[0]))
    lams = np.empty(2 * len(fam.lams) - 1)
    phi = np.empty((len(lams), len(fam.r)))
    lams[0::2], lams[1::2] = fam.lams, mids.lams
    phi[0::2], phi[1::2] = fam.phi, mids.phi
    return XiEvaluator(family=replace(fam, lams=lams, phi=phi),
                       damping=ev.damping, q=ev.q, r1=ev.r1)


def _time_weight(ev: XiEvaluator, T: float, eta_T: float, t, eta_t):
    """sinh(lam*(eta_T - eta_t))/(lam*(T-t)) * exp(-lam*(eta_T + r1)) at t < T,
    exp(-lam*(eta_T + r1)) at t = T, per t and lambda (shape t.shape + (n_lam,));
    differences of decaying exponentials, so nothing large is ever formed."""
    lam = ev.family.lams
    t = np.asarray(t, dtype=float)[..., None]
    eta_t = np.asarray(eta_t, dtype=float)[..., None]
    a = np.exp(-lam * (eta_t + ev.r1))
    b = np.exp(-lam * (2.0 * eta_T - eta_t + ev.r1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t < T, (a - b) / (2.0 * lam * (T - t)), a)


def _phi_at(ev: XiEvaluator, r) -> np.ndarray:
    """Every family row linearly interpolated at r (a radius or an array of
    radii, giving shape (n_lambda,) + r.shape); exact at grid nodes."""
    fr = ev.family.r
    r = np.asarray(r, dtype=float)
    if np.any(r < fr[0] - 1e-12) or np.any(r > fr[-1] + 1e-12):
        raise DomainError("radius outside the eigen-family grid")
    i = np.clip(np.searchsorted(fr, r), 1, len(fr) - 1)
    s = (r - fr[i - 1]) / (fr[i] - fr[i - 1])
    return (1.0 - s) * ev.family.phi[:, i - 1] + s * ev.family.phi[:, i]


def xi_q(ev: XiEvaluator, r: float, T: float, t: float) -> float:
    """Lambda integral of time-weight * phi_lam(r) * lam^q d lam."""
    if not 0.0 <= t <= T:
        raise DomainError("need 0 <= t <= T")
    eta_T, eta_t = eta_of_s(ev.damping, [T, t])
    f = _time_weight(ev, T, eta_T, t, eta_t) * _phi_at(ev, r) \
        * ev.family.lams ** ev.q
    return float(f @ ev.w)


# -- envelope constants ----------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Measured envelope constants for xi_q and their grid stability."""

    a1: float               # inf xi_q * <T> <t>^q over interior samples
    a2: float               # sup xi_q(.,T,T) / decay envelope at t = T
    drift_a1: float         # max/min of a1 over the base, refined-lambda
    drift_a2: float         # and doubled-T measurements; likewise a2
    skipped: tuple
    passed: bool


def _bracket(x: float) -> float:
    return math.sqrt(1.0 + x * x)


def _measure(ev: XiEvaluator, samples):
    a1 = math.inf
    a2 = 0.0
    n = ev.family.profile.n
    skipped = []
    for (r, T, t) in samples:
        eta_T = float(eta_of_s(ev.damping, T))
        kr = k_integral(ev.family.profile, r)
        if kr > eta_T + ev.r1:
            skipped.append((r, T, t, "outside the support region"))
            continue
        val = xi_q(ev, r, T, t)
        if t < T:
            a1 = min(a1, val * _bracket(T) * _bracket(t) ** ev.q)
        else:
            env = _bracket(T) ** (-(n - 1) / 2.0) \
                * _bracket(eta_T - kr) ** ((n - 3) / 2.0 - ev.q)
            a2 = max(a2, val / env)
    return a1, a2, skipped


def xi_bounds_check(ev: XiEvaluator, samples) -> BoundReport:
    """Measure A1 (lower envelope) and A2 (upper envelope at t = T) over the
    sample set, then re-measure on a refined lambda grid and on doubled T
    values; all three must agree within 2x and satisfy A1 > 0, A2 < inf."""
    samples = [(float(r), float(T), float(t)) for (r, T, t) in samples]
    a1, a2, skipped = _measure(ev, samples)
    ev2 = refine_lambda_grid(ev)
    a1r, a2r, _ = _measure(ev2, samples)
    doubled = [(r, 2.0 * T, 2.0 * t if t < T else 2.0 * T)
               for (r, T, t) in samples]
    a1t, a2t, skip_t = _measure(ev, doubled)
    vals1 = [v for v in (a1, a1r, a1t) if math.isfinite(v)]
    vals2 = [v for v in (a2, a2r, a2t) if v > 0.0]
    ok = (a1 > 0.0 and math.isfinite(a1) and math.isfinite(a2) and a2 > 0.0)
    drift1 = max(vals1) / min(vals1) if ok and min(vals1) > 0 else math.inf
    drift2 = max(vals2) / min(vals2) if ok and vals2 else math.inf
    return BoundReport(a1=a1, a2=a2, drift_a1=drift1, drift_a2=drift2,
                       skipped=tuple(skipped) + tuple(skip_t),
                       passed=bool(ok and drift1 < 2.0 and drift2 < 2.0))


# -- the critical weight exponent -------------------------------------------

def critical_q(n: int) -> float:
    """q = (n-1)/2 - 1/p at the critical p = p_c(n).

    The whole construction rests on the exponent identity
    (n-1)(1-p/2) - q = -1, which holds exactly because p_c(n) is the
    positive root of (n-1)p^2 - (n+1)p - 2 = 0.
    """
    return (n - 1) / 2.0 - 1.0 / critical_exponent(n)


# -- the integral inequality --------------------------------------------------

@dataclass(frozen=True)
class CriticalReport:
    """F(T) against its interaction lower bound, sampled on the T grid."""

    T: np.ndarray
    lhs: np.ndarray           # F(T)
    rhs: np.ndarray           # double integral of |u|^p xi_q
    ratio: np.ndarray         # lhs / rhs where rhs > 0, nan elsewhere
    min_ratio: float
    min_slicing1: float       # inf of F(T) / (eps^p ln(2T/3)) over T > 3/2


def critical_F(traj, ev: XiEvaluator) -> CriticalReport:
    """Evaluate F(T) = integral of u(T) xi_q(.,T,T) dv and the competing
    interaction integral over the trajectory snapshots; T runs over every
    snapshot time >= 2."""
    if len(traj.snap_t) < 3:
        raise ConfigurationError("trajectory carries too few snapshots")
    lam = ev.family.lams
    phimat = _phi_at(ev, traj.r)       # rows of phi on the solver grid
    wq = ev.w * lam ** ev.q
    vol = traj.V
    ts = np.asarray(traj.snap_t, dtype=float)
    U = np.asarray(traj.snap_u, dtype=float)
    p = traj.p
    # lambda-space images of u(t)V and |u(t)|^p V, one row per snapshot
    GU = (U * vol) @ phimat.T
    GP = (np.abs(U) ** p * vol) @ phimat.T

    eta = np.asarray(eta_of_s(ev.damping, ts))
    Tsel = ts[ts >= 2.0]
    lhs, rhs = np.zeros(len(Tsel)), np.zeros(len(Tsel))
    for k, iT in enumerate(np.nonzero(ts >= 2.0)[0]):
        tt = ts[: iT + 1]
        # one row per t <= T; the last row, t = T, is the limit weight
        W = _time_weight(ev, ts[iT], eta[iT], tt, eta[: iT + 1]) * wq
        lhs[k] = float(W[-1] @ GU[iT])
        integ = (ts[iT] - tt) * np.einsum("jl,jl->j", W, GP[: iT + 1])
        rhs[k] = float(np.trapezoid(integ, tt))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0.0, lhs / rhs, np.nan)
        slic = np.where(Tsel > 1.5, lhs / (traj.eps ** p * np.log(2.0 * Tsel / 3.0)),
                        np.nan)
    finite_ratio = ratio[np.isfinite(ratio)]
    finite_slic = slic[np.isfinite(slic)]
    return CriticalReport(
        T=Tsel, lhs=lhs, rhs=rhs, ratio=ratio,
        min_ratio=float(finite_ratio.min()) if len(finite_ratio) else math.nan,
        min_slicing1=float(finite_slic.min()) if len(finite_slic) else math.nan)


# -- the slicing iteration ------------------------------------------------------

@dataclass(frozen=True)
class SlicingConstants:
    c_int: float              # constant in the interaction inequality
    B: float                  # constant entering the escalation logarithm
    eps: float
    p: float


@dataclass(frozen=True)
class IterationReport:
    measured_c: float         # inf F(T) / interaction-integral(T)
    L: float                  # ln(B eps^{p(p-1)} ln T_max)
    y: np.ndarray             # recursion iterates y_{j+1} = p y_j + L
    y_closed: np.ndarray      # (L/(p-1)) (p^j - 1)
    max_iter_rel_err: float
    bounds: np.ndarray        # lower bounds exp(y_j) at T_max, may be inf
    diverges: bool
    threshold_T: float        # exp(2 / (B eps^{p(p-1)}))
    conclusive: bool          # False when constants carry no content


def slicing_iteration_check(T, F, constants: SlicingConstants,
                            n_iter: int = 12) -> IterationReport:
    """Verify the self-improving inequality on measured samples, then run the
    escalation bookkeeping with the supplied explicit constants.

    The recursion y_{j+1} = p*y_j + L with y_0 = 0 tracks the exponent of
    the lower bound after j passes; its closed form is (L/(p-1))(p^j - 1).
    Divergence of the limit is equivalent to L >= ln 2, i.e.
    ln T >= 2 / (B eps^{p(p-1)}), matching the explicit lifespan threshold.
    """
    T = np.asarray(T, dtype=float)
    F = np.asarray(F, dtype=float)
    if len(T) != len(F) or len(T) < 3:
        raise ConfigurationError("need matching T and F samples, at least 3")
    if np.any(F <= 0.0):
        raise DomainError("slicing needs strictly positive F samples")
    p = constants.p
    if p <= 1.0:
        raise ConfigurationError("need p > 1 for the iteration to escalate")

    # measured constant of the self-improving inequality on the samples
    bt = np.sqrt(1.0 + T ** 2)
    logt = np.log(bt)
    integrand = F ** p / np.maximum(logt, 1e-300) ** (p - 1.0) / bt
    cvals = []
    for k in range(2, len(T)):
        inner = float(np.trapezoid((T[k] - T[: k + 1]) * integrand[: k + 1],
                                   T[: k + 1]))
        if inner > 0.0:
            cvals.append(F[k] * bt[k] / inner)
    measured_c = float(min(cvals)) if cvals else math.inf

    amp = constants.B * constants.eps ** (p * (p - 1.0))
    Tmax = float(T[-1])
    if amp <= 0.0 or constants.c_int <= 0.0:
        z = np.zeros(n_iter + 1)
        return IterationReport(measured_c=measured_c, L=-math.inf, y=z,
                               y_closed=z.copy(), max_iter_rel_err=0.0,
                               bounds=np.ones(n_iter + 1), diverges=False,
                               threshold_T=math.inf, conclusive=False)
    L = math.log(amp * math.log(Tmax))
    j = np.arange(n_iter + 1, dtype=float)
    y = np.zeros(n_iter + 1)
    for k in range(n_iter):
        y[k + 1] = p * y[k] + L
    y_closed = (L / (p - 1.0)) * (p ** j - 1.0)
    denom = np.maximum(np.abs(y_closed), 1e-300)
    rel = float(np.max(np.abs(y - y_closed) / denom)) if n_iter else 0.0
    with np.errstate(over="ignore"):
        bounds = np.exp(y)
    threshold = math.exp(2.0 / amp) if 2.0 / amp < 700.0 else math.inf
    return IterationReport(measured_c=measured_c, L=L, y=y, y_closed=y_closed,
                           max_iter_rel_err=rel, bounds=bounds,
                           diverges=bool(L >= math.log(2.0)),
                           threshold_T=threshold, conclusive=True)
