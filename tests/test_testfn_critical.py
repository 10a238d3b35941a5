import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aeblow import damping as dm
from aeblow import entire_solutions as es
from aeblow import lifespan as ls
from aeblow import testfn_critical as tc
from aeblow import wave_solver as ws
from aeblow.damping import eta_of_s, zero_damping
from aeblow.errors import ConfigurationError, DomainError


# -- lambda quadrature ---------------------------------------------------------

def test_cubic_weights_integrate_cubics_exactly():
    x = np.geomspace(0.01, 1.0, 9)
    w = tc._cubic_weights(x)
    for k in range(4):
        exact = (x[-1] ** (k + 1) - x[0] ** (k + 1)) / (k + 1)
        assert float(x ** k @ w) == pytest.approx(exact, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(decades=st.floats(1.0, 6.0),
       gaps=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=39))
def test_cubic_weights_integrate_cubics_on_random_grids(decades, gaps):
    # increasing grids of 4-40 points over [10^-decades, 1], neighbouring
    # log-gaps up to 100x apart
    u = np.concatenate(([0.0], np.cumsum(gaps))) / sum(gaps)
    x = 10.0 ** (decades * (u - 1.0))
    w = tc._cubic_weights(x)
    for k in range(4):
        exact = (x[-1] ** (k + 1) - x[0] ** (k + 1)) / (k + 1)
        # rel 1e-12 of the rule's absolute mass, which is the integral
        # itself wherever the weights are positive
        assert abs(x ** k @ w - exact) <= 1e-12 * (np.abs(w) @ x ** k)


def _cubic_weights_loop(x):
    """Reference: each panel's four Lagrange cubics integrated exactly
    through their polynomial antiderivatives, one panel at a time."""
    m = len(x)
    w = np.zeros(m)
    for j in range(m - 1):
        i0 = min(max(j - 1, 0), m - 4)
        idx = np.arange(i0, i0 + 4)
        for k in idx:
            others = [i for i in idx if i != k]
            ci = np.polyint(np.poly(x[others]) / np.prod(x[k] - x[others]))
            w[k] += np.polyval(ci, x[j + 1]) - np.polyval(ci, x[j])
    return w


@pytest.mark.parametrize("m", [4, 9, 17, 33])
@pytest.mark.parametrize("decades", [1.0, 3.0, 5.0])
def test_cubic_weights_match_the_polyint_loop(m, decades):
    # the loop's own rounding reaches 3e-12 of max |w| (33 points, 1 decade)
    x = np.geomspace(10.0 ** -decades, 1.0, m)
    ref = _cubic_weights_loop(x)
    assert np.max(np.abs(tc._cubic_weights(x) - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_xi_q_against_adaptive_quadrature(flat3, zero_damping):
    # flat n=3 closed form: phi_lam(r) = sinh(lam r)/(lam r)/sinh(1)
    q = tc.critical_q(3)
    lam0, r1 = 1.0, 1.0
    grid = tc.log_lambda_grid(lam0, count=513, decades=5.0)
    ev = tc.build_evaluator(flat3, zero_damping, q, r_max=60.0, r1=r1,
                            lam_grid=grid, dr=0.01)
    cases = [(3.0, 10.0, 4.0), (0.5, 8.0, 8.0), (6.0, 20.0, 1.0)]
    for (r, T, t) in cases:
        def integrand(lam):
            phi = math.sinh(lam * r) / (lam * r) / math.sinh(1.0) \
                if r > 0 else 1.0 / math.sinh(1.0)
            if t == T:
                twt = math.exp(-lam * (T + r1))
            else:
                twt = (math.exp(-lam * (t + r1))
                       - math.exp(-lam * (2.0 * T - t + r1))) \
                    / (2.0 * lam * (T - t))
            return twt * phi * lam ** q
        oracle = quad(integrand, 0.0, lam0, epsabs=1e-14, epsrel=1e-12,
                      limit=200)[0]
        assert tc.xi_q(ev, r, T, t) == pytest.approx(oracle, rel=1e-6)


def test_xi_q_limit_t_to_T(flat3, zero_damping):
    q = tc.critical_q(3)
    ev = tc.build_evaluator(flat3, zero_damping, q, r_max=40.0, r1=1.0,
                            dr=0.02)
    at_T = tc.xi_q(ev, 2.0, 10.0, 10.0)
    near_T = tc.xi_q(ev, 2.0, 10.0, 10.0 - 1e-7)
    assert near_T == pytest.approx(at_T, rel=1e-5)


def test_xi_q_positive_and_decaying_in_T(flat3, zero_damping):
    q = tc.critical_q(3)
    ev = tc.build_evaluator(flat3, zero_damping, q, r_max=100.0, r1=1.0,
                            dr=0.05)
    vals = [tc.xi_q(ev, 1.0, T, T) for T in (5.0, 10.0, 20.0, 40.0)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_xi_q_domain_errors(flat3, zero_damping):
    q = tc.critical_q(3)
    ev = tc.build_evaluator(flat3, zero_damping, q, r_max=20.0, r1=1.0,
                            dr=0.05)
    with pytest.raises(DomainError):
        tc.xi_q(ev, 50.0, 5.0, 1.0)        # radius off the family grid
    with pytest.raises(DomainError):
        tc.xi_q(ev, 1.0, 5.0, 6.0)         # t > T


def test_evaluator_shoots_its_family_once(flat3, zero_damping, monkeypatch):
    L = 5
    shot = []
    real = tc.build_family

    def counting(profile, lams, *args, **kwargs):
        shot.append(np.asarray(lams))
        return real(profile, lams, *args, **kwargs)

    monkeypatch.setattr(tc, "build_family", counting)
    ev = tc.build_evaluator(flat3, zero_damping, 0.5, r_max=20.0, r1=1.0,
                            lam_grid=tc.log_lambda_grid(1.0, L), dr=0.05)
    tc.xi_bounds_check(ev, [(1.0, 5.0, 5.0), (1.0, 5.0, 2.0)])
    assert [len(lams) for lams in shot] == [2 * L - 1]
    fine = ev.refined.family
    assert np.array_equal(ev.family.lams, fine.lams[0::2])
    assert np.array_equal(ev.family.phi, fine.phi[0::2])
    assert np.all(np.diff(fine.lams) > 0)


@pytest.mark.parametrize("lams", [[0.1, 0.3, 1.0], [0.0, 0.1, 0.3, 1.0]])
def test_evaluator_needs_four_positive_lambdas(zero_damping, lams):
    fam = es.EigenFamily(profile=None, lams=np.array(lams), r=np.zeros(1),
                         phi=np.ones((len(lams), 1)))
    with pytest.raises(ConfigurationError):
        tc.XiEvaluator(family=fam, damping=zero_damping, q=0.5, r1=1.0)


@pytest.mark.parametrize("q", [-1.0, -2.0])
def test_evaluator_needs_q_above_minus_one(zero_damping, q):
    # the weight lam^q is integrable at 0 only for q > -1
    fam = es.EigenFamily(profile=None, lams=tc.log_lambda_grid(1.0, 5),
                         r=np.zeros(1), phi=np.ones((5, 1)))
    with pytest.raises(ConfigurationError, match="q > -1"):
        tc.XiEvaluator(family=fam, damping=zero_damping, q=q, r1=1.0)


def test_xi_bounds_check_needs_a_refined_grid(zero_damping):
    with pytest.raises(ConfigurationError):
        tc.xi_bounds_check(_synthetic_evaluator(0.05, 40, zero_damping),
                           [(1.0, 5.0, 5.0)])


def _synthetic_evaluator(dr, cells, zero_damping):
    # positive rows growing like exp(lam r), as eigenfunctions do; no shooting
    r = np.arange(cells + 1) * dr
    lams = tc.log_lambda_grid(1.0, 5)
    fam = es.EigenFamily(profile=None, lams=lams, r=r,
                         phi=np.cosh(np.outer(lams, r)))
    return tc.XiEvaluator(family=fam, damping=zero_damping, q=0.5, r1=1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dr=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
       cells=st.integers(2, 400),
       frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_rows_at_matches_interp(zero_damping, dr, cells, frac):
    ev = _synthetic_evaluator(dr, cells, zero_damping)
    fam = ev.family
    radii = np.array(frac) * fam.r[-1]
    got = es._rows_at(fam.r, fam.phi, radii)
    want = np.vstack([np.interp(radii, fam.r, row) for row in fam.phi])
    np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps,
                               atol=0.0)
    assert np.array_equal(es._rows_at(fam.r, fam.phi, fam.r), fam.phi)
    # a single row, as the solver samples one eigenfunction
    row = fam.phi[-1]
    np.testing.assert_allclose(es._rows_at(fam.r, row, radii), want[-1],
                               rtol=4 * np.finfo(float).eps, atol=0.0)
    assert np.array_equal(es._rows_at(fam.r, row, fam.r), row)
    for r_off in (-1e-9, fam.r[-1] + 1e-9):
        for phi in (fam.phi, row):
            with pytest.raises(DomainError,
                               match="outside the eigenfunction grid"):
                es._rows_at(fam.r, phi, np.append(radii, r_off))


# -- critical q ------------------------------------------------------------------

def test_critical_q_values():
    assert tc.critical_q(3) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)
    p2 = ls.critical_exponent(2)
    assert tc.critical_q(2) == pytest.approx(0.5 - 1.0 / p2, rel=1e-12)
    assert tc.critical_q(2) == pytest.approx(0.21922, abs=5e-6)


def test_critical_q_identity_enforced():
    with pytest.raises(DomainError):
        tc.critical_q(1)


def test_critical_q_identity_value():
    for n in (2, 3, 4, 5):
        p = ls.critical_exponent(n)
        q = tc.critical_q(n)
        assert (n - 1) * (1.0 - p / 2.0) - q == pytest.approx(-1.0,
                                                              abs=1e-12)
        assert q > max(0.0, (n - 3) / 2.0)


# -- envelope bounds ---------------------------------------------------------------

def test_xi_bounds_check_flat(flat3, zero_damping):
    q = tc.critical_q(3)
    ev = tc.build_evaluator(flat3, zero_damping, q, r_max=120.0, r1=1.0,
                            dr=0.05)
    samples = [(r, T, t)
               for T in (10.0, 20.0, 40.0)
               for t in (0.0, T / 2.0, T)
               for r in (0.5, 2.0, 5.0)]
    rep = tc.xi_bounds_check(ev, samples)
    assert rep.passed
    assert rep.a1 > 0
    assert math.isfinite(rep.a2) and rep.a2 > 0
    assert rep.drift_a1 < 2.0 and rep.drift_a2 < 2.0


def test_xi_bounds_skips_outside_support(flat3, zero_damping):
    q = tc.critical_q(3)
    ev = tc.build_evaluator(flat3, zero_damping, q, r_max=200.0, r1=1.0,
                            dr=0.05)
    # r = 80 lies past eta_T + r1 = 6 for T = 5 and must be skipped
    rep = tc.xi_bounds_check(ev, [(80.0, 5.0, 5.0), (1.0, 5.0, 5.0),
                                  (1.0, 5.0, 2.0)])
    assert any(s[0] == 80.0 for s in rep.skipped)


# -- integral inequality on real trajectories --------------------------------------

def test_critical_F_inequality(flat3, zero_damping, bump_data):
    p = ls.critical_exponent(3)
    q = tc.critical_q(3)
    tmax = 12.0
    snaps = list(np.arange(0.0, tmax + 1e-9, 0.5))
    cfg = ws.SolverConfig(dr=0.05, tmax=tmax)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.4, cfg,
                                 p=p, snapshot_times=snaps)
    ev = tc.build_evaluator(flat3, zero_damping, q,
                            r_max=float(traj.r[-1]) + 1.0, r1=traj.r1,
                            dr=0.05)
    rep = tc.critical_F(traj, ev)
    assert np.all(rep.lhs > 0)
    assert np.all(rep.rhs > 0)
    assert rep.min_ratio > 1.0          # F(T) dominates the interaction term
    assert rep.min_slicing1 > 0.1


def _critical_F_pairwise(traj, ev):
    """lhs and rhs of critical_F by a loop over every (T, t) pair, with the
    time weight and eta re-derived for each pair."""
    lam = ev.family.lams
    wq = ev.w * lam ** ev.q
    phimat = es._rows_at(ev.family.r, ev.family.phi, traj.r)
    ts = np.asarray(traj.snap_t, dtype=float)
    # the lambda-space images summed in critical_F's order, so lhs compares
    # bit for bit
    GU = np.einsum("ij,kj->ik", traj.snap_u * traj.V, phimat)
    GP = np.einsum("ij,kj->ik", np.abs(traj.snap_u) ** traj.p * traj.V, phimat)

    def weight(T, t):
        eta_T = float(eta_of_s(ev.damping, T))
        if t == T:
            return np.exp(-lam * (eta_T + ev.r1))
        eta_t = float(eta_of_s(ev.damping, t))
        a = np.exp(-lam * (eta_t + ev.r1))
        b = np.exp(-lam * (2.0 * eta_T - eta_t + ev.r1))
        return (a - b) / (2.0 * lam * (T - t))

    lhs, rhs = [], []
    for iT, T in enumerate(ts):
        if T < 2.0:
            continue
        lhs.append(float((weight(T, T) * wq) @ GU[iT]))
        integ = [(T - t) * float((weight(T, t) * wq) @ GP[j])
                 for j, t in enumerate(ts[: iT + 1])]
        rhs.append(float(np.trapezoid(integ, ts[: iT + 1])))
    return np.array(lhs), np.array(rhs)


@pytest.mark.parametrize("damp", [
    dm.zero_damping(), dm.scattering_power_damping(0.5, 2.0),
    dm.signed_oscillatory_damping(0.4, 1.8)], ids=lambda d: d.kind)
def test_critical_F_matches_pairwise_loop(flat3, bump_data, damp):
    p = ls.critical_exponent(3)
    traj = ws.evolve_transformed(
        flat3, damp, bump_data, 0.4, ws.SolverConfig(dr=0.1, tmax=8.0), p=p,
        snapshot_times=list(np.arange(0.0, 8.0 + 1e-9, 0.5)))
    ev = tc.build_evaluator(flat3, damp, tc.critical_q(3),
                            r_max=float(traj.r[-1]), r1=traj.r1,
                            lam_grid=tc.log_lambda_grid(1.0, 9), dr=traj.dr)
    rep = tc.critical_F(traj, ev)
    lhs, rhs = _critical_F_pairwise(traj, ev)
    assert np.array_equal(rep.lhs, lhs)
    assert np.all(rhs > 0.0)
    assert np.max(np.abs(rep.rhs - rhs) / rhs) <= 1e-13


def test_critical_F_zero_solution(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.05, tmax=6.0)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.0, cfg,
                                 snapshot_times=[0.0, 2.0, 4.0, 6.0])
    ev = tc.build_evaluator(flat3, zero_damping, 0.5,
                            r_max=float(traj.r[-1]) + 1.0, r1=traj.r1,
                            dr=0.05)
    rep = tc.critical_F(traj, ev)
    assert np.all(rep.lhs == 0.0)
    assert np.all(np.isnan(rep.ratio))


def test_critical_F_family_shorter_than_solver_grid(flat3, zero_damping,
                                                    bump_data):
    cfg = ws.SolverConfig(dr=0.05, tmax=3.0)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg,
                                 snapshot_times=[0.0, 1.0, 2.0, 3.0])
    ev = tc.build_evaluator(flat3, zero_damping, 0.5,
                            r_max=float(traj.r[-1]) - 1.0, r1=traj.r1,
                            dr=0.05)
    with pytest.raises(DomainError):
        tc.critical_F(traj, ev)


def test_critical_F_needs_snapshots(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.05, tmax=3.0)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg,
                                 snapshot_times=[1.0])
    ev = tc.build_evaluator(flat3, zero_damping, 0.5,
                            r_max=float(traj.r[-1]) + 1.0, r1=traj.r1,
                            dr=0.05)
    with pytest.raises(ConfigurationError):
        tc.critical_F(traj, ev)


# -- slicing iteration ---------------------------------------------------------------

def _synthetic(Tmax=100.0):
    T = np.linspace(2.0, Tmax, 60)
    return T, np.log(T)


def test_slicing_first_iterate_hand_check():
    T, F = _synthetic()
    cons = tc.SlicingConstants(c_int=1.0, B=0.5, eps=0.7, p=2.0)
    rep = tc.slicing_iteration_check(T, F, cons)
    L = math.log(0.5 * 0.7 ** 2 * math.log(100.0))
    assert rep.L == pytest.approx(L, rel=1e-12)
    assert rep.y[0] == 0.0
    assert rep.y[1] == pytest.approx(L, rel=1e-12)
    assert rep.y[2] == pytest.approx(2.0 * L + L, rel=1e-12)


def test_slicing_closed_form_matches_recursion():
    T, F = _synthetic()
    cons = tc.SlicingConstants(c_int=1.0, B=2.0, eps=0.5, p=1.8)
    rep = tc.slicing_iteration_check(T, F, cons, n_iter=10)
    assert rep.max_iter_rel_err < 1e-2
    assert np.allclose(rep.y, rep.y_closed, rtol=1e-10)


def test_slicing_divergence_threshold_both_sides():
    cons = tc.SlicingConstants(c_int=1.0, B=1.0, eps=0.8, p=2.0)
    amp = cons.B * cons.eps ** (cons.p * (cons.p - 1.0))
    T_star = math.exp(2.0 / amp)
    for fac, expect in ((1.05, True), (0.95, False)):
        Tmax = fac * T_star
        T = np.linspace(2.0, Tmax, 50)
        rep = tc.slicing_iteration_check(T, np.log(T), cons)
        assert rep.conclusive
        assert rep.diverges is expect
        assert rep.threshold_T == pytest.approx(T_star, rel=1e-12)
    # diverging bounds must escalate without limit
    T = np.linspace(2.0, 2.0 * T_star, 50)
    rep = tc.slicing_iteration_check(T, np.log(T), cons, n_iter=30)
    assert rep.diverges
    assert not np.isfinite(rep.bounds[-1]) or rep.bounds[-1] > 1e100


def test_slicing_zero_constants_inconclusive():
    T, F = _synthetic()
    rep = tc.slicing_iteration_check(
        T, F, tc.SlicingConstants(c_int=0.0, B=0.0, eps=0.5, p=2.0))
    assert not rep.conclusive
    assert not rep.diverges


def test_slicing_rejects_bad_input():
    T, F = _synthetic()
    with pytest.raises(DomainError):
        tc.slicing_iteration_check(
            T, np.zeros_like(T),
            tc.SlicingConstants(c_int=1.0, B=1.0, eps=0.5, p=2.0))
    with pytest.raises(ConfigurationError):
        tc.slicing_iteration_check(
            T, F, tc.SlicingConstants(c_int=1.0, B=1.0, eps=0.5, p=0.5))
    with pytest.raises(ConfigurationError):
        tc.slicing_iteration_check(
            T[:2], F[:2], tc.SlicingConstants(c_int=1.0, B=1.0, eps=0.5,
                                              p=2.0))


def test_slicing_measured_constant_positive_on_log_samples():
    T, F = _synthetic()
    rep = tc.slicing_iteration_check(
        T, F, tc.SlicingConstants(c_int=1.0, B=1.0, eps=0.5, p=2.0))
    assert 0.0 < rep.measured_c < math.inf
