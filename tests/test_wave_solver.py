import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aeblow import cli
from aeblow import damping as damping_mod
from aeblow import entire_solutions as es
from aeblow import lifespan
from aeblow import metric as metric_mod
from aeblow import testfn_critical
from aeblow import wave_solver as ws
from aeblow.errors import ConfigurationError, DomainError, IntegrationError


def dalembert_radial(data, t, r):
    """Exact flat n=3 linear solution for bump position data, zero velocity.

    w = r*u solves the 1d wave equation with odd initial profile w0(x) =
    x*u0(|x|), so u(t,r) = (w0(r+t) + w0(r-t)) / (2r).
    """
    w0 = lambda x: x * data.u0(np.abs(x))
    return (w0(r + t) + w0(r - t)) / (2.0 * r)


def linear_cfg(dr, tmax, **kw):
    return ws.SolverConfig(dr=dr, tmax=tmax, nonlinear=False, **kw)


def test_flat_linear_matches_dalembert_second_order(flat3, zero_damping):
    data = ws.DataProfile(r0=1.0, u0_amp=1.0, u1_amp=0.0)
    t_star = 3.0
    errs = []
    for dr in (0.02, 0.01):
        traj = ws.evolve_transformed(flat3, zero_damping, data, 1.0,
                                     linear_cfg(dr, t_star),
                                     snapshot_times=[t_star])
        r = traj.r[1:]
        exact = dalembert_radial(data, t_star, r)
        errs.append(float(np.max(np.abs(traj.snap_u[0][1:] - exact))))
    order = math.log2(errs[0] / errs[1])
    assert errs[1] < 1e-3
    assert order > 1.9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3, 4]), power_law=st.booleans(),
       c=st.floats(-0.4, 0.5), rho=st.floats(0.5, 2.0),
       dr=st.sampled_from([0.05, 0.1]), u0_amp=st.floats(0.0, 2.0),
       u1_amp=st.floats(0.0, 2.0), tmax=st.floats(0.5, 6.0))
def test_shadow_energy_exactly_conserved(n, power_law, c, rho, dr, u0_amp,
                                         u1_amp, tmax):
    # linear, undamped: Verlet conserves its shadow energy to round-off, on
    # every metric, because the stencil is symmetric in the V inner product
    metric = (metric_mod.power_law_profile(n, c, rho) if power_law
              else metric_mod.flat_profile(n))
    state = ws.init(metric, None, ws.DataProfile(1.0, u0_amp, u1_amp), 1.0,
                    linear_cfg(dr, tmax))
    dt = state.disc.dt_max
    e0 = ws.shadow_energy(state, dt)
    for _ in range(int(tmax / dt)):
        state = ws.step(state, dt)
    assert abs(ws.shadow_energy(state, dt) - e0) <= 1e-12 * abs(e0)


def test_continuous_energy_bounded_wobble(flat3, zero_damping, bump_data):
    state = ws.init(flat3, zero_damping, bump_data, 1.0,
                    linear_cfg(0.05, 5.0))
    dt = state.disc.dt_max
    e0 = ws.energy(state)
    drift = 0.0
    for _ in range(int(5.0 / dt)):
        state = ws.step(state, dt)
        drift = max(drift, abs(ws.energy(state) - e0))
    assert drift / e0 < 1e-2           # O(dt^2) wobble, no secular growth


# zero or normal-range amplitudes: subnormal data rounds absolutely, not
# relative to |F|
_AMPLITUDES = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@example(n=3, p=2.0, c=0.0, rho=1.0, u0_amp=1.0, u1_amp=1.0, eps=0.5)
@given(n=st.sampled_from([2, 3, 4]), p=st.floats(1.5, 3.0),
       c=st.one_of(st.just(0.0), st.floats(-0.45, 0.45)),
       rho=st.floats(0.5, 2.0), u0_amp=_AMPLITUDES, u1_amp=_AMPLITUDES,
       eps=st.floats(0.05, 0.6))
def test_second_difference_identity_discrete_exact(n, p, c, rho, u0_amp,
                                                   u1_amp, eps):
    """F(t+dt) - 2F(t) + F(t-dt) = dt^2 msq int|u|^p dv_g to round-off.

    Each record F = sum(u V) and each Verlet update u += dt vh round at
    eps_mach sum(V |u|), and the telescoped sum(V L u) rounds at the same
    order once multiplied by dt^2 <= (dr/2)^2; the second difference weighs
    three F's 1, 2, 1.  So the gap is a few eps_mach (|F-| + 2|F| + |F+|) /
    dt^2 where u >= 0, and sum(V |u|) / |F| times that where u changes sign
    (n = 4 position data).  Measured over 330 random draws of these ranges:
    at most 1.9 (n = 2), 2.4 (n = 3) and 6.4 (n = 4) of that unit; the
    bound is 16.
    """
    prof = (metric_mod.flat_profile(n) if c == 0.0
            else metric_mod.power_law_profile(n, c, rho))
    tmax = 6.0
    # rmax well beyond the light cone so the exponentially small numerical
    # precursor never touches the boundary, where the summed-Laplacian
    # telescoping (and with it the discrete identity) would pick up flux
    cfg = ws.SolverConfig(dr=0.05, tmax=tmax, rmax=tmax / prof.delta0 + 6.0)
    traj = ws.evolve_transformed(prof, None, ws.DataProfile(1.0, u0_amp,
                                                            u1_amp),
                                 eps, cfg, p=p)
    gap, unit = _identity_gap(traj)
    assert np.all(gap <= 16.0 * unit)
    assert traj.fpp.min() >= 0.0


def _identity_gap(traj):
    """|second difference of F - msq int|u|^p dv_g| at every inner step, and
    the unit eps_mach (|F-| + 2|F| + |F+|) / dt^2 it is measured in."""
    F, dt = traj.F, traj.dt
    d2 = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / dt ** 2
    unit = np.finfo(float).eps * (np.abs(F[2:]) + 2.0 * np.abs(F[1:-1])
                                  + np.abs(F[:-2])) / dt ** 2
    return np.abs(d2 - traj.fpp[1:-1]), unit


@pytest.mark.parametrize("n, data, p, eps_grid, dr, tmax_for, k", [
    (3, ws.DataProfile(1.0, 1.0, 1.0), 2.0,
     lifespan.geometric_eps_grid(7.0, 7, ratio=1.3), 0.05,
     lambda e: min(1000.0, 3.5 * 600.0 / e ** 2), 2),
    (2, ws.DataProfile(1.0, 0.0, 1.0), 1.5, lifespan.geometric_eps_grid(8.0, 7),
     0.02, lambda e: 25.0, 0)], ids=["n3-eps4.142", "n2-eps8"])
def test_second_difference_identity_through_blowup(n, data, p, eps_grid, dr,
                                                   tmax_for, k):
    """The identity holds to the same 16 units on whole runs into blow-up,
    grids sized as criterion 6's sweeps size them: the window never
    shrinks, so F sums every cell the run has reached and the stencil at the
    window's end never reads a frozen neighbour (a shrinking window left
    gaps of 278.7 and 4,880.7 units on these two runs)."""
    rmax_all = max((tmax_for(e) + 1.5) / 0.98 + 1.0 for e in eps_grid)
    eps = float(eps_grid[k])
    cfg = ws.SolverConfig(dr=dr, tmax=tmax_for(eps), rmax=rmax_all)
    traj = ws.evolve_transformed(metric_mod.flat_profile(n), None, data, eps,
                                 cfg, p=p)
    assert traj.status == "blowup"
    gap, unit = _identity_gap(traj)
    assert np.all(gap <= 16.0 * unit)


def test_inequalities_use_the_run_dimension(flat2, zero_damping, bump_data):
    # F'' against |F|^p (1+t)^(-n(p-1)) with n = 2, the metric's own
    phi = es.build_entire_solution(flat2, 0.2, 10.0, dr=0.05)
    traj = ws.evolve_transformed(flat2, zero_damping, bump_data, 0.3,
                                 ws.SolverConfig(dr=0.05, tmax=4.0), p=2.5,
                                 phi_sol=phi)
    assert traj.n == 2
    w = traj.t >= 1.0
    want = np.min(traj.fpp[w] / (np.abs(traj.F[w]) ** 2.5
                                 * (1.0 + traj.t[w]) ** (-2 * 1.5)))
    assert ws.check_inequalities(traj).ratio_ff == pytest.approx(want,
                                                                 rel=1e-14)


def test_snapshot_matches_step_landing(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.05, tmax=4.0)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.5, cfg,
                                 snapshot_times=[1.7, 3.0])
    assert list(traj.snap_t) == [1.7, 3.0]
    # the F functional computed from the snapshot agrees with the per-step
    # record interpolated to the same instant
    for k, ts in enumerate(traj.snap_t):
        F_snap = float(traj.snap_u[k] @ traj.V)
        F_rec = float(np.interp(ts, traj.t, traj.F))
        assert F_snap == pytest.approx(F_rec, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("mode", ["transformed", "direct"])
@pytest.mark.parametrize("make_damping", [
    damping_mod.scattering_power_damping,
    damping_mod.signed_oscillatory_damping])
def test_step_agrees_with_evolve_under_damping(flat3, bump_data, make_damping,
                                               mode):
    damping = make_damping(0.5, 2.0)
    cfg = ws.SolverConfig(dr=0.05, tmax=2.0)
    evolve = (ws.evolve_transformed if mode == "transformed"
              else ws.evolve_damped_direct)
    # a snapshot at tmax lands on the last step, so it is the stepped state
    traj = evolve(flat3, damping, bump_data, 0.5, cfg, snapshot_times=[2.0])
    state = ws.init(flat3, damping, bump_data, 0.5, cfg, mode=mode)
    for _ in range(len(traj.t) - 1):
        state = ws.step(state, traj.dt)
    assert state.t == pytest.approx(2.0, abs=1e-9)
    for got, want in ((state.u, traj.snap_u[0]), (state.v, traj.snap_v[0])):
        scale = max(float(np.max(np.abs(want))), 1.0)
        assert np.max(np.abs(got - want)) / scale < 1e-12


@pytest.mark.parametrize("mode", ["transformed", "direct", "damped-direct"])
@pytest.mark.parametrize("u0_amp, u1_amp", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_step_equals_evolve_bit_for_bit(flat3, zero_damping, mode, u0_amp,
                                        u1_amp):
    """step k times and the evolution's state at step k are the same bits:
    both carry the state's one window from init, and each step call seeds
    its own dt/2 a.  damped-direct has b = 1 (bh != 0) up to a table end
    halfway between steps 60 and 61, then 0, so b(t) is the same whether t
    is summed step by step or is m dt."""
    data = ws.DataProfile(1.0, u0_amp, u1_amp)
    cfg = ws.SolverConfig(dr=0.05, tmax=3.0)
    evolve = (ws.evolve_transformed if mode == "transformed"
              else ws.evolve_damped_direct)
    dt = evolve(flat3, zero_damping, data, 3.0, cfg, functionals=False).dt
    damping = zero_damping
    if mode == "damped-direct":
        mode = "direct"
        damping = damping_mod.tabulated_damping([0.0, 60.5 * dt], [1.0, 1.0])
        assert damping.b(60 * dt) == 1.0 and damping.b(61 * dt) == 0.0
    ks = [1, 20, 60, 100, 133]
    # a snapshot at k dt lands on step k exactly, so it is that step's state
    traj = evolve(flat3, damping, data, 3.0, cfg, functionals=False,
                  snapshot_times=[k * dt for k in ks])
    state = ws.init(flat3, damping, data, 3.0, cfg, mode=mode)
    for m in range(1, ks[-1] + 1):
        state = ws.step(state, dt)
        if m in ks:
            i = ks.index(m)
            assert np.array_equal(state.u, traj.snap_u[i])
            assert np.array_equal(state.v, traj.snap_v[i])


def test_direct_equals_transformed_without_damping(flat3, zero_damping,
                                                   bump_data):
    cfg = ws.SolverConfig(dr=0.05, tmax=5.0)
    a = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg)
    b = ws.evolve_damped_direct(flat3, zero_damping, bump_data, 0.3, cfg)
    assert a.dt == b.dt
    # with zero damping both modes run the same steps: bit-equal records
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.sup, b.sup)


def test_pairing_fold_identity(flat3, zero_damping, bump_data):
    phi = es.build_entire_solution(flat3, 0.2, 40.0, dr=0.05)
    cfg = ws.SolverConfig(dr=0.05, tmax=5.0, rmax=40.0)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg,
                                 phi_sol=phi, snapshot_times=[5.0])
    # the first and last records equal <u, phi>_V on the same states, folded
    # with the eigenfunction's own lambda and eta(t) = t without damping
    phiV = np.interp(traj.r, phi.r, phi.phi) * traj.V
    state = ws.init(flat3, zero_damping, bump_data, 0.3, cfg)
    assert traj.H[0] == pytest.approx(float(state.u @ phiV), rel=1e-12)
    assert traj.H[0] > 0
    # exp(-0.2 * 5) scales the pairing at t = 5
    unscaled = float(traj.snap_u[-1] @ phiV)
    assert traj.H[-1] == pytest.approx(math.exp(-1.0) * unscaled, rel=1e-12)
    assert traj.H[-1] == pytest.approx(0.372, abs=5e-4)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(power_law=st.booleans(),
       make_damping=st.sampled_from([
           damping_mod.scattering_power_damping,
           damping_mod.signed_oscillatory_damping]),
       mode=st.sampled_from(["transformed", "direct"]),
       mu=st.floats(0.2, 1.0), beta=st.floats(1.5, 2.5),
       lam=st.floats(0.1, 0.6), eps=st.floats(0.05, 0.5),
       tmax=st.floats(1.0, 4.0))
def test_pairing_fold_identity_under_damping(flat3, powerlaw3, power_law,
                                             make_damping, mode, mu, beta,
                                             lam, eps, tmax):
    """H = exp(-lam eta) <u, phi>_V at the first and the last step, with eta
    the run's own physical time, whatever the damping does to it."""
    prof = powerlaw3 if power_law else flat3
    damping = make_damping(mu, beta)
    data = ws.DataProfile(1.0, 1.0, 1.0)
    cfg = ws.SolverConfig(dr=0.05, tmax=tmax)
    state = ws.init(prof, damping, data, eps, cfg, mode=mode)
    phi = es.build_entire_solution(prof, lam, float(state.disc.r[-1]) + 1.0,
                                   dr=0.05)
    evolve = (ws.evolve_transformed if mode == "transformed"
              else ws.evolve_damped_direct)
    traj = evolve(prof, damping, data, eps, cfg, phi_sol=phi,
                  snapshot_times=[tmax])
    assert traj.status == "completed"
    phiV = np.interp(traj.r, phi.r, phi.phi) * traj.V
    for H, eta, u in ((traj.H[0], traj.eta[0], state.u),
                      (traj.H[-1], traj.eta[-1], traj.snap_u[-1])):
        assert H == pytest.approx(math.exp(-lam * eta) * float(u @ phiV),
                                  rel=1e-12)


def test_eigenfunction_grid_must_cover_solver_grid(flat3, zero_damping,
                                                   bump_data):
    phi = es.build_entire_solution(flat3, 0.2, 10.0, dr=0.05)
    cfg = ws.SolverConfig(dr=0.05, tmax=5.0, rmax=40.0)
    with pytest.raises(DomainError, match="outside the eigenfunction grid"):
        ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg,
                              phi_sol=phi)


def test_pairing_plateau_linear_run(flat3, zero_damping, bump_data):
    # for the linear equation H(t) is bounded below by a positive constant
    phi = es.build_entire_solution(flat3, 0.2, 60.0, dr=0.05)
    cfg = linear_cfg(0.05, 20.0, rmax=60.0)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg,
                                 phi_sol=phi)
    floor = 0.5 * (traj.H[0] + 0.0)    # cosh lower bound with G'(0) >= 0
    assert np.min(traj.H) > 0.9 * floor


def test_support_report_consistency(flat3, zero_damping, bump_data):
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3,
                                 ws.SolverConfig(dr=0.05, tmax=4.0))
    rep = ws.check_support_trajectory(traj)
    assert rep.tol > 0
    assert rep.passed == (rep.slack >= -rep.tol)
    assert np.isfinite(rep.budget) and np.isfinite(rep.slack)
    assert traj.edge_r[0] <= bump_data.r0 + 2 * 0.05    # t=0 data inside r0


def test_blowup_detection_and_status(flat3, zero_damping, bump_data):
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 7.0,
                                 ws.SolverConfig(dr=0.05, tmax=60.0,
                                                 sup_cap=1e8))
    assert traj.status == "blowup"
    assert traj.t[-1] < 60.0
    assert traj.sup[-1] >= 1e8


def test_cfl_violation_rejected(flat3, zero_damping, bump_data):
    state = ws.init(flat3, zero_damping, bump_data, 0.3,
                    ws.SolverConfig(dr=0.05, tmax=1.0))
    with pytest.raises(ConfigurationError):
        ws.step(state, 10.0 * state.disc.dt_max)


def test_nonfinite_step_is_integration_error(flat3, zero_damping, bump_data):
    state = ws.init(flat3, zero_damping, bump_data, 0.3,
                    ws.SolverConfig(dr=0.05, tmax=1.0))
    state.u[3] = np.nan
    with pytest.raises(IntegrationError):
        ws.step(state, state.disc.dt_max)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ws.SolverConfig(dr=-0.1, tmax=1.0)
    with pytest.raises(ConfigurationError):
        ws.SolverConfig(dr=0.1, tmax=1.0, cfl=0.9)
    with pytest.raises(ConfigurationError):
        ws.SolverConfig(dr=0.1, tmax=-1.0)
    with pytest.raises(ConfigurationError):
        ws.DataProfile(r0=-1.0)
    with pytest.raises(ConfigurationError):
        ws.DataProfile(r0=1.0, u0_amp=-0.5)


def test_rmax_too_small_rejected(flat3, zero_damping, bump_data):
    with pytest.raises(ConfigurationError):
        ws.init(flat3, zero_damping, bump_data, 0.3,
                ws.SolverConfig(dr=0.05, tmax=50.0, rmax=5.0))


@pytest.mark.parametrize("kw, message", [
    (dict(mode="bogus"), "unknown solver mode 'bogus'"),
    (dict(p=1.0), "p must exceed 1")])
def test_init_rejects_bad_mode_and_power(kw, message, flat3, zero_damping,
                                         bump_data):
    with pytest.raises(ConfigurationError, match=message):
        ws.init(flat3, zero_damping, bump_data, 0.3,
                ws.SolverConfig(dr=0.05, tmax=1.0), **kw)


def test_inequalities_need_a_window_past_t_one(flat3, bump_data):
    # the window is t >= 1; a run that ends at t = 0.5 has none of it
    phi = es.build_entire_solution(flat3, 0.2, 10.0, dr=0.05)
    traj = ws.evolve_transformed(flat3, None, bump_data, 0.3,
                                 ws.SolverConfig(dr=0.05, tmax=0.5),
                                 phi_sol=phi)
    with pytest.raises(DomainError, match="too short"):
        ws.check_inequalities(traj)


def test_records_off_contract(flat3, zero_damping, bump_data, monkeypatch,
                              tmp_path):
    """The evolutions whose callers read only sup and the snapshots record no
    F or int|u|^p, and a reader that needs them gets a clear error."""
    seen = []

    def spy(evolve):
        def wrapped(*args, **kw):
            seen.append(evolve(*args, **kw))
            return seen[-1]
        return wrapped

    monkeypatch.setattr(lifespan, "evolve_transformed",
                        spy(ws.evolve_transformed))
    # critical evolves in a worker: take the trajectory it sent back
    critical_F = testfn_critical.critical_F

    def received(traj, ev):
        seen.append(traj)
        return critical_F(traj, ev)

    monkeypatch.setattr(testfn_critical, "critical_F", received)
    lifespan.detect_blowup(flat3, zero_damping, bump_data, 3.0, 2.0,
                           ws.SolverConfig(dr=0.1, tmax=3.0))
    assert cli.main(["critical", "--set", "run.t_max=8",
                     "--set", "solver.dr=0.1",
                     "--out", str(tmp_path / "crit.json")]) == 0
    solve = ["solve", "--set", "run.eps=0.3", "--set", "run.p=2",
             "--set", "solver.tmax=2", "--set", "solver.dr=0.1",
             "--out", str(tmp_path / "solve.json")]
    assert cli.main(solve) == 0
    assert cli.main(solve + ["--csv", str(tmp_path / "solve.csv")]) == 0
    assert len(seen) == 4
    for traj in seen[:3]:
        assert traj.F is None and traj.int_up is None and traj.fpp is None
    with pytest.raises(ConfigurationError, match="functionals=True"):
        ws.check_inequalities(seen[0])
    # --csv, whose rows carry F and Fpp, records them
    assert seen[3].F is not None and seen[3].fpp is not None
    assert np.array_equal(seen[3].sup, seen[2].sup)


def test_pairing_exactly_zero_without_test_function(flat3, zero_damping,
                                                    bump_data):
    # no eigenfunction, no pairing: H is None, and the report that reads it
    # says so instead of measuring zeros
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3,
                                 ws.SolverConfig(dr=0.1, tmax=2.0))
    assert traj.H is None
    with pytest.raises(ConfigurationError, match="phi_sol"):
        ws.check_inequalities(traj)


def test_inequality_report_requires_transformed(flat3, scat_damping,
                                                bump_data):
    traj = ws.evolve_damped_direct(flat3, scat_damping, bump_data, 0.3,
                                   ws.SolverConfig(dr=0.05, tmax=3.0))
    with pytest.raises(ConfigurationError):
        ws.check_inequalities(traj)
