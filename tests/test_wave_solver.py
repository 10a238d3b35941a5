import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeblow import damping as damping_mod
from aeblow import entire_solutions as es
from aeblow import metric as metric_mod
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


def test_second_difference_identity_discrete_exact(flat3, zero_damping,
                                                   bump_data):
    # rmax well beyond the light cone so the exponentially small numerical
    # precursor never touches the boundary, where the summed-Laplacian
    # telescoping (and with it the discrete identity) would pick up flux
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.5,
                                 ws.SolverConfig(dr=0.05, tmax=6.0, rmax=12.0))
    rep = ws.check_inequalities(traj)
    assert rep.fpp_identity_err < 1e-9
    assert rep.fpp_min >= 0.0


def test_inequalities_use_the_run_dimension(flat2, zero_damping, bump_data):
    # F'' against |F|^p (1+t)^(-n(p-1)) with n = 2, the metric's own
    traj = ws.evolve_transformed(flat2, zero_damping, bump_data, 0.3,
                                 ws.SolverConfig(dr=0.05, tmax=4.0), p=2.5)
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


def test_direct_equals_transformed_without_damping(flat3, zero_damping,
                                                   bump_data):
    cfg = ws.SolverConfig(dr=0.05, tmax=5.0)
    a = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg)
    b = ws.evolve_damped_direct(flat3, zero_damping, bump_data, 0.3, cfg)
    assert a.dt == b.dt
    assert np.max(np.abs(a.F - b.F)) < 1e-10
    assert np.max(np.abs(a.sup - b.sup)) < 1e-10


def test_pairing_fold_identity(flat3, zero_damping, bump_data):
    phi = es.build_entire_solution(flat3, 0.2, 40.0, dr=0.05)
    cfg = ws.SolverConfig(dr=0.05, tmax=5.0, rmax=40.0)
    traj = ws.evolve_transformed(flat3, zero_damping, bump_data, 0.3, cfg,
                                 phi_sol=phi, snapshot_times=[5.0])
    # the first and last records equal the functional on the same states,
    # folded with the eigenfunction's own lambda
    state = ws.init(flat3, zero_damping, bump_data, 0.3, cfg)
    assert traj.H[0] == pytest.approx(ws.functional_H(state, phi), rel=1e-12)
    assert traj.H[0] > 0
    end = replace(state, t=5.0, u=traj.snap_u[-1])
    assert traj.H[-1] == pytest.approx(ws.functional_H(end, phi), rel=1e-12)
    # eta(5) = 5 without damping: exp(-0.2 * 5) scales the pairing
    unscaled = float(traj.snap_u[-1] @ (np.interp(traj.r, phi.r, phi.phi)
                                        * traj.V))
    assert traj.H[-1] == pytest.approx(math.exp(-1.0) * unscaled, rel=1e-12)
    assert traj.H[-1] == pytest.approx(0.372, abs=5e-4)


def test_eigenfunction_grid_must_cover_solver_grid(flat3, zero_damping,
                                                   bump_data):
    phi = es.build_entire_solution(flat3, 0.2, 10.0, dr=0.05)
    cfg = ws.SolverConfig(dr=0.05, tmax=5.0, rmax=40.0)
    with pytest.raises(DomainError, match="does not cover"):
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


def test_inequality_report_requires_transformed(flat3, scat_damping,
                                                bump_data):
    traj = ws.evolve_damped_direct(flat3, scat_damping, bump_data, 0.3,
                                   ws.SolverConfig(dr=0.05, tmax=3.0))
    with pytest.raises(ConfigurationError):
        ws.check_inequalities(traj)
