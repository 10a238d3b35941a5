import numpy as np
from hypothesis import given, settings, strategies as st

from aeblow import _kernels, metric, wave_solver as ws


def _setup():
    flat3 = metric.flat_profile(3)
    data = ws.DataProfile(1.0, 1.0, 1.0)
    state = ws.init(flat3, None, data, 0.4, ws.SolverConfig(dr=0.05, tmax=4.0))
    disc = state.disc
    dt = disc.dt_max
    nsteps = 200
    tgrid = np.arange(nsteps + 1) * dt
    msq = np.ones(nsteps + 1)
    bh = np.zeros(nsteps + 1)
    phiV = np.exp(-disc.r) * disc.V
    esc = np.exp(-0.2 * tgrid)
    return state, disc, dt, nsteps, msq, bh, phiV, esc


def _run(kern, state, disc, dt, nsteps, msq, bh, phiV, esc):
    u = state.u.copy()
    v = state.v.copy()
    a = state.a.copy()
    rec = [np.zeros(nsteps + 1) for _ in range(4)]
    rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
    m, status, edge = kern(u, v, a, disc.A, disc.B, disc.C, disc.V, phiV,
                           esc, msq, bh, dt, disc.p, 1 if disc.config.nonlinear
                           else 0, 0, nsteps, 1e12, *rec, rec_edge,
                           ws._support_edge(state.u, state.v))
    return u, v, a, rec, rec_edge, m, status, edge


def _assert_same_run(got, want):
    """Same stop step, status and edges; fields and records to round-off."""
    ug, vg, ag, recg, edgeg, mg, sg, eg = got
    uw, vw, aw, recw, edgew, mw, sw, ew = want
    assert (mg, sg, eg) == (mw, sw, ew)
    assert np.max(np.abs(ug - uw)) < 1e-12
    assert np.max(np.abs(vg - vw)) < 1e-12
    for rg, rw in zip(recg, recw):
        scale = max(float(np.max(np.abs(rw))), 1.0)
        assert np.max(np.abs(rg - rw)) / scale < 1e-12
    assert np.array_equal(edgeg, edgew)


def test_nan_cell_stops_with_nonfinite_status():
    args = _setup()
    state = args[0]
    state.u[3] = np.nan
    *_, rec, _, m, status, _ = _run(_kernels.advance_segment, *args)
    assert (m, status) == (1, 2)
    assert np.isnan(rec[0][1])


def test_segmented_run_equals_single_run():
    args = _setup()
    state, disc, dt, nsteps, msq, bh, phiV, esc = args
    u1, v1, a1, rec1, e1, *_ = _run(_kernels.advance_segment, *args)
    # same evolution split into two kernel calls
    u = state.u.copy()
    v = state.v.copy()
    a = state.a.copy()
    rec = [np.zeros(nsteps + 1) for _ in range(4)]
    rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
    kern = _kernels.advance_segment
    common = (disc.A, disc.B, disc.C, disc.V, phiV, esc, msq, bh, dt, disc.p, 1)
    m, status, edge = kern(u, v, a, *common, 0, 120, 1e12, *rec, rec_edge,
                           ws._support_edge(state.u, state.v))
    m, status, edge = kern(u, v, a, *common, m, nsteps - m, 1e12, *rec,
                           rec_edge, edge)
    assert np.array_equal(u, u1)
    for r, r1 in zip(rec, rec1):
        assert np.array_equal(r, r1)


def _full_grid(u, v, a, A, B, C, V, phiV, esc, msq, bh, dt, p, nonlin,
               m0, nsteps, sup_cap, rec_sup, rec_F, rec_Ip, rec_G,
               rec_edge, edge):
    """Reference without a window: every cell but the Dirichlet one, each step."""
    N = len(u) - 1
    lap = np.zeros_like(u)
    for m in range(m0 + 1, m0 + nsteps + 1):
        vh = v + 0.5 * dt * a
        u[:N] += dt * vh[:N]
        lap[0] = A[0] * (u[1] - u[0])
        lap[1:N] = A[1:N] * u[2:] + B[1:N] * u[1:N] + C[1:N] * u[:N - 1]
        absu = np.abs(u)
        f = msq[m] * (lap + absu ** p) if nonlin else msq[m] * lap
        v[:N] = ((vh + 0.5 * dt * f) / (1.0 + bh[m]))[:N]
        a[:N] = (f - (2.0 * bh[m] / dt) * v)[:N]
        sup = absu.max()
        nz = np.flatnonzero(absu > 1e-12 * sup)
        edge = rec_edge[m] = nz[-1] if len(nz) else 0
        rec_sup[m], rec_F[m] = sup, u @ V
        rec_Ip[m], rec_G[m] = absu ** p @ V, u @ (phiV * esc[m])
        if not np.isfinite(sup) or sup > sup_cap:
            return m, 2 if not np.isfinite(sup) else 1, edge
    return m0 + nsteps, 0, edge


@settings(max_examples=40, deadline=None, derandomize=True)
@given(u0_amp=st.floats(0.0, 2.0), u1_amp=st.floats(0.0, 2.0),
       b=st.floats(0.0, 3.0), nonlinear=st.booleans(), p=st.floats(1.5, 3.0),
       nsteps=st.integers(1, 200), split=st.floats(0.0, 1.0))
def test_windowed_equals_full_grid(u0_amp, u1_amp, b, nonlinear, p,
                                   nsteps, split):
    cfg = ws.SolverConfig(dr=0.05, tmax=4.5, nonlinear=nonlinear)
    state = ws.init(metric.flat_profile(3), None,
                    ws.DataProfile(1.0, u0_amp, u1_amp), 1.0, cfg, p=p,
                    mode="direct")
    disc = state.disc
    dt = disc.dt_max
    tgrid = np.arange(nsteps + 1) * dt
    msq = np.ones(nsteps + 1)
    bh = 0.5 * dt * b / (1.0 + tgrid)
    phiV = np.exp(-disc.r) * disc.V
    esc = np.exp(-0.2 * tgrid)
    want = _run(_full_grid, state, disc, dt, nsteps, msq, bh, phiV, esc)
    # the windowed run is split into two kernel calls at a drawn step
    u, v, a = state.u.copy(), state.v.copy(), state.a.copy()
    rec = [np.zeros(nsteps + 1) for _ in range(4)]
    rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
    common = (disc.A, disc.B, disc.C, disc.V, phiV, esc, msq, bh, dt, p,
              int(nonlinear))
    m, status, edge = 0, 0, ws._support_edge(state.u, state.v)
    for stop in (int(split * nsteps), nsteps):
        if status == 0 and stop > m:
            m, status, edge = _kernels.advance_segment(
                u, v, a, *common, m, stop - m, 1e12, *rec, rec_edge, edge)
    _assert_same_run((u, v, a, rec, rec_edge, m, status, edge), want)
