import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aeblow import _kernels, metric, wave_solver as ws


def _setup():
    flat3 = metric.flat_profile(3)
    data = ws.DataProfile(1.0, 1.0, 1.0)
    state = ws.init(flat3, None, data, 0.4, ws.SolverConfig(dr=0.05, tmax=4.0))
    disc = state.disc
    dt = disc.dt_max
    nsteps = 200
    msq = np.ones(nsteps + 1)
    bh = np.zeros(nsteps + 1)
    phiV = np.exp(-disc.r) * disc.V
    return state, disc, dt, nsteps, msq, bh, phiV


def _run(kern, state, disc, dt, nsteps, msq, bh, phiV):
    u = state.u.copy()
    v = state.v.copy()
    a = state.a.copy()
    rec = [np.zeros(nsteps + 1) for _ in range(4)]
    rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
    m, status, edge = kern(u, v, a, disc.A, disc.B, disc.C, disc.V, phiV,
                           msq, bh, dt, disc.p, 1 if disc.config.nonlinear
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


@pytest.mark.parametrize("x", [[0.0, 0.0], [1.0, 1e-13, 0.0],
                               [0.0, 2.0, 3e-12, 0.0], [1.0, np.nan, 0.0, 0.0],
                               [np.inf, 1.0, 0.0], [np.inf, 0.0, np.inf, 0.0]])
def test_one_edge_rule_for_kernel_and_first_window(x):
    # the last cell not <= 1e-12 sup (so NaN is live), else 0
    x = np.array(x)
    nz = np.flatnonzero(~(x <= _kernels._EDGE_REL * np.max(x)))
    want = int(nz[-1]) if len(nz) else 0
    assert _kernels._last_live(x, np.max(x)) == want
    assert ws._support_edge(x, np.zeros_like(x)) == want
    assert ws._support_edge(np.zeros_like(x), -x) == want


def _full_grid(u, v, a, A, B, C, V, phiV, msq, bh, dt, p, nonlin,
               m0, nsteps, sup_cap, rec_sup, rec_F, rec_Ip, rec_G,
               rec_edge, edge):
    """Reference without a window: every cell but the Dirichlet one, each step;
    returns the largest edge reached, like the kernel."""
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
        rec_edge[m] = nz[-1] if len(nz) else 0
        edge = max(edge, rec_edge[m])
        rec_sup[m], rec_F[m] = sup, u @ V
        rec_Ip[m], rec_G[m] = absu ** p @ V, u @ phiV
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
    want = _run(_full_grid, state, disc, dt, nsteps, msq, bh, phiV)
    # the windowed run is split into two kernel calls at a drawn step
    u, v, a = state.u.copy(), state.v.copy(), state.a.copy()
    rec = [np.zeros(nsteps + 1) for _ in range(4)]
    rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
    common = (disc.A, disc.B, disc.C, disc.V, phiV, msq, bh, dt, p,
              int(nonlinear))
    m, status, edge = 0, 0, ws._support_edge(state.u, state.v)
    for stop in (int(split * nsteps), nsteps):
        if status == 0 and stop > m:
            m, status, edge = _kernels.advance_segment(
                u, v, a, *common, m, stop - m, 1e12, *rec, rec_edge, edge)
    _assert_same_run((u, v, a, rec, rec_edge, m, status, edge), want)


def _plain_kernel(u, v, a, A, B, C, V, phiV, msq, bh, dt, p, nonlin,
                  m0, nsteps, sup_cap, rec_sup, rec_F, rec_Ip, rec_G,
                  rec_edge, edge, *, undamped_a_is_f=True):
    """The windowed kernel written as one plain numpy expression per formula,
    every record taken: advance_segment must match it bit for bit.  The
    window covers the largest edge reached so far, so it never shrinks.

    A step with bh == 0 sets a = f, which is f - (2 bh/dt) v except where v
    overflowed (0 * inf is NaN); undamped_a_is_f=False takes the damped
    formula on every step instead."""
    N = u.shape[0] - 1
    half = 0.5 * dt
    lap = np.empty_like(u)
    for step in range(nsteps):
        m = m0 + step + 1
        n = min(edge + _kernels._EDGE_PAD, N - 1) + 1
        uw, vw, aw, lw = u[:n], v[:n], a[:n], lap[:n]
        c1 = msq[m]
        b1 = bh[m]
        vh = vw + half * aw
        uw += dt * vh
        lap[0] = A[0] * (u[1] - u[0])
        lap[1:n] = A[1:n] * u[2:n + 1] + B[1:n] * u[1:n] + C[1:n] * u[:n - 1]
        absu = np.abs(uw)
        upow = absu ** p
        f = c1 * (lw + upow) if nonlin else c1 * lw
        vw[:] = (vh + half * f) / (1.0 + b1)
        if b1 == 0.0 and undamped_a_is_f:
            aw[:] = f
        else:
            aw[:] = f - (2.0 * b1 / dt) * vw
        sup = float(np.max(absu))
        nz = np.flatnonzero(~(absu <= _kernels._EDGE_REL * sup))
        rec_edge[m] = int(nz[-1]) if len(nz) else 0
        edge = max(edge, int(rec_edge[m]))
        rec_sup[m] = sup
        rec_F[m] = float(uw @ V[:n])
        rec_Ip[m] = float(upow @ V[:n])
        rec_G[m] = float(uw @ phiV[:n])
        if not np.isfinite(sup):
            return m, 2, edge
        if sup > sup_cap:
            return m, 1, edge
    return m0 + nsteps, 0, edge


def _steps(fracs, nsteps):
    """The step range [lo, hi) between two drawn fractions of the run."""
    lo, hi = sorted(int(x * (nsteps + 1)) for x in fracs)
    return slice(lo, hi)


_NO_STEPS = (0.0, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(n=3, p=3.0, nonlinear=True, b=0.0, eps=10.0, u0_amp=1.0, u1_amp=1.0,
         nsteps=250, cap=1e12, splits=[0.02], records=(True, True, True),
         unit_msq=_NO_STEPS, zero_bh=_NO_STEPS, seed_pad=0, nan_back=None)
@example(n=3, p=2.0, nonlinear=True, b=1.0, eps=20.0, u0_amp=1.0, u1_amp=1.0,
         nsteps=250, cap=math.inf, splits=[0.02], records=(False, True, False),
         unit_msq=_NO_STEPS, zero_bh=_NO_STEPS, seed_pad=0, nan_back=None)
# undamped overflow: f overflows a step before u does, v is inf, and a = f
# keeps inf where the damped formula's 0 * inf gave NaN
@example(n=2, p=3.0, nonlinear=True, b=0.0, eps=6.0, u0_amp=1.0, u1_amp=1.0,
         nsteps=22, cap=math.inf, splits=[], records=(True, True, True),
         unit_msq=_NO_STEPS, zero_bh=_NO_STEPS, seed_pad=0, nan_back=None)
# a window seeded 60 cells past the support: the step's own edge lies more
# than _EDGE_TAIL cells behind the window's end, so the whole window is
# searched
@example(n=3, p=2.0, nonlinear=True, b=0.0, eps=1.0, u0_amp=1.0, u1_amp=1.0,
         nsteps=40, cap=1e12, splits=[], records=(True, True, True),
         unit_msq=_NO_STEPS, zero_bh=_NO_STEPS, seed_pad=60, nan_back=None)
# a NaN cell inside that window's tail, and one before it
@example(n=3, p=2.0, nonlinear=True, b=1.0, eps=1.0, u0_amp=1.0, u1_amp=1.0,
         nsteps=40, cap=1e12, splits=[], records=(True, True, True),
         unit_msq=_NO_STEPS, zero_bh=_NO_STEPS, seed_pad=60, nan_back=3)
@example(n=3, p=2.0, nonlinear=True, b=1.0, eps=1.0, u0_amp=1.0, u1_amp=1.0,
         nsteps=40, cap=1e12, splits=[], records=(True, True, True),
         unit_msq=_NO_STEPS, zero_bh=_NO_STEPS, seed_pad=60, nan_back=40)
# damped, undamped, damped in one segment: the carried dt/2 a crosses both
# branches
@example(n=3, p=2.5, nonlinear=True, b=1.0, eps=5.0, u0_amp=1.0, u1_amp=1.0,
         nsteps=200, cap=1e12, splits=[], records=(True, True, True),
         unit_msq=(0.5, 0.7), zero_bh=(0.3, 0.6), seed_pad=0, nan_back=None)
@given(n=st.sampled_from([2, 3, 4]),
       p=st.one_of(st.just(2.0), st.just(3.0), st.floats(1.1, 3.5)),
       nonlinear=st.booleans(), b=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       eps=st.floats(0.1, 30.0), u0_amp=st.floats(0.0, 1.0),
       u1_amp=st.floats(0.0, 1.0), nsteps=st.integers(1, 250),
       cap=st.sampled_from([1e12, math.inf]),
       splits=st.lists(st.floats(0.0, 1.0), max_size=3),
       records=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       unit_msq=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       zero_bh=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       seed_pad=st.one_of(st.just(0), st.integers(1, 120)),
       # only the examples place a NaN: such a run stops at its first step
       nan_back=st.none())
def test_kernel_bit_exact_against_plain_expressions(n, p, nonlinear, b, eps,
                                                    u0_amp, u1_amp, nsteps,
                                                    cap, splits, records,
                                                    unit_msq, zero_bh,
                                                    seed_pad, nan_back):
    """Any p (the p == 2 square included), damping, segment splits and
    records on or off: fields, records, edges and status equal the plain
    expressions bit for bit, through blow-up (cap) and overflow (no cap).
    msq is exactly 1 and bh exactly 0 on drawn step ranges, so the skipped
    passes and the switches to and from them run inside one segment.  The
    window's seed edge lies seed_pad cells past the data's support, and a
    NaN cell, unless nan_back is None, nan_back cells before the first
    window's last cell."""
    cfg = ws.SolverConfig(dr=0.05, tmax=3.0, nonlinear=nonlinear)
    state = ws.init(metric.flat_profile(n), None,
                    ws.DataProfile(1.0, u0_amp, u1_amp), eps, cfg, p=p,
                    mode="direct")
    disc = state.disc
    dt = disc.dt_max
    tgrid = np.arange(nsteps + 1) * dt
    msq = 1.0 + 0.5 * np.sin(tgrid)
    bh = 0.5 * dt * b / (1.0 + tgrid)
    msq[_steps(unit_msq, nsteps)] = 1.0
    bh[_steps(zero_bh, nsteps)] = 0.0
    phiV = np.exp(-disc.r) * disc.V
    common = (disc.A, disc.B, disc.C, disc.V, phiV, msq, bh, dt, p,
              int(nonlinear))
    edge0 = ws._support_edge(state.u, state.v) + seed_pad
    if nan_back is not None:
        state.u[max(min(edge0 + _kernels._EDGE_PAD, disc.N - 1) - nan_back,
                    0)] = np.nan

    def plain(**kw):
        u, v, a = state.u.copy(), state.v.copy(), state.a.copy()
        recs = [np.zeros(nsteps + 1) for _ in range(4)]
        rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
        with np.errstate(all="ignore"):   # overflow past an infinite cap
            end = _plain_kernel(u, v, a, *common, 0, nsteps, cap, *recs,
                                rec_edge, edge0, **kw)
        return end, (u, v, a), recs, rec_edge

    want_end, want_fields, want, want_edge = plain()

    # the same run in segments split at the drawn steps, records as drawn
    u, v, a = state.u.copy(), state.v.copy(), state.a.copy()
    got = [np.zeros(nsteps + 1)] + [np.zeros(nsteps + 1) if on else None
                                    for on in records]
    got_edge = np.zeros(nsteps + 1, dtype=np.int64)
    m, status, edge = 0, 0, edge0
    for stop in sorted(int(x * nsteps) for x in splits) + [nsteps]:
        if status == 0 and stop > m:
            with np.errstate(all="ignore"):
                m, status, edge = _kernels.advance_segment(
                    u, v, a, *common, m, stop - m, cap, *got, got_edge, edge)
    assert (m, status, edge) == want_end
    for g, w in zip((u, v, a), want_fields):
        assert np.array_equal(g, w, equal_nan=True)
    assert np.array_equal(got_edge, want_edge)
    for g, w in zip(got, want):
        if g is not None:
            assert np.array_equal(g, w, equal_nan=True)
    if status == 2:
        # a = f on undamped steps moves no stop step, status or finite cell
        old_end, old_fields, *_ = plain(undamped_a_is_f=False)
        assert old_end[:2] == (m, status)
        for g, w in zip((u, v, a), old_fields):
            assert np.array_equal(np.isfinite(g), np.isfinite(w))
