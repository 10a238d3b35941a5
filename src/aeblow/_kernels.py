"""Time-stepping kernels for the radial wave solver.

Two interchangeable implementations of one velocity-Verlet segment advance:
a scalar loop (numba @njit when available) and a numpy one that runs it as
slices.  Selection is made once, at import time: the numba loop is used when
AEBLOW_NUMBA is unset or truthy and numba imports.  The numpy path is used when
AEBLOW_NUMBA is "0", "false", "off", "no" or empty, or when numba does not
import; the latter fallback is silent (NUMBA_ENABLED then reads False).
wave_solver.step and the full evolutions both go through advance_segment.

State per node: u, v = du/dt, a = d2u/dt2.  One step m -> m+1:

    vh = v + dt/2 a
    u  = u + dt vh
    f  = msq[m+1] (L u + nl |u|^p)          L = radial divergence-form stencil
    v  = (vh + dt/2 f) / (1 + bh[m+1])      bh = b(t) dt / 2 (semi-implicit)
    a  = f - (2 bh[m+1]/dt) v

which is plain Stoermer-Verlet when b = 0.  Both kernels update only cells
0..min(edge + _EDGE_PAD, N - 1), edge being the last cell with |u| above
_EDGE_REL sup|u| after the previous step, so the window follows the light
cone and cells beyond it keep their values.  On the window they also sum the
per-step scalars (sup|u|, integral of u, of |u|^p, of u*phi*esc with the
caller-supplied per-step scale esc) and find the new edge.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["advance_segment", "advance_segment_numba", "advance_segment_numpy",
           "NUMBA_ENABLED"]

_EDGE_REL = 1e-12   # "numerically zero" support threshold, relative to sup|u|
_EDGE_PAD = 8       # extra active cells beyond the measured support edge


def _advance_py(u, v, a, A, B, C, V, phiV, esc, msq, bh, dt, p, nonlin,
                m0, nsteps, sup_cap, rec_sup, rec_F, rec_Ip, rec_G,
                rec_edge, edge):
    """Advance nsteps; record scalars at global indices m0+1..; return status.

    status: 0 completed, 1 sup cap exceeded (blow-up), 2 non-finite values.
    """
    N = u.shape[0] - 1
    half = 0.5 * dt
    status = 0
    m_done = m0
    for step in range(nsteps):
        m = m0 + step + 1
        nact = edge + _EDGE_PAD
        if nact > N - 1:
            nact = N - 1
        c1 = msq[m]
        b1 = bh[m]
        em = esc[m]
        for i in range(nact + 1):
            vh = v[i] + half * a[i]
            a[i] = vh                      # a reused as vh scratch
            u[i] = u[i] + dt * vh
        sup = 0.0
        Fs = 0.0
        Ips = 0.0
        Gs = 0.0
        for i in range(nact + 1):
            if i == 0:
                lap = A[0] * (u[1] - u[0])
            else:
                lap = A[i] * u[i + 1] + B[i] * u[i] + C[i] * u[i - 1]
            ui = u[i]
            absu = abs(ui)
            src = absu ** p if nonlin else 0.0
            f = c1 * (lap + src)
            vn = (a[i] + half * f) / (1.0 + b1)
            v[i] = vn
            a[i] = f - (2.0 * b1 / dt) * vn
            if absu > sup or absu != absu:    # a NaN cell makes sup NaN
                sup = absu
            Fs += ui * V[i]
            Ips += absu ** p * V[i]
            Gs += ui * (phiV[i] * em)
        thr = _EDGE_REL * sup
        e = nact
        while e > 0 and abs(u[e]) <= thr:
            e -= 1
        edge = e
        rec_sup[m] = sup
        rec_F[m] = Fs
        rec_Ip[m] = Ips
        rec_G[m] = Gs
        rec_edge[m] = edge
        m_done = m
        if not np.isfinite(sup):
            status = 2
            break
        if sup > sup_cap:
            status = 1
            break
    return m_done, status, edge


def advance_segment_numpy(u, v, a, A, B, C, V, phiV, esc, msq, bh, dt, p, nonlin,
                          m0, nsteps, sup_cap, rec_sup, rec_F, rec_Ip, rec_G,
                          rec_edge, edge):
    """Vectorized _advance_py: the same window and formulas, one slice a step."""
    N = u.shape[0] - 1
    half = 0.5 * dt
    lap = np.empty_like(u)
    for step in range(nsteps):
        m = m0 + step + 1
        n = min(edge + _EDGE_PAD, N - 1) + 1          # active cells 0..n-1
        uw, vw, aw, lw = u[:n], v[:n], a[:n], lap[:n]
        c1 = msq[m]
        b1 = bh[m]
        vh = vw + half * aw
        uw += dt * vh
        lw[0] = A[0] * (u[1] - u[0])
        lw[1:] = A[1:n] * u[2:n + 1] + B[1:n] * uw[1:] + C[1:n] * uw[:-1]
        absu = np.abs(uw)
        upow = absu ** p
        f = c1 * (lw + upow) if nonlin else c1 * lw
        vw[:] = (vh + half * f) / (1.0 + b1)
        aw[:] = f - (2.0 * b1 / dt) * vw
        sup = float(np.max(absu))
        # "not <=" keeps NaN cells live, as the scalar loop's edge search does
        nz = np.flatnonzero(~(absu <= _EDGE_REL * sup))
        edge = int(nz[-1]) if len(nz) else 0
        rec_sup[m] = sup
        rec_F[m] = float(uw @ V[:n])
        rec_Ip[m] = float(upow @ V[:n])
        rec_G[m] = float(uw @ (phiV[:n] * esc[m]))
        rec_edge[m] = edge
        if not np.isfinite(sup):
            return m, 2, edge
        if sup > sup_cap:
            return m, 1, edge
    return m0 + nsteps, 0, edge


def _truthy(s: str) -> bool:
    return s.strip().lower() not in ("0", "false", "off", "no", "")


NUMBA_ENABLED = _truthy(os.environ.get("AEBLOW_NUMBA", "1"))

if NUMBA_ENABLED:
    try:
        import numba as nb
        advance_segment_numba = nb.njit(cache=True, fastmath=False)(_advance_py)
    except ImportError:       # pragma: no cover - silent fall back to numpy
        NUMBA_ENABLED = False
        advance_segment_numba = _advance_py
else:
    advance_segment_numba = _advance_py

advance_segment = advance_segment_numba if NUMBA_ENABLED else advance_segment_numpy
