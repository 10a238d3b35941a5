"""The time-stepping kernel of the radial wave solver.

advance_segment runs one velocity-Verlet segment as numpy slices;
wave_solver.step and the full evolutions both go through it.

State per node: u, v = du/dt, a = d2u/dt2.  One step m -> m+1:

    vh = v + dt/2 a
    u  = u + dt vh
    f  = msq[m+1] (L u + nl |u|^p)          L = radial divergence-form stencil
    v  = (vh + dt/2 f) / (1 + bh[m+1])      bh = b(t) dt / 2 (semi-implicit)
    a  = f - (2 bh[m+1]/dt) v

which is plain Stoermer-Verlet when b = 0.  Each step updates only cells
0..min(edge + _EDGE_PAD, N - 1), edge being the last cell with |u| above
_EDGE_REL sup|u| after the previous step (NaN cells count as live), so the
window follows the light cone and cells beyond it keep their values.  On the
window the step also sums the per-step scalars (sup|u|, integral of u, of
|u|^p, of u*phi*esc with the caller-supplied per-step scale esc) and finds
the new edge.
"""

from __future__ import annotations

import numpy as np

__all__ = ["advance_segment"]

_EDGE_REL = 1e-12   # "numerically zero" support threshold, relative to sup|u|
_EDGE_PAD = 8       # extra active cells beyond the measured support edge


def advance_segment(u, v, a, A, B, C, V, phiV, esc, msq, bh, dt, p, nonlin,
                    m0, nsteps, sup_cap, rec_sup, rec_F, rec_Ip, rec_G,
                    rec_edge, edge):
    """Advance nsteps; record scalars at global indices m0+1..

    Returns (last step index, status, edge); status 0 completed, 1 sup cap
    exceeded (blow-up), 2 non-finite values.
    """
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
        nz = np.flatnonzero(~(absu <= _EDGE_REL * sup))   # "not <=": NaN is live
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


# bench/worker.py machine_facts still reads these two names
advance_segment_numpy = advance_segment
NUMBA_ENABLED = False
