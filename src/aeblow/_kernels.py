"""The time-stepping kernel of the radial wave solver.

advance_segment runs one velocity-Verlet segment as numpy slices;
wave_solver.step and the full evolutions both go through it.  _stencil is the
radial divergence-form stencil L, shared with wave_solver.Discretization.lap,
and _last_live the support-edge rule, shared with wave_solver._support_edge.

State per node: u, v = du/dt, a = d2u/dt2.  One step m -> m+1:

    vh = v + dt/2 a
    u  = u + dt vh
    f  = msq[m+1] (L u + nl |u|^p)          L = radial divergence-form stencil
    v  = (vh + dt/2 f) / (1 + bh[m+1])      bh = b(t) dt / 2 (semi-implicit)
    a  = f - (2 bh[m+1]/dt) v

which is plain Stoermer-Verlet when b = 0.  A step updates only cells
0..min(E + _EDGE_PAD, N - 1), E being the largest edge of the run so far, an
edge being the last cell with |u| above _EDGE_REL sup|u| (NaN cells count as
live).  The window follows the light cone and never shrinks, so every cell
beyond it still holds its initial zero and the window's sums are grid sums.
The step records sup|u| and its own edge, and, for each record array the
caller passes instead of None, the integral of u (rec_F), of |u|^p (rec_Ip)
and of u*phi (rec_G, unscaled; phiV is read only then).  A skipped record
costs nothing and changes no other value.

Every window array op writes into buffers allocated once per call, in the
order of the formulas above, so the results are bit-for-bit those of the
plain expressions.  The step is mostly call overhead, so it makes as few
calls as it can.  The window's views and its stencil (_stencil) are built
only when the window grows; msq and bh are read as Python floats, dt and
dt/2 as 0-d arrays.  dt/2 a is carried from step to step in a buffer seeded
from the whole grid at the start of a segment; f is formed in a.  The edge
search looks at the window's last _EDGE_TAIL cells first and at the whole
window only when none of those is live.  A step skips the passes whose
result its own scalars already fix: the product by msq when msq[m+1] == 1.0
(zero damping, direct mode); the divide by 1 + bh and the term (2 bh/dt) v
when bh[m+1] == 0.0 (transformed mode, tabulated b past its table), where
a = f, dt/2 f is the next dt/2 a and v = dt/2 f + vh; and p == 2.0 takes
np.square for np.power, which gives the same bits.  A finite run therefore
keeps its bits.  Only an overflowing undamped step differs: a = f keeps an
inf where f - 0 * v gave NaN, which moves no stop step or status.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["advance_segment"]

_EDGE_REL = 1e-12   # "numerically zero" support threshold, relative to sup|u|
_EDGE_PAD = 8       # extra active cells beyond the measured support edge
_EDGE_TAIL = 32     # window cells searched for the edge before the whole window


def _stencil(u, A, B, C, n, out, tmp):
    """A call that sets out[i] = (L u)_i on cells 0..n-1, reading u[0..n],
    summed as (A u[i+1] + B u[i]) + C u[i-1], and returns out; tmp is
    scratch as long as out.  The views are built here once, so a window
    that keeps its size reuses the call."""
    a0 = float(A[0])
    w, t = out[1:n], tmp[1:n]
    Aw, up, Bw, uc, Cw, um = A[1:n], u[2:n + 1], B[1:n], u[1:n], C[1:n], \
        u[:n - 1]

    def apply():
        out[0] = a0 * (u[1] - u[0])
        np.multiply(Aw, up, w)
        np.multiply(Bw, uc, t)
        np.add(w, t, w)
        np.multiply(Cw, um, t)
        np.add(w, t, w)
        return out
    return apply


def _last_live(x, sup, start=0):
    """Last index i with x[i] not <= _EDGE_REL * sup, else 0; sup = max(x).

    A NaN cell is live: it makes sup NaN, and then every cell is.  The cells
    from start on are searched first, the ones before only if none is live."""
    if math.isnan(sup):
        return len(x) - 1
    live = np.greater(x[start:], _EDGE_REL * sup).nonzero()[0]
    if len(live):
        return start + int(live[-1])
    return _last_live(x[:start], sup) if start else 0


def advance_segment(u, v, a, A, B, C, V, phiV, msq, bh, dt, p, nonlin,
                    m0, nsteps, sup_cap, rec_sup, rec_F, rec_Ip, rec_G,
                    rec_edge, edge):
    """Advance nsteps from the window seed edge; record scalars at global
    indices m0+1.. (rec_edge[m] is step m's own edge; rec_F, rec_Ip and rec_G
    may each be None, not recorded).  Returns (last step index, status,
    largest edge so far); status 0 completed, 1 sup cap exceeded (blow-up),
    2 non-finite values.
    """
    N = u.shape[0] - 1
    # 0-d arrays, since a ufunc converts a Python float on every call
    dt_a, half_a = np.array(dt), np.array(0.5 * dt)
    need_pow = nonlin or rec_Ip is not None
    square = p == 2.0
    vh_b, t_b, absu_b, upow_b = np.empty((4, N + 1))
    ha_b = np.multiply(a, half_a)                 # dt/2 a, carried by the steps
    msq = msq[m0 + 1:m0 + nsteps + 1].tolist()
    bh = bh[m0 + 1:m0 + nsteps + 1].tolist()
    n = grow_at = 0
    for step in range(nsteps):
        m = m0 + step + 1
        if edge >= grow_at:                           # the window grows
            n = min(edge + _EDGE_PAD, N - 1) + 1      # active cells 0..n-1
            grow_at = edge + 1 if n < N else math.inf
            uw, vw, f, ha = u[:n], v[:n], a[:n], ha_b[:n]
            vh, t, absu, upow = vh_b[:n], t_b[:n], absu_b[:n], upow_b[:n]
            lap_into_a = _stencil(u, A, B, C, n, a, t_b)
            Vw = V[:n]
            phiw = None if rec_G is None else phiV[:n]
            tail = max(n - _EDGE_TAIL, 0)
        c1 = msq[step]
        b1 = bh[step]
        np.add(ha, vw, vh)                            # vh = v + dt/2 a
        np.multiply(vh, dt_a, t)                      # u += dt vh
        np.add(uw, t, uw)
        lap_into_a()                                  # f, formed in a
        np.abs(uw, absu)
        if need_pow:
            if square:
                np.square(absu, upow)
            else:
                np.power(absu, p, upow)
            if nonlin:
                np.add(f, upow, f)
        if c1 != 1.0:
            np.multiply(f, c1, f)
        if b1 != 0.0:                                 # v = (vh+dt/2 f)/(1+bh)
            np.multiply(f, half_a, t)
            np.add(t, vh, t)
            np.divide(t, 1.0 + b1, vw)
            np.multiply(vw, 2.0 * b1 / dt, t)         # a = f - (2 bh/dt) v
            np.subtract(f, t, f)
            np.multiply(f, half_a, ha)                # the next dt/2 a
        else:                                         # undamped: a = f
            np.multiply(f, half_a, ha)                # dt/2 f, the next dt/2 a
            np.add(ha, vh, vw)
        sup = float(np.maximum.reduce(absu))
        reach = rec_edge[m] = _last_live(absu, sup, tail)
        edge = max(edge, reach)
        rec_sup[m] = sup
        if rec_F is not None:
            rec_F[m] = uw @ Vw
        if rec_Ip is not None:
            rec_Ip[m] = upow @ Vw
        if rec_G is not None:
            rec_G[m] = uw @ phiw
        if not math.isfinite(sup):
            return m, 2, edge
        if sup > sup_cap:
            return m, 1, edge
    return m0 + nsteps, 0, edge


# bench/worker.py machine_facts still reads these two names
advance_segment_numpy = advance_segment
NUMBA_ENABLED = False
