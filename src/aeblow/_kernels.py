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

Every window array op writes into buffers allocated once per call (out=),
in the order of the formulas above, so the results are bit-for-bit those of
the plain expressions.  A step skips the passes whose result its own scalars
already fix: the product by msq when msq[m+1] == 1.0 (zero damping, direct
mode); the divide by 1 + bh and the term (2 bh/dt) v when bh[m+1] == 0.0
(transformed mode, tabulated b past its table), where the stencil writes f
straight into a and v = dt/2 f + vh; and p == 2.0 takes np.square for
np.power, which gives the same bits.  A finite run therefore keeps its bits.
Only an overflowing undamped step differs: a = f keeps an inf where
f - 0 * v gave NaN, which moves no stop step or status.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["advance_segment"]

_EDGE_REL = 1e-12   # "numerically zero" support threshold, relative to sup|u|
_EDGE_PAD = 8       # extra active cells beyond the measured support edge


def _stencil(u, A, B, C, n, out, tmp):
    """out[i] = (L u)_i on cells 0..n-1, reading u[0..n], summed as
    (A u[i+1] + B u[i]) + C u[i-1]; tmp is scratch as long; returns out."""
    out[0] = A[0] * (u[1] - u[0])
    w, t = out[1:n], tmp[1:n]
    np.multiply(A[1:n], u[2:n + 1], out=w)
    np.multiply(B[1:n], u[1:n], out=t)
    w += t
    np.multiply(C[1:n], u[:n - 1], out=t)
    w += t
    return out


def _last_live(x, sup, out=None):
    """Last index i with x[i] not <= _EDGE_REL * sup, else 0; sup = max(x).

    A NaN cell is live: it makes sup NaN, and then every cell is.  out is an
    optional bool buffer as long as x."""
    if math.isnan(sup):
        return len(x) - 1
    nz = np.greater(x, _EDGE_REL * sup, out=out).nonzero()[0]
    return int(nz[-1]) if len(nz) else 0


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
    half = 0.5 * dt
    need_pow = nonlin or rec_Ip is not None
    square = p == 2.0
    vh_b, t_b, f_b, absu_b, upow_b = np.empty((5, N + 1))
    live_b = np.empty(N + 1, dtype=bool)
    for step in range(nsteps):
        m = m0 + step + 1
        n = min(edge + _EDGE_PAD, N - 1) + 1          # active cells 0..n-1
        uw, vw, aw = u[:n], v[:n], a[:n]
        vh, t, absu = vh_b[:n], t_b[:n], absu_b[:n]
        c1 = msq[m]
        b1 = bh[m]
        np.multiply(aw, half, out=vh)                 # vh = v + dt/2 a
        vh += vw
        np.multiply(vh, dt, out=t)                    # u += dt vh
        uw += t
        damped = b1 != 0.0                            # undamped: a = f
        f = _stencil(u, A, B, C, n, f_b if damped else a, t_b)[:n]
        np.abs(uw, out=absu)
        if need_pow:
            upow = upow_b[:n]
            if square:
                np.square(absu, out=upow)
            else:
                np.power(absu, p, out=upow)
            if nonlin:
                f += upow
        if c1 != 1.0:
            f *= c1
        np.multiply(f, half, out=t)                   # v = (vh+dt/2 f)/(1+bh)
        if damped:
            t += vh
            np.divide(t, 1.0 + b1, out=vw)
            np.multiply(vw, 2.0 * b1 / dt, out=t)     # a = f - (2 bh/dt) v
            np.subtract(f, t, out=aw)
        else:
            np.add(t, vh, out=vw)
        sup = absu.max()
        reach = rec_edge[m] = _last_live(absu, sup, live_b[:n])
        edge = max(edge, reach)
        rec_sup[m] = sup
        if rec_F is not None:
            rec_F[m] = uw @ V[:n]
        if rec_Ip is not None:
            rec_Ip[m] = upow @ V[:n]
        if rec_G is not None:
            rec_G[m] = uw @ phiV[:n]
        if not math.isfinite(sup):
            return m, 2, edge
        if sup > sup_cap:
            return m, 1, edge
    return m0 + nsteps, 0, edge


# bench/worker.py machine_facts still reads these two names
advance_segment_numpy = advance_segment
NUMBA_ENABLED = False
