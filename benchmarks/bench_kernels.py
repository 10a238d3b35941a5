"""Timing comparison of the two time-stepping kernel implementations.

Runs the same nonlinear radial evolution through the numba-compiled scalar
loop and the windowed numpy kernel, and prints steps/second for each and the
mean share of the grid inside the active window.  Without numba
(_kernels.NUMBA_ENABLED false) the scalar loop would run as plain Python,
some 50x slower than numpy, so only numpy is timed.  Usage:

    python benchmarks/bench_kernels.py [--dr 0.02] [--tmax 40] [--repeat 3]
"""

import argparse
import time

import numpy as np

from aeblow import _kernels, metric, wave_solver as ws


def build(dr, tmax):
    flat3 = metric.flat_profile(3)
    data = ws.DataProfile(1.0, 1.0, 1.0)
    cfg = ws.SolverConfig(dr=dr, tmax=tmax)
    state = ws.init(flat3, None, data, 0.4, cfg)
    disc = state.disc
    dt = disc.dt_max
    nsteps = int(np.ceil(tmax / dt))
    msq = np.ones(nsteps + 1)
    bh = np.zeros(nsteps + 1)
    phiV = np.exp(-disc.r) * disc.V
    esc = np.exp(-0.2 * np.arange(nsteps + 1) * dt)
    edge = ws._support_edge(state.u, state.v)
    return state, disc, dt, nsteps, msq, bh, phiV, esc, edge


def run_once(kern, payload):
    state, disc, dt, nsteps, msq, bh, phiV, esc, edge = payload
    u, v, a = state.u.copy(), state.v.copy(), state.a.copy()
    rec = [np.zeros(nsteps + 1) for _ in range(4)]
    rec_edge = np.zeros(nsteps + 1, dtype=np.int64)
    t0 = time.perf_counter()
    m, _, _ = kern(u, v, a, disc.A, disc.B, disc.C, disc.V, phiV, esc, msq,
                   bh, dt, disc.p, 1, 0, nsteps, 1e12, *rec, rec_edge, edge)
    elapsed = time.perf_counter() - t0
    # step m updates cells 0..min(edge + _EDGE_PAD, N - 1), edge from step m-1
    edges = np.concatenate(([edge], rec_edge[1:m]))
    active = np.minimum(edges + _kernels._EDGE_PAD, len(u) - 2) + 1
    return elapsed, float(active.mean()) / len(u)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dr", type=float, default=0.02)
    ap.add_argument("--tmax", type=float, default=40.0)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    payload = build(args.dr, args.tmax)
    nsteps = payload[3]
    ncells = len(payload[0].u)
    print(f"grid: {ncells} cells, {nsteps} steps "
          f"(dr={args.dr}, tmax={args.tmax})")

    kernels = [("numpy", _kernels.advance_segment_numpy)]
    if _kernels.NUMBA_ENABLED:
        run_once(_kernels.advance_segment_numba, payload)  # jit compile
        kernels.insert(0, ("numba", _kernels.advance_segment_numba))
    else:
        print("numba: not importable or disabled by AEBLOW_NUMBA; "
              "scalar loop skipped")
    for name, kern in kernels:
        runs = [run_once(kern, payload) for _ in range(args.repeat)]
        best = min(t for t, _ in runs)
        print(f"{name:>11}: {best:8.4f} s  ({nsteps / best:10.0f} steps/s, "
              f"active window {runs[0][1]:.3f} of the grid)")


if __name__ == "__main__":
    main()
