"""Child process of the benchmark: one workload, one client, one closed loop.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and BLAS/OpenMP pinned to one thread.  It imports
aeblow, generates the seeded job list, and prints a ``{"ready": ...}`` line;
with ``--setup-only`` it stops there (a set-up sample).  Otherwise it repeats the
job list in passes, each job starting only after the previous one returned,
checks every report, and prints one JSON result line.

With ``--trace 1`` the first pass is an untraced warm-up and later passes
alternate traced and untraced, so the traced run measures its own overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--spans", default=None, help="JSONL file for the spans")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class SpeedProbe:
    """A fixed ~2.5 ms task timed in and between jobs to track the host's speed.

    Shared hosts drift by up to +-30 % in speed over seconds to minutes, in
    CPU time as much as in wall time, which swamps a useful regression bound.
    The probe does what the jobs do, in about equal parts: a small DOP853
    ``solve_ivp`` with a Python right-hand side, then numpy updates of an
    8k-cell array like the time-stepping kernel's.  It runs once between
    jobs and, through an interval timer, every ``INTERVAL_S`` inside a job,
    so long jobs are tracked too.  A job's normalized latency is its latency without the
    probes, times ``REF_S`` over the mean probe time from just before the job
    to just after it: seconds on a host where the probe takes ``REF_S``.
    The probe is the benchmark's own code, so no change to aeblow can move
    it, and it touches no aeblow state, so reports stay byte-identical.
    """

    REF_S = 2.5e-3
    INTERVAL_S = 0.1

    def __init__(self):
        import numpy as np
        from scipy.integrate import solve_ivp
        self._np, self._solve_ivp = np, solve_ivp
        self._u = np.linspace(0.0, 1.0, 8192)
        self._v = np.empty_like(self._u)
        self._samples = []
        self._excluded_s = 0.0     # probe time spent inside jobs, cumulative

    def _rhs(self, t, y):
        return [-y[0] * self._np.cos(t)]

    def sample(self) -> float:
        np, u, v = self._np, self._u, self._v
        t0 = time.perf_counter()
        self._solve_ivp(self._rhs, (0.0, 3.0), [1.0], method="DOP853",
                        rtol=1e-10, atol=1e-12)
        for _ in range(60):
            np.multiply(u, 1.0001, out=v)
            np.add(v, u, out=v)
            np.abs(v, out=v)
            float(v.max())
        dt = time.perf_counter() - t0
        self._samples.append(dt)
        return dt

    def clock(self) -> float:
        """perf_counter without the probe time spent inside jobs."""
        return time.perf_counter() - self._excluded_s

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self._excluded_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def timing(self):
        """Time the body; yields a dict that gets 'raw_s' and 'norm_s'."""
        out = {}
        self._samples = [self._samples[-1]] if self._samples else []
        if not self._samples:
            self.sample()
        old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = self.clock()
        try:
            yield out
        finally:
            t1 = self.clock()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        self.sample()
        out["raw_s"] = t1 - t0
        out["norm_s"] = out["raw_s"] * self.REF_S / statistics.fmean(self._samples)


def run_job(cli, errors, kind, overrides, out, tracer):
    """One CLI experiment; returns (exit status, error text or None)."""
    try:
        if tracer is None:
            cfg = cli.ExperimentConfig.build(kind, None, overrides, out=out)
            return cli.run(cfg), None
        with tracer.span("job", "job"):
            with tracer.span("cli.config", "cli"):
                cfg = cli.ExperimentConfig.build(kind, None, overrides, out=out)
            with tracer.span("cli.run", "cli"):
                return cli.run(cfg), None
    # the status mapping of aeblow.cli.main: 2 configuration, 1 other errors
    except errors.ConfigurationError as e:
        return 2, f"ConfigurationError: {e}"
    except errors.AeblowError as e:
        return 1, f"{type(e).__name__}: {e}"
    except Exception as e:  # a crashed job is a failed job; the loop goes on
        return -1, f"{type(e).__name__}: {e}"


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when not found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(aeblow_kernels):
    import numpy
    import scipy
    if aeblow_kernels.advance_segment is aeblow_kernels.advance_segment_numpy:
        backend = "numpy"
    elif aeblow_kernels.NUMBA_ENABLED:
        backend = "numba"
    else:
        backend = "python-loop"
    return {"kernel_backend": backend,
            "numba_enabled": bool(aeblow_kernels.NUMBA_ENABLED),
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


def main(argv=None) -> int:
    args = _args(argv)
    t0 = time.perf_counter()
    import aeblow
    from aeblow import _kernels, cli, errors
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(aeblow.__file__).resolve().parents:
        print(f"worker: aeblow imported from {aeblow.__file__}, not from the "
              f"checkout's src", file=sys.stderr)
        return 2
    import workloads as W
    jobs = W.jobs_for(args.workload, args.seed)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    from tracing import LAYER_UNITS, Tracer
    workdir = Path(args.workdir)
    outs = [str(workdir / f"job-{i:03d}.json") for i in range(len(jobs))]
    reference = W.load_reference(args.workload, args.seed, jobs)

    probe = SpeedProbe()
    passes = []          # (raw wall_s, traced, [raw latency], [normalized])
    tracers = []
    first = None         # report bytes of the first pass
    bad_job = []         # per job: reason the first pass failed, or None
    failures = []
    attempted = failed = 0
    rel_dev = None
    nondeterministic = 0
    min_passes = 3 if args.trace else 2
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer(probe.clock) if traced else None
        lat, norm, status, err, reports = [], [], [], [], []
        with (tracer.installed() if traced else contextlib.nullcontext()):
            for i, (kind, overrides) in enumerate(jobs):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(outs[i])
                if tracer is not None:
                    tracer.job = i
                with probe.timing() as took:
                    st, msg = run_job(cli, errors, kind, overrides, outs[i],
                                      tracer)
                lat.append(took["raw_s"])
                norm.append(took["norm_s"])
                status.append(st)
                err.append(msg)
                try:
                    with open(outs[i], "rb") as f:
                        reports.append(f.read())
                except FileNotFoundError:
                    reports.append(None)
        passes.append((sum(lat), traced, lat, norm))
        if tracer is not None:
            tracers.append(tracer)

        if first is None:
            first = reports
            for i, (kind, overrides) in enumerate(jobs):
                reasons = [err[i]] if err[i] else []
                report = None
                if reports[i] is not None:
                    report = json.loads(reports[i])
                reasons += W.gate_failures(kind, status[i], report)
                if not reasons and reference is not None:
                    dev = W.rel_dev(W.key_outputs(kind, overrides, report),
                                    reference["outputs"][i])
                    rel_dev = dev if rel_dev is None else max(rel_dev, dev)
                    if not dev <= W.REL_TOL:
                        reasons.append(f"key outputs {dev:.3g} off the "
                                       f"reference (tolerance {W.REL_TOL:g})")
                bad_job.append("; ".join(reasons) or None)
        for i in range(len(jobs)):
            attempted += 1
            reason = bad_job[i]
            if reason is None and (status[i] != 0 or reports[i] != first[i]):
                nondeterministic += 1
                reason = (f"report bytes differ from the first pass "
                          f"({'traced' if traced else 'untraced'} pass "
                          f"{len(passes) - 1}, exit {status[i]}, {err[i]})")
            if reason is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"job {i} ({jobs[i][0]}): {reason}")

        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break

    result = {
        "walls": [p[0] for p in passes if not p[1]],
        "latencies": [x for p in passes if not p[1] for x in p[2]],
        "norm_walls": [sum(p[3]) for p in passes if not p[1]],
        "norm_latencies": [x for p in passes if not p[1] for x in p[3]],
        "passes": len(passes), "jobs_per_pass": len(jobs),
        "attempted": attempted, "failed": failed, "failures": failures,
        "nondeterministic": nondeterministic,
        "reference": None if reference is None else reference["variant"],
        "result_rel_dev": rel_dev,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "machine": machine_facts(_kernels),
    }
    if tracers:
        traced_passes = [p for p in passes if p[1]]
        per_pass = [tr.metrics(p[0]) for tr, p in zip(tracers, traced_passes)]
        layers = {k: statistics.median(m[k] for m in per_pass)
                  for k in per_pass[0]}
        # traced minus untraced wall_s, the warm-up pass left out
        untraced = result["norm_walls"][1:] or result["norm_walls"]
        layers["trace.overhead_s"] = (
            statistics.median(sum(p[3]) for p in traced_passes)
            - statistics.median(untraced))
        result["layers"] = layers
        result["layer_units"] = LAYER_UNITS
        if args.spans:
            with contextlib.suppress(FileNotFoundError):
                os.remove(args.spans)
            for tr in tracers:
                tr.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
