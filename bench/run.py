"""aeblow benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep-n3 --seed 0 --seconds 30 --trace 0

Run from anywhere; the checkout is the parent of this directory and aeblow is
imported from its ``src``.  Every measurement happens in fresh child
interpreters (``worker.py``) with BLAS/OpenMP pinned to one thread:

* set-up probes: interpreter start, ``import aeblow`` and input generation,
  timed from process start to the child's ready line (``setup_s``);
* one worker: a closed loop with one client over the seeded job list,
  repeated in passes for ``--seconds``, every report checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without a checkout around it the command exits with status 2
and prints no result.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REL_TOL, VARIANTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7            # fresh interpreters timed for setup_s
TIME_LIMIT_S = 170.0         # whole command, builds excluded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_child(args, extra, deadline):
    """Start worker.py; return (process, set-up seconds, ready record)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    try:
        ready = json.loads(line)
    except json.JSONDecodeError:
        stop(proc)
        raise BenchError(f"worker did not report ready (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        stop(proc)
        raise BenchError("time limit reached during set-up")
    return proc, setup, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def llc_bytes():
    """Last-level cache size as glibc reports it, or None."""
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above its value."""
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 0, -1):
        v = xs[max(math.ceil(q / 100.0 * n) - 1, 0)]
        if sum(x > v for x in xs) >= 10:
            return q, v
    return None


def measure(args):
    if not (ROOT / "src" / "aeblow" / "__init__.py").is_file():
        raise BenchError(f"no aeblow sources under {ROOT / 'src'}; run the "
                         f"benchmark from a checkout of the repository")
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    # byte-compile once so set-up samples measure imports, not compilation
    for d in (ROOT / "src", BENCH):
        compileall.compile_dir(str(d), quiet=1)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, imports = [], []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup, ready = start_child(args, ["--setup-only"], deadline)
            proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
            stop(proc)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe exited {proc.returncode}")
            setups.append(setup)
            imports.append(ready["import_s"])
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        proc, setup, ready = start_child(
            args, ["--workdir", str(workdir), "--spans", str(spans)], deadline)
        setups.append(setup)
        imports.append(ready["import_s"])
        try:
            out, _ = proc.communicate(
                timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            stop(proc)
            raise BenchError("worker exceeded the time limit") from None
        stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setups"] = setups
    result["imports"] = imports
    return result


def report(args, r):
    machine = dict(r["machine"], llc_bytes=llc_bytes(),
                   numba_importable=importlib.util.find_spec("numba") is not None)
    lines = [f"aeblow benchmark: workload={args.workload} seed={args.seed} "
             f"(input set {args.seed % VARIANTS}) seconds={args.seconds:g} "
             f"trace={args.trace}",
             "machine: " + json.dumps(machine, sort_keys=True),
             f"loop: closed, 1 client, {r['passes']} passes of "
             f"{r['jobs_per_pass']} jobs, {r['attempted']} attempted, "
             f"{r['failed']} failed"]
    for msg in r["failures"]:
        lines.append(f"  FAILED {msg}")
    lines.append(f"fail_frac         {r['failed'] / r['attempted']:.6g} ratio")
    if r["reference"] is None:
        lines.append("result_rel_dev    n/a (no stored reference for this seed)")
    else:
        lines.append(f"result_rel_dev    {r['result_rel_dev']!r} ratio "
                     f"(round-off bound {REL_TOL:g}, input set {r['reference']})")
    lines.append(f"determinism       {r['nondeterministic']} of "
                 f"{r['attempted'] - r['jobs_per_pass']} repeated reports "
                 f"differ from the first pass")
    if args.trace:
        metrics = dict(r["layers"])
        metrics["setup.import_s"] = statistics.median(r["imports"])
        units = r["layer_units"]
    else:
        lat = r["latencies"]
        lines.append(f"wall_raw_s        {statistics.median(r['walls'])!r} s "
                     f"(unnormalized)")
        lines.append(f"job_p50_raw_s     {statistics.median(lat)!r} s "
                     f"(unnormalized)")
        metrics = {"wall_s": statistics.median(r["norm_walls"]),
                   "job_p50_s": statistics.median(r["norm_latencies"]),
                   "setup_s": statistics.median(r["setups"]),
                   "peak_rss_mb": r["peak_rss_mb"]}
        units = END_TO_END
        tail = tail_percentile(lat)
        lines.append(f"job_tail_s        " + (
            f"{tail[1]!r} s (p{tail[0]} of {len(lat)} jobs)" if tail else
            f"omitted ({len(lat)} jobs; needs at least 11)"))
    for name, value in metrics.items():
        lines.append(f"{name:<30} {value!r} {units[name]}")
    print("\n".join(lines))
    correct = r["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
