"""Capture the stored reference outputs of a workload's input sets.

    python3 bench/capture_reference.py --workload sweep-n3 [--variants 0-63]

Runs one pass of every selected input set with the checkout's aeblow, checks
the acceptance gates, and writes the key outputs with the job-list digest to
``reference/<workload>.json`` (existing entries for other input sets are
kept).  Recapture only when the job generator changes: the reference pins
the program's results, so a change that moves them must not recapture.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as W  # noqa: E402
from worker import run_job  # noqa: E402


def capture(workload: str, variant: int, workdir: Path) -> dict:
    from aeblow import cli, errors
    jobs = W.jobs_for(workload, variant)
    outputs = []
    for i, (kind, overrides) in enumerate(jobs):
        out = str(workdir / f"job-{i:03d}.json")
        status, err = run_job(cli, errors, kind, overrides, out, None)
        report = json.loads(Path(out).read_text()) if status == 0 else None
        bad = ([err] if err else []) + W.gate_failures(kind, status, report)
        if bad:
            raise SystemExit(f"{workload} input set {variant} job {i}: {bad}")
        outputs.append(W.key_outputs(kind, overrides, report))
    return {"digest": W.jobs_digest(jobs), "outputs": outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--variants", default=f"0-{W.VARIANTS - 1}",
                    help="input sets, as FIRST-LAST")
    args = ap.parse_args(argv)
    lo, _, hi = args.variants.partition("-")
    path = W.REFERENCE_DIR / f"{args.workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    workdir = BENCH.parent / ".bench_out" / f"capture-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for variant in range(int(lo), int(hi or lo) + 1):
            table[str(variant)] = capture(args.workload, variant, workdir)
            print(f"{args.workload} input set {variant}: captured", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    write_table(path, table)
    return 0


def write_table(path: Path, table: dict) -> None:
    """One input set per line, in input-set order."""
    rows = [f"{json.dumps(k)}: {json.dumps(table[k], separators=(',', ':'))}"
            for k in sorted(table, key=int)]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
