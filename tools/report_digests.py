"""Print the sha256 of every report and CSV table one benchmark pass writes.

Runs each job of ``bench/workloads.py`` for each given workload and seed
in-process, through ``aeblow.cli.main`` with the job's ``--set`` overrides
and a ``--csv`` path, and prints one line per job: workload, seed, index,
kind, exit status, the sha256 of the JSON report and that of the CSV table
(``-`` when the job wrote none).  Two checkouts that print the same lines
wrote byte-identical reports and tables.

    python3 tools/report_digests.py --workload critical-n3 --seed 0 1009
    python3 tools/report_digests.py --workload sweep-n3 critical-n3 \\
        damped-jobs readme --seed 0 --checkout ../parent --keep /tmp/parent-reports

The workload ``readme`` is the six example commands of the README's CLI
section (``README_JOBS``, the same for every seed); it covers ``validate``,
``eigen`` and ``ode``, which no benchmark workload runs.

``--checkout`` imports aeblow and the job lists from another checkout, so a
parent commit without this script can be measured too.  Reports go to a
temporary directory, or to ``--keep DIR`` (one ``WORKLOAD/seed-N`` folder a
workload and seed); nothing is written under ``bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

# the README's CLI examples as (subcommand, --set items); every job also
# gets --out and --csv
README_JOBS = [
    ("validate", ["metric.kind=power-law", "metric.c=0.5", "metric.rho=1.0"]),
    ("eigen", ["run.lam=0.1"]),
    ("ode", ["run.beta=2.0", "run.k=6.0", "run.f0p=2.0"]),
    ("solve", ["run.eps=0.3", "run.p=2.0"]),
    ("sweep", ["run.p=2.0", "run.eps_max=7.0", "run.ratio=1.3",
               "solver.tmax=400", "run.tmax_budget=2100"]),
    ("critical", ["run.t_max=16", "solver.dr=0.1"]),
]


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parents[1]),
                    help="checkout whose src and bench to use (default: this one)")
    ap.add_argument("--keep", help="directory that keeps the reports")
    return ap.parse_args(argv)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() \
        else "-"


def main(argv=None) -> int:
    args = _args(argv)
    root = Path(args.checkout).resolve()
    sys.dont_write_bytecode = True        # no __pycache__ under bench/
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import aeblow
    from aeblow import cli
    import workloads as W
    if root / "src" not in Path(aeblow.__file__).resolve().parents:
        print(f"report_digests: aeblow imported from {aeblow.__file__}, not "
              f"from {root / 'src'}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload:
            for seed in args.seed:
                outdir = Path(args.keep or tmp) / workload / f"seed-{seed}"
                outdir.mkdir(parents=True, exist_ok=True)
                jobs = (README_JOBS if workload == "readme"
                        else W.jobs_for(workload, seed))
                for i, (kind, overrides) in enumerate(jobs):
                    out = outdir / f"job-{i:03d}.json"
                    table = out.with_suffix(".csv")
                    out.unlink(missing_ok=True)
                    table.unlink(missing_ok=True)
                    sets = [arg for item in overrides
                            for arg in ("--set", item)]
                    status = cli.main([kind, *sets, "--out", str(out),
                                       "--csv", str(table)])
                    print(f"{workload} {seed} {i:3d} {kind:8s} {status} "
                          f"{_digest(out)} {_digest(table)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
