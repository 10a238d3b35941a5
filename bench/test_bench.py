"""Self-tests of the benchmark: job generator, references, tracer, exit path.

    python3 -m pytest bench -q

They run tiny versions of each workload (a few jobs, coarse grids), so the
whole file takes well under a minute.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import LAYER_UNITS, MODULES, Tracer  # noqa: E402
from worker import run_job  # noqa: E402

# appended to a job's overrides (a later --set wins) to make it tiny
TINY = {"sweep": ["solver.dr=0.1", "run.count=5"],
        "critical": ["run.t_max=16", "solver.dr=0.1"],
        "ode": [],
        "solve": ["solver.dr=0.1", "solver.tmax=3", "run.snapshots=[1.0,2.0,3.0]"]}

# names that modules import from each other and call by that name
LOOKUP_SITES = (("lifespan", "evolve_transformed"),
                ("lifespan", "evolve_damped_direct"),
                ("wave_solver", "m_tilde"), ("wave_solver", "eta_of_s"),
                ("ode_lab", "m_tilde"), ("ode_lab", "eta_of_s"),
                ("entire_solutions", "eval_k"),
                ("testfn_critical", "build_family"),
                ("testfn_critical", "eta_of_s"),
                ("testfn_critical", "k_integral"),
                ("_kernels", "advance_segment"))


def tiny_jobs(workload):
    return [(kind, overrides + TINY[kind])
            for kind, overrides in W.jobs_for(workload, 0)[:6]]


def run_all(jobs, outdir, tracer=None):
    from aeblow import cli, errors
    outdir.mkdir()
    results = []
    for i, (kind, overrides) in enumerate(jobs):
        path = outdir / f"job-{i}.json"
        if tracer is not None:
            tracer.job = i
        status, err = run_job(cli, errors, kind, overrides, str(path), tracer)
        results.append((status, err, path.read_bytes() if path.exists() else None))
    return results


def namespaces():
    mods = [importlib.import_module(m) for m in MODULES + ("aeblow.cli",)]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_and_untraced_reports_are_byte_identical(workload, tmp_path):
    jobs = tiny_jobs(workload)
    plain = run_all(jobs, tmp_path / "plain")
    again = run_all(jobs, tmp_path / "again")
    tracer = Tracer()
    with tracer.installed():
        traced = run_all(jobs, tmp_path / "traced", tracer)
    assert [r[:2] for r in plain] == [(0, None)] * len(jobs)
    assert plain == again == traced
    assert tracer.calls["job"] == len(jobs)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_self_times_partition_the_job_spans(workload, tmp_path):
    tracer = Tracer()
    with tracer.installed():
        run_all(tiny_jobs(workload), tmp_path / "out", tracer)
    assert min(tracer.self_time.values()) >= 0.0
    assert min(tracer.layer_self.values()) >= 0.0
    inner = sum(v for layer, v in tracer.layer_self.items() if layer != "job")
    assert inner <= tracer.time["job"] + 1e-9
    assert sum(tracer.layer_self.values()) == pytest.approx(tracer.time["job"])
    metrics = tracer.metrics(tracer.time["job"])
    assert set(metrics) | {"trace.overhead_s", "setup.import_s"} == set(LAYER_UNITS)
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())


def test_kernel_counts_match_the_trajectory():
    from aeblow import metric, wave_solver
    tracer = Tracer()
    cfg = wave_solver.SolverConfig(dr=0.1, tmax=4.0)
    with tracer.installed():
        traj = wave_solver.evolve_transformed(
            metric.flat_profile(3), None, wave_solver.DataProfile(1.0, 1.0, 1.0),
            0.3, cfg, snapshot_times=[1.0, 2.0])
    steps = len(traj.t) - 1
    assert tracer.counts["kernel_steps"] == steps
    assert tracer.counts["kernel_cell_steps"] == steps * len(traj.r)
    assert tracer.calls["advance_segment"] == 3
    assert 0 < tracer.counts["kernel_active_cells"] < steps * len(traj.r)
    assert tracer.counts["snapshots"] == 2


def test_wrappers_cover_lookup_sites_and_are_restored():
    before = namespaces()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            for mod, name in LOOKUP_SITES:
                obj = getattr(importlib.import_module(f"aeblow.{mod}"), name)
                assert obj is not before[(f"aeblow.{mod}", name)]
                assert obj.__wrapped__ is before[(f"aeblow.{mod}", name)]
            raise RuntimeError("leave the context by an exception")
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_seed_gives_valid_configs(workload):
    from aeblow import cli, metric
    digests = set()
    for seed in range(W.VARIANTS):
        jobs = W.jobs_for(workload, seed)
        assert jobs == W.jobs_for(workload, seed + W.VARIANTS)
        digests.add(W.jobs_digest(jobs))
        for kind, overrides in jobs:
            cfg = cli.ExperimentConfig.build(kind, None, overrides)
            metric.profile_from_config(cfg.metric)
            d = cfg.damping
            if d["kind"] == "tabulated":
                tab = np.asarray(d["table"])
                assert 0.85 <= np.trapezoid(tab[:, 1], tab[:, 0]) <= 0.95
                assert np.all(tab[:, 1] > 0)
            elif d["kind"] != "zero":
                assert 0.2 <= d["mu"] <= 0.6 and 1.6 <= d["beta"] <= 2.4
            if kind == "ode" and cfg.run["mode"] == "comparison":
                assert 0.05 <= cfg.run["lam"] <= 0.3
            if kind == "sweep":
                assert 6.965 <= cfg.run["eps_max"] <= 7.035
    assert len(digests) == W.VARIANTS


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_reference_covers_every_input_set(workload):
    table = json.loads((W.REFERENCE_DIR / f"{workload}.json").read_text())
    assert sorted(map(int, table)) == list(range(W.VARIANTS))
    for seed in range(W.VARIANTS):
        ref = W.load_reference(workload, seed, W.jobs_for(workload, seed))
        assert len(ref["outputs"]) == len(W.jobs_for(workload, seed))


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    q, v = run.tail_percentile(list(range(100)))
    assert sum(x > v for x in range(100)) == 10 and q == 90


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "sweep-n3", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
