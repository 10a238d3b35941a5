"""In-memory span tracer that wraps aeblow's public functions from outside.

Nothing here lives in the package: ``Tracer.installed()`` wraps every public
function of every aeblow module and rebinds each name that refers to it, in
every aeblow module namespace.  Modules import functions by name
(``lifespan`` calls its own ``evolve_transformed``, ``wave_solver._evolve``
reads ``_kernels.advance_segment`` on each call), so rebinding only the
defining module would miss most calls.  Leaving the context restores every
rebound name to its original object.

Each wrapped call is a span (name, start, end, parent span, job id).  Spans of
high-frequency leaf functions (scalar ``eval_k`` inside ODE right-hand sides,
the damping maps) are folded into one aggregate record per (name, parent)
so that memory stays bounded; their times and counts are still exact.
A layer's self time is the time of its outermost spans minus the part covered
by spans of other layers nested inside them.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_OF_MODULE = {
    "aeblow._kernels": "kernels",
    "aeblow.wave_solver": "wave_solver",
    "aeblow.damping": "damping",
    "aeblow.metric": "metric",
    "aeblow.entire_solutions": "eigen",
    "aeblow.testfn_critical": "critical",
    "aeblow.lifespan": "lifespan",
    "aeblow.ode_lab": "ode",
}
MODULES = tuple(LAYER_OF_MODULE)

HOT = frozenset({"eval_k", "k_integral", "m_of_t", "h_of_t", "eta_of_s",
                 "m_tilde", "xi_q"})
DAMPING_MAPS = ("m_of_t", "h_of_t", "eta_of_s", "m_tilde")
DAMPING_BUILDERS = ("zero_damping", "scattering_power_damping",
                    "signed_oscillatory_damping", "tabulated_damping",
                    "damping_from_config")
LAYER_UNITS = {
    "kernels.calls": "count", "kernels.busy_s": "s", "kernels.steps": "count",
    "kernels.cell_steps": "count", "kernels.cell_updates_per_s": "1/s",
    "kernels.steps_per_s": "1/s", "kernels.active_frac": "ratio",
    "kernels.bytes_computed": "bytes",
    "wave_solver.init_s": "s", "wave_solver.evolve_s": "s",
    "wave_solver.self_s": "s", "wave_solver.grid_cells": "count",
    "wave_solver.snapshots": "count", "wave_solver.snapshot_bytes": "bytes",
    "damping.build_s": "s", "damping.map_calls": "count",
    "damping.map_points": "count", "damping.map_s": "s",
    "metric.eval_k_calls": "count", "metric.eval_k_points": "count",
    "metric.eval_k_s": "s", "metric.k_integral_s": "s",
    "eigen.members": "count", "eigen.family_s": "s",
    "eigen.member_p50_s": "s", "eigen.lambda_max_s": "s",
    "critical.evaluator_s": "s", "critical.F_s": "s",
    "critical.bounds_self_s": "s", "critical.xi_q_calls": "count",
    "critical.slicing_s": "s",
    "lifespan.detect_calls": "count", "lifespan.detect_s": "s",
    "lifespan.blowup_frac": "ratio", "lifespan.fit_s": "s",
    "ode.kato_s": "s", "ode.comparison_s": "s", "ode.calls": "count",
    "cli.config_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "setup.import_s": "s",
}
# float64 arrays the kernel reads (u v a A B C V phiV) and writes (u v a)
# per active cell and step; temporaries and cache traffic are not counted
KERNEL_ARRAYS = 11


class _Frame:
    __slots__ = ("name", "layer", "span_id", "child_s")

    def __init__(self, name, layer, span_id):
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock               # the worker's clock skips its probes
        self.job = None
        self.spans = []                  # (id, name, start, end, parent, job)
        self.aggregates = {}             # (name, parent, job) -> [calls, s]
        self.calls = Counter()
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.entry_calls = Counter()     # outermost calls within their layer
        self.entry_time = defaultdict(float)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_entries = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self._stack = []
        self._next_id = 0

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name, layer):
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(name, layer, self._next_id)
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        name, layer = frame.name, frame.layer
        self.calls[name] += 1
        self.time[name] += dur
        self.self_time[name] += dur - frame.child_s
        entry = parent is None or parent.layer != layer
        if entry:
            self.entry_calls[name] += 1
            self.entry_time[name] += dur
            self.layer_busy[layer] += dur
            self.layer_entries[layer] += 1
            self.layer_self[layer] += dur - frame.child_s
            if parent is not None:
                parent.child_s += dur
        else:
            parent.child_s += frame.child_s
        parent_id = parent.span_id if parent is not None else None
        if name in HOT:
            agg = self.aggregates.setdefault((name, parent_id, self.job),
                                             [0, 0.0])
            agg[0] += 1
            agg[1] += dur
        else:
            self.spans.append((frame.span_id, name, t0, t1, parent_id,
                               self.job))
        return entry

    @contextlib.contextmanager
    def span(self, name, layer):
        """Span around a call made by the benchmark itself."""
        frame, parent = self._open(name, layer)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(frame, parent, t0, self.clock())

    def wrap(self, func, name, layer):
        counter = _COUNTERS.get(name)
        params = list(inspect.signature(func).parameters)
        clock = self.clock

        def traced(*args, **kwargs):
            frame, parent = self._open(name, layer)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                entry = self._close(frame, parent, t0, t1)
            if counter is not None:
                arg = _Args(params, args, kwargs)
                counter(self, arg, result, entry, t1 - t0)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- installing the wrappers ----------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public aeblow function; restore all names on exit."""
        mods = [importlib.import_module(m) for m in MODULES + ("aeblow.cli",)]
        wrappers = {}
        for mod in mods[:-1]:
            layer = LAYER_OF_MODULE[mod.__name__]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if id(obj) not in wrappers:
                    # every kernel variant is traced as the one it stands for
                    span = "advance_segment" if layer == "kernels" else obj.__name__
                    wrappers[id(obj)] = (obj, self.wrap(obj, span, layer))
        patched = []
        try:
            for mod in mods:
                for name, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patched.append((mod, name, obj))
                        setattr(mod, name, hit[1])
            yield patched
        finally:
            for mod, name, obj in reversed(patched):
                setattr(mod, name, obj)

    def write(self, path):
        """Append spans and aggregates as JSON lines, once the run ends."""
        with open(path, "a") as f:
            for sid, name, t0, t1, parent, job in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "job": job}) + "\n")
            for (name, parent, job), (calls, total) in self.aggregates.items():
                f.write(json.dumps({"aggregate": name, "parent": parent,
                                    "job": job, "calls": calls,
                                    "total_s": total}) + "\n")

    # -- per-layer metrics -------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass whose wall time was wall_s.

        ``trace.overhead_s`` and ``setup.import_s`` are added by the caller.
        """
        t, c, k = self.time, self.calls, self.counts
        busy = self.layer_busy["kernels"]
        cell_steps = k["kernel_cell_steps"]
        members = self.durations["build_entire_solution"]
        detect = c["detect_blowup"]
        return {
            "kernels.calls": c["advance_segment"],
            "kernels.busy_s": busy,
            "kernels.steps": k["kernel_steps"],
            "kernels.cell_steps": cell_steps,
            "kernels.cell_updates_per_s": cell_steps / busy if busy else 0.0,
            "kernels.steps_per_s": k["kernel_steps"] / busy if busy else 0.0,
            "kernels.active_frac": (k["kernel_active_cells"] / cell_steps
                                    if cell_steps else 0.0),
            "kernels.bytes_computed": 8 * KERNEL_ARRAYS * cell_steps,
            "wave_solver.init_s": t["init"],
            "wave_solver.evolve_s": (self.entry_time["evolve_transformed"]
                                     + self.entry_time["evolve_damped_direct"]),
            "wave_solver.self_s": self.layer_self["wave_solver"],
            "wave_solver.grid_cells": k["grid_cells"],
            "wave_solver.snapshots": k["snapshots"],
            "wave_solver.snapshot_bytes": k["snapshot_bytes"],
            "damping.build_s": sum(self.entry_time[n] for n in DAMPING_BUILDERS),
            "damping.map_calls": sum(self.entry_calls[n] for n in DAMPING_MAPS),
            "damping.map_points": k["map_points"],
            "damping.map_s": sum(self.entry_time[n] for n in DAMPING_MAPS),
            "metric.eval_k_calls": c["eval_k"],
            "metric.eval_k_points": k["eval_k_points"],
            "metric.eval_k_s": t["eval_k"],
            "metric.k_integral_s": t["k_integral"],
            "eigen.members": len(members),
            "eigen.family_s": self.entry_time["build_family"],
            "eigen.member_p50_s": statistics.median(members) if members else 0.0,
            "eigen.lambda_max_s": self.entry_time["lambda_max"],
            "critical.evaluator_s": t["build_evaluator"],
            "critical.F_s": t["critical_F"],
            "critical.bounds_self_s": self.self_time["xi_bounds_check"],
            "critical.xi_q_calls": c["xi_q"],
            "critical.slicing_s": t["slicing_iteration_check"],
            "lifespan.detect_calls": detect,
            "lifespan.detect_s": t["detect_blowup"],
            "lifespan.blowup_frac": k["blowups"] / detect if detect else 0.0,
            "lifespan.fit_s": t["fit_records"],
            "ode.kato_s": t["kato_blowup_time"],
            "ode.comparison_s": (t["forward_comparison"]
                                 + t["backward_comparison"]),
            "ode.calls": self.layer_entries["ode"],
            "cli.config_s": t["cli.config"],
            "cli.self_s": self.layer_self["cli"],
            "trace.wall_s": wall_s,
        }


# -- counts taken at the span boundary ------------------------------------------

class _Args:
    """Call arguments by parameter name, without the cost of Signature.bind."""

    __slots__ = ("params", "args", "kwargs")

    def __init__(self, params, args, kwargs):
        self.params, self.args, self.kwargs = params, args, kwargs

    def __getitem__(self, name):
        i = self.params.index(name)
        return self.args[i] if i < len(self.args) else self.kwargs[name]


def _count_kernel(tr, a, result, entry, dur):
    from aeblow import _kernels
    m_done = int(result[0])
    m0 = int(a["m0"])
    steps = m_done - m0
    ncell = len(a["u"])
    last = ncell - 2                      # highest index the window may reach
    edges = np.concatenate(([a["edge"]], a["rec_edge"][m0 + 1:m_done]))
    active = np.minimum(edges + _kernels._EDGE_PAD, last) + 1
    tr.counts["kernel_steps"] += steps
    tr.counts["kernel_cell_steps"] += steps * ncell
    tr.counts["kernel_active_cells"] += int(active.sum())


def _count_init(tr, a, result, entry, dur):
    tr.counts["grid_cells"] += len(result.u)


def _count_evolve(tr, a, result, entry, dur):
    if entry:
        tr.counts["snapshots"] += len(result.snap_t)
        tr.counts["snapshot_bytes"] += result.snap_u.nbytes + result.snap_v.nbytes


def _count_map(tr, a, result, entry, dur):
    if entry:
        tr.counts["map_points"] += int(np.size(a[a.params[1]]))


def _count_eval_k(tr, a, result, entry, dur):
    tr.counts["eval_k_points"] += int(np.size(a["r"]))


def _count_member(tr, a, result, entry, dur):
    tr.durations["build_entire_solution"].append(dur)


def _count_detect(tr, a, result, entry, dur):
    tr.counts["blowups"] += bool(result.blew_up)


_COUNTERS = {
    "advance_segment": _count_kernel,
    "init": _count_init,
    "evolve_transformed": _count_evolve,
    "evolve_damped_direct": _count_evolve,
    "m_of_t": _count_map, "h_of_t": _count_map, "eta_of_s": _count_map,
    "m_tilde": _count_map,
    "eval_k": _count_eval_k,
    "build_entire_solution": _count_member,
    "detect_blowup": _count_detect,
}
