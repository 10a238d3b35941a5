import dataclasses
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from aeblow import lifespan as ls
from aeblow import wave_solver as ws
from aeblow.errors import (AeblowError, ConfigurationError, DomainError,
                           InsufficientDataError, PositivityError)


def test_critical_exponent_values():
    assert ls.critical_exponent(3) == pytest.approx(1.0 + math.sqrt(2.0),
                                                    rel=1e-14)
    assert ls.critical_exponent(2) == pytest.approx(
        (3.0 + math.sqrt(17.0)) / 4.0 * 2.0, rel=1e-14)
    # n=2 root of p^2 - 3p - 2: (3 + sqrt(17)) / 2
    assert ls.critical_exponent(2) == pytest.approx(
        (3.0 + math.sqrt(17.0)) / 2.0, rel=1e-14)
    assert ls.critical_exponent(4) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(DomainError):
        ls.critical_exponent(1)


def test_critical_exponent_is_quadratic_root():
    for n in (2, 3, 4, 5, 6):
        p = ls.critical_exponent(n)
        assert (n - 1) * p * p - (n + 1) * p - 2 == pytest.approx(0.0,
                                                                  abs=1e-10)


def test_subcritical_exponent_values():
    # n=3, p=2: 2*2*1 / (2*4 - 4*2 - 2) = 4 / (-2) = -2
    assert ls.subcritical_exponent(3, 2.0) == pytest.approx(-2.0, rel=1e-14)
    with pytest.raises(DomainError):
        ls.subcritical_exponent(3, ls.critical_exponent(3))


def test_special_exponent_values():
    assert ls.special_exponent(1.5) == pytest.approx(-1.0 / 3.0, rel=1e-14)
    with pytest.raises(DomainError):
        ls.special_exponent(3.5)


def test_geometric_eps_grid():
    g = ls.geometric_eps_grid(8.0, 4, ratio=2.0)
    assert np.allclose(g, [8.0, 4.0, 2.0, 1.0])
    with pytest.raises(ConfigurationError):
        ls.geometric_eps_grid(-1.0, 4)
    with pytest.raises(ConfigurationError):
        ls.geometric_eps_grid(1.0, 4, ratio=0.9)


def test_detect_blowup_with_refinement(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.1, tmax=60.0)
    rec = ls.detect_blowup(flat3, zero_damping, bump_data, 7.0, 2.0, cfg)
    fine = ls.detect_blowup(flat3, zero_damping, bump_data, 7.0, 2.0,
                            ws.SolverConfig(dr=0.05, tmax=60.0))
    assert rec.blew_up
    assert rec.status == "blowup"
    assert len(rec.crossings) == 3
    assert rec.crossings[0] < rec.crossings[1] < rec.crossings[2]
    # the extrapolated asymptote sits at or beyond the last crossing
    assert rec.t_detected >= rec.crossings[2] - 1e-9
    # halved grid agrees within a few percent
    assert fine.blew_up
    assert abs(fine.t_detected - rec.t_detected) / rec.t_detected < 0.05


def test_detect_no_blowup_small_eps(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.1, tmax=5.0)
    rec = ls.detect_blowup(flat3, zero_damping, bump_data, 0.01, 2.0, cfg)
    assert not rec.blew_up
    assert math.isnan(rec.t_detected)
    assert rec.status == "completed"


def test_detection_monotone_in_eps(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.1, tmax=80.0)
    t7, t5 = (ls.detect_blowup(flat3, zero_damping, bump_data, eps, 2.0,
                               cfg).t_detected for eps in (7.0, 5.0))
    assert t7 < t5


@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_data_past_the_first_threshold_refused(eps, flat3, zero_damping):
    # sup|u(0)| ~ 2e6 eps: at eps 1 Aitken's extrapolation from the clamped
    # crossing t = 0 went negative, at eps 0.1 it gave a meaningless 0.125
    data = ws.DataProfile(u0_amp=2e6)
    with pytest.raises(ConfigurationError) as err:
        ls.detect_blowup(flat3, zero_damping, data, eps, 2.0,
                         ws.SolverConfig(dr=0.1))
    assert f"sup|u(0)| = {2e6 * eps:.6g}" in str(err.value)
    assert f"threshold 1e+06 eps = {1e6 * eps:.6g}" in str(err.value)


def test_sweep_refuses_critical_p(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.1, tmax=5.0)
    with pytest.raises(ConfigurationError):
        ls.sweep_and_fit(flat3, zero_damping, bump_data,
                         ls.geometric_eps_grid(4.0, 5),
                         ls.critical_exponent(3), cfg)


def test_budget_needs_p_below_critical(flat3, zero_damping, bump_data):
    # above p_c there is no small-data lifespan law to scale a budget by
    with pytest.raises(ConfigurationError, match="needs p < p_c"):
        ls.sweep_and_fit(flat3, zero_damping, bump_data,
                         ls.geometric_eps_grid(4.0, 5), 3.0,
                         ws.SolverConfig(dr=0.1, tmax=5.0), tmax_budget=100.0)


def test_sweep_needs_enough_points(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.1, tmax=5.0)
    with pytest.raises(ConfigurationError, match="at least 5 eps values"):
        ls.sweep_and_fit(flat3, zero_damping, bump_data,
                         ls.geometric_eps_grid(4.0, 3), 2.0, cfg)


def test_fit_needs_enough_blowups(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.1, tmax=2.0)   # budget too short to blow up
    with pytest.raises(InsufficientDataError):
        ls.sweep_and_fit(flat3, zero_damping, bump_data,
                         ls.geometric_eps_grid(0.1, 5), 2.0, cfg)


def test_short_sweep_slope_near_theory(flat3, zero_damping, bump_data):
    # coarse, fast sweep at large eps; the asymptotic -2 law is only
    # approached from above here, so accept a generous band around it
    cfg = ws.SolverConfig(dr=0.1, tmax=400.0)
    grid = ls.geometric_eps_grid(7.0, 5, ratio=1.3)
    fit = ls.sweep_and_fit(flat3, zero_damping, bump_data, grid, 2.0, cfg,
                           tmax_budget=2100.0)
    assert fit.theory == pytest.approx(-2.0, rel=1e-14)
    assert fit.monotone
    assert -2.4 < fit.slope < -1.6
    d = fit.as_dict()
    assert set(d) >= {"slope", "intercept", "ci", "theory", "ratio", "eps", "t"}


def test_fit_records_special_exponent():
    # n = 2, p < 2 and nonzero velocity data: the special law, -1/3 at p = 1.5
    records = [ls.LifespanRecord(eps=e, blew_up=True, t_detected=e ** -0.5,
                                 crossings=(), status="blowup")
               for e in (1.0, 0.5, 0.25, 0.125, 0.0625)]
    fit = ls.fit_records(records, 2, 1.5, ws.DataProfile())
    assert fit.theory_special == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert fit.slope == pytest.approx(-0.5, rel=1e-12)
    assert ls.fit_records(records, 2, 1.5, ws.DataProfile(u1_amp=0.0)
                          ).theory_special is None


@pytest.mark.parametrize("mode", ["bogus", "Direct", ""])
def test_unknown_solve_mode_rejected(mode, flat3, zero_damping, bump_data):
    with pytest.raises(ConfigurationError, match="'transformed' or 'direct'"):
        ls.detect_blowup(flat3, zero_damping, bump_data, 1.0, 2.0,
                         ws.SolverConfig(dr=0.1, tmax=2.0), mode=mode)


def test_blowup_record_needs_positive_time():
    with pytest.raises(PositivityError):
        ls.LifespanRecord(eps=1.0, blew_up=True, t_detected=0.0,
                          crossings=(), status="blowup")


def test_negative_eps_rejected(flat3, zero_damping, bump_data):
    with pytest.raises(DomainError):
        ls.detect_blowup(flat3, zero_damping, bump_data, -1.0, 2.0,
                         ws.SolverConfig(dr=0.1, tmax=2.0))


# -- the pooled sweep ------------------------------------------------------------

def _loop_sweep(metric, damping, data, grid, p, cfg, mode="transformed",
                tmax_budget=None):
    """The sweep as one plain loop: the reference of the pooled one.  A
    budget scales by the n = 3, p = 2 lifespan exponent 2, written out."""
    records = []
    for eps in sorted(grid, reverse=True):
        c = cfg
        if tmax_budget is not None:
            assert (metric.n, p) == (3, 2.0)
            c = dataclasses.replace(
                cfg, tmax=min(cfg.tmax, tmax_budget / float(eps) ** 2.0))
        records.append(ls.detect_blowup(metric, damping, data, float(eps), p,
                                        c, mode=mode))
    return records, ls.fit_records(records, metric.n, p, data)


SWEEPS = {
    # a time budget: each point runs to its own horizon
    "transformed-zero-budget": dict(
        grid=ls.geometric_eps_grid(7.0, 5, ratio=1.3), tmax=400.0,
        mode="transformed", damped=False, budget=2100.0),
    "direct-scattering": dict(
        grid=ls.geometric_eps_grid(7.0, 5, ratio=1.3), tmax=200.0,
        mode="direct", damped=True, budget=None),
    # eps 1.885 does not blow up by t = 100
    "smallest-eps-no-blowup": dict(
        grid=ls.geometric_eps_grid(7.0, 6, ratio=1.3), tmax=100.0,
        mode="transformed", damped=False, budget=None),
}


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_equals_the_plain_loop(case, cores, use_cores, monkeypatch,
                                     flat3, zero_damping, scat_damping,
                                     bump_data, same_fields):
    c = SWEEPS[case]
    damping = scat_damping if c["damped"] else zero_damping
    cfg = ws.SolverConfig(dr=0.1, tmax=c["tmax"])
    records, want = _loop_sweep(flat3, damping, bump_data, c["grid"], 2.0,
                                cfg, c["mode"], c["budget"])
    if case == "smallest-eps-no-blowup":
        assert [r.blew_up for r in records] == [True] * 5 + [False]
    fitted, fit = [], ls.fit_records

    def spy(recs, *args):
        fitted.append(list(recs))
        return fit(recs, *args)

    use_cores(cores)
    monkeypatch.setattr(ls, "fit_records", spy)
    got = ls.sweep_and_fit(flat3, damping, bump_data, c["grid"][::-1], 2.0,
                           cfg, mode=c["mode"], tmax_budget=c["budget"])
    same_fields(got, want)
    # merged in eps order, whatever order the workers finished in; repr
    # shows every float exactly, and a nan time equal to a nan time
    assert repr(fitted) == repr([records])
    assert multiprocessing.active_children() == []


def test_sweep_points_run_in_worker_processes(use_cores, monkeypatch, flat3,
                                              zero_damping, bump_data):
    parent, detect = os.getpid(), ls.detect_blowup

    def detect_elsewhere(*args, **kw):
        if os.getpid() == parent:
            raise AssertionError("a point ran in the calling process")
        return detect(*args, **kw)

    use_cores(2)
    monkeypatch.setattr(ls, "detect_blowup", detect_elsewhere)
    fit = ls.sweep_and_fit(flat3, zero_damping, bump_data,
                           ls.geometric_eps_grid(7.0, 5, ratio=1.3), 2.0,
                           ws.SolverConfig(dr=0.1, tmax=100.0))
    assert len(fit.eps) == 5
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [1, 2])
def test_sweep_raises_the_first_error_in_eps_order(cores, use_cores, flat3,
                                                   zero_damping, bump_data):
    # eps 7 fits in rmax 60; every smaller eps, whose larger budget is
    # submitted first, does not
    cfg = ws.SolverConfig(dr=0.1, tmax=400.0, rmax=60.0)
    grid = ls.geometric_eps_grid(7.0, 5, ratio=1.3)
    with pytest.raises(ConfigurationError) as want:
        _loop_sweep(flat3, zero_damping, bump_data, grid, 2.0, cfg,
                    tmax_budget=2100.0)
    assert "rmax=60 too small" in str(want.value)
    use_cores(cores)
    with pytest.raises(ConfigurationError) as got:
        ls.sweep_and_fit(flat3, zero_damping, bump_data, grid, 2.0, cfg,
                         tmax_budget=2100.0)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert multiprocessing.active_children() == []


def _fail():
    raise DomainError("raised in the call")


@pytest.mark.parametrize("cores", [1, 2])
def test_forked_hands_each_result_and_error_to_the_caller(cores,
                                                         use_cores):
    use_cores(cores)
    with ls._forked([os.getpid, _fail, lambda: "third"]) as (pid, fail,
                                                             third):
        assert third() == "third"
        with pytest.raises(DomainError) as err:
            fail()
        assert str(err.value) == "raised in the call"
        assert (pid() == os.getpid()) == (cores == 1)
    assert multiprocessing.active_children() == []


def test_forked_runs_each_call_in_its_own_child(use_cores):
    def call(i):
        time.sleep(0.04 * (5 - i))      # later calls finish first
        return i, os.getpid()

    use_cores(2)
    with ls._forked([lambda i=i: call(i) for i in range(5)]) as points:
        got = [point() for point in points]
    assert [i for i, _ in got] == list(range(5))
    pids = {pid for _, pid in got}
    assert len(pids) == 5 and os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_forked_names_a_child_that_ends_without_a_result(use_cores):
    use_cores(2)
    with ls._forked([lambda: os._exit(3), lambda: "b"]) as (dead, b):
        assert b() == "b"
        with pytest.raises(AeblowError) as err:
            dead()
    assert "call 0" in str(err.value)
    assert "exit code 3" in str(err.value)
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.hook = lambda: None


def _raise_unpicklable():
    raise _Unpicklable()


def test_forked_hands_over_an_error_that_cannot_be_pickled(use_cores):
    use_cores(2)
    with ls._forked([_raise_unpicklable]) as (fail,):
        with pytest.raises(AeblowError) as err:
            fail()
    assert str(err.value) == "_Unpicklable: holds a lambda"
    assert multiprocessing.active_children() == []


def test_forked_joins_its_workers_when_the_caller_raises(use_cores):
    use_cores(2)
    with pytest.raises(KeyError):
        with ls._forked([os.getpid, os.getpid]):
            raise KeyError("the caller's own error")
    assert multiprocessing.active_children() == []
