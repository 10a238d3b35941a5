"""aeblow._ode against scipy.integrate as an oracle, bit for bit.

_ode repeats scipy's DOP853 and RK45 solvers, their dense output, solve_ivp's
t_eval loop and event location, and OdeSolution's segment rule, so every step
time, state, dense value and event time must equal scipy's (np.array_equal,
not a tolerance).  The right-hand sides are random linear systems and the
ones aeblow solves: the eigenfunction shoot, the comparison ODE, the damping
caches and the Kato ODE, each captured from its call site.  Checked against
scipy 1.17.1 with numpy 2.4.6; a later scipy that reorders its arithmetic
fails here first.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, RK45, solve_ivp

from aeblow import _ode, damping, entire_solutions, ode_lab
from aeblow.errors import IntegrationError
from aeblow.metric import MetricProfile

_SCIPY = {"DOP853": DOP853, "RK45": RK45}


def test_tableaux_are_scipys():
    for name, names in (("DOP853", "A B C E3 E5 D A_EXTRA C_EXTRA"),
                        ("RK45", "A B C E P")):
        tab = _ode.TABLEAUX[name]
        for field in names.split():
            assert np.array_equal(getattr(tab, field),
                                  getattr(_SCIPY[name], field)), (name, field)


def _same_solution(mine, ref, probes):
    """Step times, states, event times and the dense solution at probes
    and breakpoints."""
    assert mine.status == ref.status
    assert np.array_equal(mine.t, ref.t) and np.array_equal(mine.y, ref.y)
    assert len(mine.t_events) == len(ref.t_events or [])
    for got, want in zip(mine.t_events, ref.t_events or []):
        assert np.array_equal(got, want)
    if ref.sol is not None:
        probes = np.concatenate((probes, ref.sol.ts[::5]))
        assert np.array_equal(mine.sol(probes), ref.sol(probes))
        for t in probes[:5]:
            assert np.array_equal(mine.sol(t), ref.sol(t))


def _oracle(fun, t_span, y0, rtol, atol, method="DOP853", t_eval=None,
            dense_output=False, thresholds=(), max_step=math.inf):
    """scipy's solve_ivp on the arguments of _ode.solve."""
    events = None
    if thresholds:
        events = []
        for thr in thresholds:
            ev = (lambda thr: lambda t, y: y[0] - thr)(thr)
            ev.direction = 1
            events.append(ev)
        events[-1].terminal = True
    return solve_ivp(fun, t_span, y0, method=method, rtol=rtol, atol=atol,
                     t_eval=t_eval, dense_output=dense_output, events=events,
                     max_step=max_step)


def _check_call_sites(call, rng):
    """Run call with _ode.solve watched, then solve each captured problem
    again with scipy and compare."""
    seen = []
    real = _ode.solve

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        return real(*args, **kwargs)

    with mock.patch.object(_ode, "solve", spy):
        try:
            call()
        except IntegrationError:        # a failed solve is compared too
            pass
    assert seen
    for args, kwargs in seen:
        mine, ref = real(*args, **kwargs), _oracle(*args, **kwargs)
        lo, hi = sorted(map(float, args[1]))
        _same_solution(mine, ref, rng.uniform(lo, hi, 40))


def _linear(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    w = rng.normal(size=n)
    return (lambda t, y: M @ y + np.sin(w * t)), rng.normal(size=n), rng


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       method=st.sampled_from(["DOP853", "RK45"]),
       span=st.sampled_from([(0.0, 3.0), (3.0, 0.0), (-1.0, 2.5)]),
       rtol=st.sampled_from([1e-3, 1e-8, 1e-11]),
       max_step=st.sampled_from([math.inf, 0.3]))
def test_linear_systems_step_as_scipy(n, seed, method, span, rtol, max_step):
    fun, y0, rng = _linear(n, seed)
    dense = method == "DOP853"
    mine = _ode.solve(fun, span, y0, rtol, rtol * 1e-2, method,
                      dense_output=dense, max_step=max_step)
    ref = solve_ivp(fun, span, y0, method=method, rtol=rtol, atol=rtol * 1e-2,
                    dense_output=dense, max_step=max_step)
    _same_solution(mine, ref, rng.uniform(min(span), max(span), 40))
    if span[1] > span[0] and dense:
        t_eval = np.sort(rng.uniform(*span, 17))
        mine = _ode.solve(fun, span, y0, rtol, rtol * 1e-2, method,
                          t_eval=t_eval)
        ref = solve_ivp(fun, span, y0, method=method, rtol=rtol,
                        atol=rtol * 1e-2, t_eval=t_eval)
        _same_solution(mine, ref, None)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       method=st.sampled_from(["DOP853", "RK45"]),
       backward=st.booleans())
def test_threshold_events_as_scipy(seed, method, backward):
    # y0' = a y0 + y1 grows through three thresholds; the last one ends it
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 3.0) * (-1.0 if backward else 1.0)
    fun = lambda t, y: [a * y[0] + y[1], -0.3 * y[1]]
    y0 = [rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)]
    thresholds = tuple(np.sort(rng.uniform(3.0, 1e3, 3)))
    span = (0.0, -40.0) if backward else (0.0, 40.0)
    mine = _ode.solve(fun, span, y0, 1e-9, 1e-9, method, thresholds=thresholds)
    ref = _oracle(fun, span, y0, 1e-9, 1e-9, method, thresholds=thresholds)
    assert ref.status == 1
    _same_solution(mine, ref, None)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["flat", "power-law"]), n=st.integers(2, 4),
       lam_lo=st.floats(0.05, 0.3), r_max=st.floats(3.0, 12.0),
       seed=st.integers(0, 2**32 - 1))
def test_eigen_shoot_as_scipy(kind, n, lam_lo, r_max, seed):
    prof = (MetricProfile(kind="flat", n=n) if kind == "flat"
            else MetricProfile(kind="power-law", n=n, c=-0.1, rho=0.8))
    lams = np.linspace(lam_lo, min(1.0, entire_solutions.lambda_max(prof)), 4)
    _check_call_sites(
        lambda: entire_solutions.build_family(prof, lams, r_max, 0.1),
        np.random.default_rng(seed))


_DAMPINGS = {
    "scattering-power": damping.scattering_power_damping,
    "signed-oscillatory": damping.signed_oscillatory_damping,
    "tabulated": lambda mu, beta: damping.tabulated_damping(
        np.linspace(0.0, 6.0, 7), mu * np.cos(np.arange(7.0)) / beta),
}


@settings(max_examples=9, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_DAMPINGS)), mu=st.floats(-0.8, 0.8),
       beta=st.floats(1.2, 3.0), lam=st.floats(0.05, 1.0),
       T=st.floats(0.5, 15.0), seed=st.integers(0, 2**32 - 1))
def test_comparison_solves_as_scipy(kind, mu, beta, lam, T, seed):
    prof = _DAMPINGS[kind](mu, beta)
    rng = np.random.default_rng(seed)
    _check_call_sites(lambda: ode_lab.forward_comparison(prof, lam, T), rng)
    _check_call_sites(lambda: ode_lab.backward_comparison(prof, lam, T), rng)


@settings(max_examples=9, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_DAMPINGS)), mu=st.floats(-0.8, 0.8),
       beta=st.floats(1.2, 3.0), t0=st.floats(1.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_damping_caches_step_as_scipy(kind, mu, beta, t0, seed):
    # the caches' own right-hand sides, stepped side by side with scipy's
    # solver forward from 0 with no end time; the (int b, h) cache also
    # backward from t0 to 0 (eta stepped back would fall below 0, where m
    # is not defined)
    prof = _DAMPINGS[kind](mu, beta)
    rng = np.random.default_rng(seed)
    for f, start, bound, y in ((prof._cache._f, 0.0, math.inf, [0.0, 0.0]),
                               (prof._cache._f, t0, 0.0, [0.3, t0]),
                               (prof._eta_cache._f, 0.0, math.inf, [0.0])):
        mine = _ode.Stepper(f, start, y, bound, 1e-12, 1e-14)
        ref = DOP853(f, start, y, bound, rtol=1e-12, atol=1e-14)
        for _ in range(60):
            assert mine.step() == ref.step()
            assert mine.status == ref.status
            assert mine.t == ref.t and np.array_equal(mine.y, ref.y)
            got, want = mine.dense_output(), ref.dense_output()
            probes = rng.uniform(*sorted((ref.t_old, ref.t)), 8)
            assert np.array_equal(got(probes), want(probes))
            for t in probes.tolist():
                assert [got.at(t, row) for row in range(len(y))] == \
                    list(want(t))
            if ref.status != "running":
                break


@settings(max_examples=12, deadline=None, derandomize=True)
@given(a=st.floats(1.0, 3.0), alpha=st.floats(0.0, 2.0),
       beta=st.floats(1.5, 4.0), k=st.floats(0.5, 8.0),
       f0=st.floats(0.05, 2.0), f0p=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_kato_solves_as_scipy(a, alpha, beta, k, f0, f0p, seed):
    assume((beta - 1.0) * a > alpha - 2.0)
    prob = ode_lab.KatoProblem(a=a, alpha=alpha, beta=beta, k=k, f0=f0, f0p=f0p)
    _check_call_sites(lambda: ode_lab.kato_blowup_time(prob),
                      np.random.default_rng(seed))


def test_step_failure_is_scipys():
    # F'' = F^5 outruns the step-size floor before the last threshold
    fun = lambda t, z: [z[1], z[0] ** 5]
    mine = _ode.solve(fun, (0.0, 1e6), [1.0, 0.0], 1e-10, 1e-10, "RK45",
                      thresholds=(1e8, 1e10, 1e12), max_step=1e6 / 16)
    ref = _oracle(fun, (0.0, 1e6), [1.0, 0.0], 1e-10, 1e-10, "RK45",
                  thresholds=(1e8, 1e10, 1e12), max_step=1e6 / 16)
    assert (mine.status, mine.message) == (ref.status, ref.message) == \
        (-1, _ode.TOO_SMALL_STEP)
    assert np.array_equal(mine.t, ref.t) and np.array_equal(mine.y, ref.y)
    assert not mine.success
