"""aeblow._ode against scipy.integrate as an oracle, bit for bit.

_ode repeats scipy's DOP853 solver, its dense output, solve_ivp's t_eval
loop and OdeSolution's segment rule, so every step time, state, sample and
dense value must equal scipy's (np.array_equal, not a tolerance).  The
right-hand sides are random linear systems and the ones aeblow solves: the
eigenfunction shoot, the comparison ODE and the damping caches, each
captured from its call site.  Checked against scipy 1.17.1 with numpy 2.4.6;
a later scipy that reorders its arithmetic fails here first.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from aeblow import _ode, damping, entire_solutions, ode_lab
from aeblow.errors import IntegrationError
from aeblow.metric import MetricProfile


def test_tableaux_are_scipys():
    for field in "A B C E3 E5 D A_EXTRA C_EXTRA".split():
        assert np.array_equal(getattr(_ode.TABLEAU, field),
                              getattr(DOP853, field)), field


def _same_solution(mine, ref, probes):
    """The samples at t_eval, or the dense solution's breakpoints, pieces
    and values at probes and breakpoints."""
    assert mine.success == (ref.status == 0)
    if ref.sol is None:
        assert np.array_equal(mine.y, ref.y)
        return
    assert np.array_equal(mine.sol.ts, ref.sol.ts)
    for got, want in zip(mine.sol.pieces, ref.sol.interpolants, strict=True):
        assert np.array_equal(got.y_old, want.y_old)
        assert np.array_equal(got.F, want.F)
    probes = np.concatenate((probes, ref.sol.ts[::5]))
    assert np.array_equal(mine.sol(probes), ref.sol(probes))
    for t in probes[:5]:
        assert np.array_equal(mine.sol(t), ref.sol(t))


def _oracle(fun, t_span, y0, rtol, atol, t_eval=None, dense_output=False):
    """scipy's solve_ivp on the arguments of _ode.solve."""
    return solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                     t_eval=t_eval, dense_output=dense_output)


def _same_steps(mine, ref, rng, max_steps=60):
    """Step an _ode.Stepper and scipy's DOP853 side by side: the same
    outcome, time, state and dense piece at every step."""
    for _ in range(max_steps):
        assert mine.step() == ref.step()
        assert mine.status == ref.status
        if ref.status == "failed":
            break
        assert mine.t == ref.t and np.array_equal(mine.y, ref.y)
        got, want = mine.dense_output(), ref.dense_output()
        probes = rng.uniform(*sorted((ref.t_old, ref.t)), 8)
        assert np.array_equal(got(probes), want(probes))
        for t in probes.tolist():
            assert [got.at(t, row) for row in range(len(ref.y))] == \
                list(want(t))
        if ref.status != "running":
            break


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
       span=st.sampled_from([(0.0, 3.0), (3.0, 0.0), (-1.0, 2.5)]),
       rtol=st.sampled_from([1e-3, 1e-8, 1e-11]), per_component=st.booleans())
def test_linear_systems_step_as_scipy(n, seed, span, rtol, per_component):
    fun, y0, rng = _linear(n, seed)
    atol = rtol * 1e-2 * (np.arange(1.0, n + 1) if per_component else 1.0)
    _same_steps(_ode.Stepper(fun, span[0], y0, span[1], rtol, atol),
                DOP853(fun, span[0], y0, span[1], rtol=rtol, atol=atol),
                rng, max_steps=10**4)
    mine = _ode.solve(fun, span, y0, rtol, atol, dense_output=True)
    ref = _oracle(fun, span, y0, rtol, atol, dense_output=True)
    _same_solution(mine, ref, rng.uniform(min(span), max(span), 40))
    if span[1] > span[0]:
        t_eval = np.sort(rng.uniform(*span, 17))
        mine = _ode.solve(fun, span, y0, rtol, atol, t_eval=t_eval)
        ref = _oracle(fun, span, y0, rtol, atol, t_eval=t_eval)
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
        _same_steps(_ode.Stepper(f, start, y, bound, 1e-12, 1e-14),
                    DOP853(f, start, y, bound, rtol=1e-12, atol=1e-14), rng)


def test_step_failure_is_scipys():
    # F'' = F^5 from F = 1 outruns the step-size floor at its blow-up time
    fun = lambda t, z: [z[1], z[0] ** 5]
    mine = _ode.Stepper(fun, 0.0, [1.0, 0.0], 2.0, 1e-10, 1e-10)
    ref = DOP853(fun, 0.0, [1.0, 0.0], 2.0, rtol=1e-10, atol=1e-10)
    _same_steps(mine, ref, np.random.default_rng(0), max_steps=10**4)
    assert ref.status == mine.status == "failed"
    assert mine.t == ref.t and np.array_equal(mine.y, ref.y)
    res = _ode.solve(fun, (0.0, 2.0), [1.0, 0.0], 1e-10, 1e-10,
                     dense_output=True)
    assert not res.success and res.message == _ode.TOO_SMALL_STEP
