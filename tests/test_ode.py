"""aeblow._ode against scipy.integrate as an oracle, bit for bit.

_ode repeats scipy's DOP853 solver, its dense output, solve_ivp's t_eval
loop and OdeSolution's segment rule, so every step time, state, sample and
dense value must equal scipy's (np.array_equal, not a tolerance).  solve is
held to solve_ivp with t_eval, forward and backward, and must raise
IntegrationError where solve_ivp reports a failed step; Dense, stepped with
no end time, is held to an OdeSolution over scipy's own steps with no end
time, in arrays and in floats.  The right-hand sides are random linear
systems and the ones aeblow solves: the eigenfunction shoot, the comparison
ODE and the damping caches, each captured from its call site.  Checked
against scipy 1.17.1 with numpy 2.4.6; a later scipy that reorders its
arithmetic fails here first.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, OdeSolution, solve_ivp

from aeblow import _ode, damping, entire_solutions, ode_lab
from aeblow.errors import IntegrationError
from aeblow.metric import MetricProfile


def test_tableaux_are_scipys():
    for field in "A B C E3 E5 D A_EXTRA C_EXTRA".split():
        assert np.array_equal(getattr(_ode.TABLEAU, field),
                              getattr(DOP853, field)), field


def _same_samples(fun, t_span, y0, rtol, atol, t_eval, what):
    """_ode.solve and solve_ivp with t_eval on the same arguments: the same
    samples, or, where scipy's step fails, IntegrationError with scipy's
    message.  Returns scipy's status."""
    ref = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if ref.status == -1:
        assert ref.message == _ode.TOO_SMALL_STEP
        with pytest.raises(IntegrationError) as err:
            _ode.solve(fun, t_span, y0, rtol, atol, t_eval, what)
        assert str(err.value) == f"{what} failed: {_ode.TOO_SMALL_STEP}"
    else:
        assert ref.status == 0
        assert np.array_equal(
            _ode.solve(fun, t_span, y0, rtol, atol, t_eval, what), ref.y)
    return ref.status


def _same_dense(dense, y0, rtol, atol, probes):
    """A Dense against scipy's OdeSolution over scipy's DOP853 steps of the
    same right-hand side from 0 with no end time: the same breakpoints and
    pieces, and the same values at probes and at breakpoints, in arrays and
    in floats."""
    ref = DOP853(dense.fun, 0.0, y0, math.inf, rtol=rtol, atol=atol)
    ts, pieces = [0.0], []
    while ts[-1] < probes.max():
        assert ref.step() is None
        ts.append(ref.t)
        pieces.append(ref.dense_output())
    sol = OdeSolution(ts, pieces)
    probes = np.concatenate((probes, ts[::5], ts[-1:]))
    for row in range(len(y0)):
        assert np.array_equal(dense(probes, row), sol(probes)[row])
    assert dense.ts[:len(ts)] == ts
    for got, want in zip(dense.pieces, pieces):
        assert np.array_equal(got.y_old, want.y_old)
        assert np.array_equal(got.F, want.F)
    for t in probes[::3].tolist():
        assert [dense.at(t, row) for row in range(len(y0))] == list(sol(t))


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
        assert np.array_equal(
            _ode._horner(probes, _ode._stacked([got]), np.zeros(8, int)),
            want(probes))
        for t in probes.tolist():
            assert [got.at(t, row) for row in range(len(ref.y))] == \
                list(want(t))
        if ref.status != "running":
            break


def _check_call_sites(call):
    """Run call with _ode.solve watched, then solve each captured problem
    again with scipy and compare."""
    seen = []
    real = _ode.solve

    def spy(*args):
        seen.append(args)
        return real(*args)

    with mock.patch.object(_ode, "solve", spy):
        try:
            call()
        except IntegrationError:        # a failed solve is compared too
            pass
    assert seen
    for args in seen:
        _same_samples(*args)


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
    # samples at random times, at both ends and at some of scipy's step
    # ends, where the step that ends there is read
    steps = solve_ivp(fun, span, y0, method="DOP853", rtol=rtol,
                      atol=atol).t
    t_eval = np.union1d(rng.uniform(*sorted(span), 17), steps[::3])
    t_eval = np.union1d(t_eval, span)[::1 if span[1] > span[0] else -1]
    assert _same_samples(fun, span, y0, rtol, atol, t_eval, "linear") == 0
    _same_dense(_ode.Dense(fun, y0, rtol, atol, "linear"), y0, rtol, atol,
                rng.uniform(0.0, 3.0, 20))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["flat", "power-law"]), n=st.integers(2, 4),
       lam_lo=st.floats(0.05, 0.3), r_max=st.floats(3.0, 12.0))
def test_eigen_shoot_as_scipy(kind, n, lam_lo, r_max):
    prof = (MetricProfile(kind="flat", n=n) if kind == "flat"
            else MetricProfile(kind="power-law", n=n, c=-0.1, rho=0.8))
    lams = np.linspace(lam_lo, min(1.0, entire_solutions.lambda_max(prof)), 4)
    _check_call_sites(
        lambda: entire_solutions.build_family(prof, lams, r_max, 0.1))


_DAMPINGS = {
    "scattering-power": damping.scattering_power_damping,
    "signed-oscillatory": damping.signed_oscillatory_damping,
    "tabulated": lambda mu, beta: damping.tabulated_damping(
        np.linspace(0.0, 6.0, 7), mu * np.cos(np.arange(7.0)) / beta),
}


@settings(max_examples=9, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_DAMPINGS)), mu=st.floats(-0.8, 0.8),
       beta=st.floats(1.2, 3.0), lam=st.floats(0.05, 1.0),
       T=st.floats(0.5, 15.0))
def test_comparison_solves_as_scipy(kind, mu, beta, lam, T):
    prof = _DAMPINGS[kind](mu, beta)
    _check_call_sites(lambda: ode_lab.forward_comparison(prof, lam, T))
    _check_call_sites(lambda: ode_lab.backward_comparison(prof, lam, T))


@settings(max_examples=9, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_DAMPINGS)), mu=st.floats(-0.8, 0.8),
       beta=st.floats(1.2, 3.0), t0=st.floats(1.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_damping_caches_step_as_scipy(kind, mu, beta, t0, seed):
    # the caches' own right-hand sides, stepped side by side with scipy's
    # solver forward from 0 with no end time; the (int b, h) cache also
    # backward from t0 to 0 (eta stepped back would fall below 0, where m
    # is not defined); then the profile's own caches read as scipy's
    # OdeSolution over scipy's steps
    prof = _DAMPINGS[kind](mu, beta)
    rng = np.random.default_rng(seed)
    for f, start, bound, y in ((prof._cache.fun, 0.0, math.inf, [0.0, 0.0]),
                               (prof._cache.fun, t0, 0.0, [0.3, t0]),
                               (prof._eta_cache.fun, 0.0, math.inf, [0.0])):
        _same_steps(_ode.Stepper(f, start, y, bound, 1e-12, 1e-14),
                    DOP853(f, start, y, bound, rtol=1e-12, atol=1e-14), rng)
    for cache, y0 in ((prof._eta_cache, [0.0]), (prof._cache, [0.0, 0.0])):
        _same_dense(cache, y0, damping._ODE_RTOL, damping._ODE_ATOL,
                    rng.uniform(0.0, t0, 20))


def test_dense_reads_the_piece_that_ends_at_a_breakpoint():
    # neighbouring pieces agree at their breakpoint up to the rounding of
    # the ending one, so the starting piece's y_old is moved to tell them
    # apart there, and the stack the array path reads is rebuilt
    fun, y0, _ = _linear(2, 0)
    dense = _ode.Dense(fun, y0, 1e-6, 1e-8, "linear")
    dense.at(2.0)
    k = len(dense.pieces) // 2
    t = dense.ts[k]
    ending, starting = dense.pieces[k - 1], dense.pieces[k]
    assert ending.t == starting.t_old == t
    starting.y_old = starting.y_old + 1.0
    starting._floats = None
    dense._stack = None
    for row in range(len(y0)):
        want = ending.at(t, row)
        assert starting.at(t, row) != want
        assert dense.at(t, row) == want
        assert dense(np.array([t]), row)[0] == want


def test_step_failure_is_scipys():
    # F'' = F^5 from F = 1 outruns the step-size floor at its blow-up time
    fun = lambda t, z: [z[1], z[0] ** 5]
    mine = _ode.Stepper(fun, 0.0, [1.0, 0.0], 2.0, 1e-10, 1e-10)
    ref = DOP853(fun, 0.0, [1.0, 0.0], 2.0, rtol=1e-10, atol=1e-10)
    _same_steps(mine, ref, np.random.default_rng(0), max_steps=10**4)
    assert ref.status == mine.status == "failed"
    assert mine.t == ref.t and np.array_equal(mine.y, ref.y)
    assert _same_samples(fun, (0.0, 2.0), [1.0, 0.0], 1e-10, 1e-10,
                         [0.5, 2.0], "blow-up solve") == -1
    dense = _ode.Dense(fun, [1.0, 0.0], 1e-10, 1e-10, "blow-up dense")
    with pytest.raises(IntegrationError) as err:
        dense.at(2.0)
    assert str(err.value) == f"blow-up dense failed: {_ode.TOO_SMALL_STEP}"
