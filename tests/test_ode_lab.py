import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeblow import _kernels, damping, lifespan, metric
from aeblow import ode_lab as ol
from aeblow.damping import eta_of_s
from aeblow.errors import DomainError, IntegrationError


def test_kato_exact_blowup_time():
    # F'' = 6 F^2 with F(0)=1, F'(0)=2 has F = (1-t)^-2, blow-up at t = 1
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0, k=6.0, f0=1.0, f0p=2.0)
    res = ol.kato_blowup_time(prob, tolerance=1e-12)
    assert res.blew_up
    # measured error: 0.0 here, 3.0e-11 at the default tolerance 1e-10
    assert res.t_blowup == pytest.approx(1.0, abs=1e-9)
    assert len(res.crossings) == 3
    assert res.crossings[0] < res.crossings[1] < res.crossings[2]


def test_kato_no_blowup_within_budget():
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0, k=1e-12,
                          f0=1e-6, f0p=0.0)
    res = ol.kato_blowup_time(prob, t_budget=10.0)
    assert not res.blew_up
    assert res.t_blowup is None


def test_kato_step_failure_is_an_error():
    # F'' = F^5 from F = 1 outruns RK45 before F reaches the last threshold;
    # a stalled solve is not "no blow-up"
    with pytest.raises(IntegrationError, match=r"t=1\.21"):
        ol.kato_blowup_time(ol.KatoProblem(a=1.0, alpha=0.0, beta=5.0))


def test_delta_sweep_seeds_the_problem():
    # k, alpha and a come from the problem; only the seed follows delta
    prob = ol.KatoProblem(a=1.0, alpha=0.5, beta=2.0, k=3.0, f0=7.0)
    deltas = np.array([1e-2, 2e-2])
    times, _, _ = ol.kato_delta_sweep(prob, deltas)
    for d, t in zip(deltas, times):
        seeded = ol.KatoProblem(a=1.0, alpha=0.5, beta=2.0, k=3.0, f0=d, f0p=d)
        assert t == ol.kato_blowup_time(seeded).t_blowup


def test_delta_sweep_special_slope():
    # a=1, alpha=1, beta=2: exponent -(beta-1)/((beta-1)a - alpha + 2) = -1/2
    deltas = np.geomspace(1e-3, 1e-2, 5)
    prob = ol.KatoProblem(a=1.0, alpha=1.0, beta=2.0)
    _, slope, _ = ol.kato_delta_sweep(prob, deltas)
    theory = prob.theory_exponent
    assert theory == pytest.approx(-0.5, rel=1e-12)
    assert slope == pytest.approx(theory, rel=0.1)


def test_delta_sweep_minus_one_third():
    # a=1, alpha=0, beta=2: exponent -(1)/(1 - 0 + 2) = -1/3
    deltas = np.geomspace(1e-4, 1e-3, 5)
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0)
    _, slope, _ = ol.kato_delta_sweep(prob, deltas)
    theory = prob.theory_exponent
    assert theory == pytest.approx(-1.0 / 3.0, rel=1e-12)
    assert slope == pytest.approx(-1.0 / 3.0, rel=0.1)


def test_blowup_time_monotone_in_delta_and_k():
    prob = lambda d, k: ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0, k=k,
                                       f0=d, f0p=d)
    t_small = ol.kato_blowup_time(prob(1e-3, 1.0)).t_blowup
    t_big = ol.kato_blowup_time(prob(1e-2, 1.0)).t_blowup
    assert t_big < t_small
    t_weak = ol.kato_blowup_time(prob(1e-3, 0.5)).t_blowup
    assert t_weak > t_small


def test_kato_hypothesis_rejected():
    with pytest.raises(DomainError):
        ol.KatoProblem(a=1.0, alpha=4.0, beta=1.5)   # (beta-1)a <= alpha-2
    with pytest.raises(DomainError):
        ol.KatoProblem(a=1.0, alpha=0.0, beta=1.0)   # beta must exceed 1
    with pytest.raises(DomainError):
        ol.KatoProblem(a=0.5, alpha=0.0, beta=2.0)   # a must be >= 1
    for f0 in (0.0, -1.0):                           # the seed must be > 0
        with pytest.raises(DomainError):
            ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0, f0=f0)


def test_forward_comparison_zero_damping(zero_damping):
    lam = 0.7
    sol = ol.forward_comparison(zero_damping, lam, 10.0)
    # with mt = 1 the solution is sinh(lam t)/lam and eta(t) = t
    exact = np.sinh(lam * sol.t) / lam
    assert np.max(np.abs(sol.y - exact) / (1.0 + exact)) < 1e-9
    assert sol.c_low == pytest.approx(1.0, rel=1e-6)


def test_backward_comparison_terminal_conditions(scat_damping):
    sol = ol.backward_comparison(scat_damping, 0.5, 8.0)
    assert sol.t[-1] == 8.0 and abs(sol.y[-1]) < 1e-10
    assert sol.yp[-1] == pytest.approx(-1.0, abs=1e-10)
    assert np.all(sol.y[:-1] > 0)          # strictly positive before T
    assert sol.c_low > 0


def test_backward_zero_damping_time_reversal(zero_damping):
    lam, T = 0.4, 6.0
    sol = ol.backward_comparison(zero_damping, lam, T)
    exact = np.sinh(lam * (T - sol.t)) / lam
    assert np.max(np.abs(sol.y - exact)) < 1e-8


def test_comparison_sandwich(scat_damping):
    # c_low * sinh(lam eta) <= lam y and |y'| >= c_low cosh(lam eta)
    lam = 0.3
    sol = ol.forward_comparison(scat_damping, lam, 12.0)
    d1 = scat_damping.delta1
    assert 0 < d1 <= 1.0
    assert sol.c_low > 0
    eta = np.asarray(eta_of_s(scat_damping, sol.t[1:]))
    assert np.all(lam * sol.y[1:] >= sol.c_low * np.sinh(lam * eta) - 1e-12)
    # upper sandwich: lam*y / sinh(lam eta) stays bounded on the whole window
    ratio = lam * sol.y[1:] / np.sinh(lam * eta)
    assert np.max(ratio) < 5.0


def test_comparison_rejects_bad_args(zero_damping):
    with pytest.raises(DomainError):
        ol.forward_comparison(zero_damping, -1.0, 5.0)
    for t_max in (0.0, -2.0):
        with pytest.raises(DomainError):
            ol.forward_comparison(zero_damping, 0.5, t_max)
    with pytest.raises(DomainError):
        ol.backward_comparison(zero_damping, 0.5, -2.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(T=st.floats(1.0, 1e3), c=st.floats(1e-3, 10.0), q=st.floats(0.05, 0.9))
def test_aitken_recovers_geometric_limit(T, c, q):
    # Aitken is exact on a geometric sequence; what is left is the rounding
    # of (t1 t3 - t2^2) / den, two O(M^2) products over den.  That bound
    # exceeds 1e-9 relative near T=1e3, c=1e-3, q=0.9 (ROADMAP item 1).
    t1, t2, t3 = (T - c * q ** k for k in (1, 2, 3))
    den = t3 - 2.0 * t2 + t1
    M = max(abs(t1), abs(t2), abs(t3), T)
    assert abs(ol._aitken(t1, t2, t3) - T) <= 8 * np.finfo(float).eps * M * M / abs(den)


def test_aitken_equal_spacing_returns_last():
    assert ol._aitken(1.0, 2.0, 3.0) == 3.0
    assert ol._aitken(10.0, 10.5, 11.0) == 11.0


def test_aitken_has_one_implementation():
    assert lifespan._aitken is ol._aitken


def test_k_integral_and_table_damping_have_one_rule():
    # one Gauss-Legendre rule for int K, one np.interp for tabulated b
    assert "quad" not in vars(metric)
    assert "interp1d" not in vars(damping)
    assert "scipy.integrate" not in inspect.getsource(metric)
    assert "scipy.interpolate" not in inspect.getsource(damping)


def test_verlet_kernel_has_one_implementation():
    # the step, its stencil, which Discretization.lap also calls, and its
    # edge rule, which wave_solver._support_edge also calls
    defined = {v for v in vars(_kernels).values()
               if inspect.isfunction(v) and v.__module__ == _kernels.__name__}
    assert defined == {_kernels.advance_segment, _kernels._stencil,
                       _kernels._last_live}
