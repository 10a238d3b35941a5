import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from aeblow import _kernels, _ode, damping, lifespan, metric
from aeblow import ode_lab as ol
from aeblow.damping import eta_of_s
from aeblow.errors import DomainError, IntegrationError


def _kato_time(beta, k, f0, f0p):
    """The exact blow-up time at alpha = 0,
    int_{f0}^inf dF / sqrt(f0p^2 + 2k (F^(beta+1) - f0^(beta+1)) / (beta+1)),
    by quadrature in u = f0 / F: on [0, 1/2] as u = v^m, m = 2/(beta-1),
    which smooths the u^((beta-3)/2) end; on [1/2, 1] as u = 1 - s^2, which
    smooths the 1/sqrt(1-u) end at f0p = 0, with breakpoints a decade apart
    from the bend at s = f0p / sqrt(2k f0^(beta+1))."""
    C = 2.0 * k * f0 ** (beta + 1.0) / (beta + 1.0)
    m = 2.0 / (beta - 1.0)
    near = quad(lambda v: f0 * m / math.sqrt(
        f0p ** 2 * v ** (2.0 * m + 2.0)
        - C * math.expm1((beta + 1.0) * m * math.log(v))),
        0.0, 0.5 ** (1.0 / m), epsabs=0.0, epsrel=1e-12, limit=200)[0]

    def start(s):
        E = math.expm1(-(beta + 1.0) * math.log1p(-s * s))   # u^-(beta+1) - 1
        return 2.0 * f0 * s / ((1.0 - s * s) ** 2 * math.sqrt(f0p ** 2 + C * E))

    s_end = 0.5 ** 0.5
    bend = f0p / math.sqrt(2.0 * k * f0 ** (beta + 1.0))
    points = [bend * 10.0 ** j for j in range(13)
              if 1e-12 < bend * 10.0 ** j < s_end]
    far = quad(start, 0.0, s_end, epsabs=0.0, epsrel=1e-12, limit=200,
               points=points or None)[0]
    return near + far


def test_kato_exact_blowup_time():
    # F'' = 6 F^2 with F(0)=1, F'(0)=2 has F = (1-t)^-2, blow-up at t = 1
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0, k=6.0, f0=1.0, f0p=2.0)
    res = ol.kato_blowup_time(prob)
    assert res.blew_up
    # measured error: 3.0e-13
    assert res.t_blowup == pytest.approx(1.0, abs=1e-12)


def test_kato_fifth_power_from_rest():
    # F'' = F^5 from F = 1 at rest: 1.2143253239438 by quadrature, and
    # (sqrt(3)/6) B(1/3, 1/2) in closed form
    res = ol.kato_blowup_time(ol.KatoProblem(a=1.0, alpha=0.0, beta=5.0))
    exact = _kato_time(5.0, 1.0, 1.0, 0.0)
    assert exact == pytest.approx(math.sqrt(3.0) / 6.0 * beta_fn(1 / 3, 0.5),
                                  rel=1e-14)
    assert res.t_blowup == pytest.approx(exact, rel=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(beta=st.floats(1.01, 6.0), k=st.floats(0.5, 6.0),
       f0=st.floats(0.1, 2.0), f0p=st.floats(0.0, 2.0))
def test_kato_matches_quadrature(beta, k, f0, f0p):
    # alpha = 0 makes the problem autonomous, so its blow-up time is a
    # quadrature; beta starts where KatoProblem's domain does
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=beta, k=k, f0=f0, f0p=f0p)
    res = ol.kato_blowup_time(prob)
    assert res.blew_up
    assert res.t_blowup == pytest.approx(_kato_time(beta, k, f0, f0p),
                                         rel=1e-10)


def test_kato_matches_a_solve_in_t():
    # alpha > 0, against scipy's DOP853 on F'' itself, stopped where F
    # reaches 1e8 (much further, its steps fall below the spacing of t); the
    # time left from there, 2F / ((beta-1) F'), is below 7e-13 of the
    # blow-up time on these problems
    from scipy.integrate import solve_ivp

    for prob in (ol.KatoProblem(a=2.0991497157408388, alpha=0.037109375,
                                beta=3.6662545988443824, k=2.945089450726632,
                                f0=0.07782972007021413, f0p=0.0),
                 ol.KatoProblem(a=1.0, alpha=1.5, beta=4.0, k=2.0, f0=0.5,
                                f0p=0.2)):
        def rhs(t, z):
            return [z[1],
                    prob.k * (1.0 + t) ** -prob.alpha * z[0] ** prob.beta]

        def big(t, z):
            return z[0] - 1e8
        big.terminal = True
        ref = solve_ivp(rhs, (0.0, 1e3), [prob.f0, prob.f0p], method="DOP853",
                        rtol=1e-13, atol=1e-20, events=big)
        assert ref.status == 1
        res = ol.kato_blowup_time(prob)
        assert res.blew_up
        assert res.t_blowup == pytest.approx(ref.t_events[0][0], rel=1e-11)


def test_kato_no_blowup_for_global_solutions():
    # alpha > beta + 1 with small data: F' tends to ~ 0.18, F grows only
    # linearly and exists for all time, though a solve stopped at a fixed
    # F (2e4 is reached by t ~ 1.1e5) would take it for a blow-up
    prob = ol.KatoProblem(a=2.0, alpha=7.0, beta=5.0, k=1.0, f0=1.0, f0p=0.0)
    assert ol.kato_blowup_time(prob) == ol.KatoResult(False, None)


def test_kato_blowup_past_the_budget():
    # F = (1-t)^-2 blows up at t = 1: a budget just short of it is no
    # blow-up, though t itself never passes the budget
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0, k=6.0, f0=1.0, f0p=2.0)
    assert ol.kato_blowup_time(prob, 1.0 - 1e-9) == ol.KatoResult(False, None)
    assert ol.kato_blowup_time(prob, 1.0 + 1e-9).blew_up


def test_kato_no_blowup_within_budget():
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=2.0, k=1e-12,
                          f0=1e-6, f0p=0.0)
    res = ol.kato_blowup_time(prob, t_budget=10.0)
    assert not res.blew_up
    assert res.t_blowup is None


def test_kato_step_failure_is_an_error(monkeypatch):
    # a stalled step, in t or in s, raises naming t and F; it is never
    # "no blow-up"
    step = _ode.Stepper.step
    prob = ol.KatoProblem(a=1.0, alpha=0.0, beta=5.0)
    for phase in ("rhs_t", "rhs_s"):
        def failing(self, phase=phase):
            if self._fun.__name__ == phase:
                self.status = "failed"
                return _ode.TOO_SMALL_STEP
            return step(self)

        monkeypatch.setattr(_ode.Stepper, "step", failing)
        with pytest.raises(IntegrationError, match="kato solve failed") as e:
            ol.kato_blowup_time(prob)
        t, F = map(float, re.search(r"at t=(\S+), F=(\S+): Required",
                                    str(e.value)).groups())
        if phase == "rhs_t":
            assert (t, F) == (0.0, 1.0)
        else:       # where F first reached 2 f0
            assert 0.0 < t < 1.2143 and 2.0 <= F < 3.0


def test_comparison_step_failure_is_an_error(monkeypatch, zero_damping):
    # a stalled step raises naming the comparison solve (zero damping has no
    # dense caches, whose own steps would fail first)
    def failing(self):
        self.status = "failed"
        return _ode.TOO_SMALL_STEP

    monkeypatch.setattr(_ode.Stepper, "step", failing)
    for compare in (ol.forward_comparison, ol.backward_comparison):
        with pytest.raises(IntegrationError) as e:
            compare(zero_damping, 0.5, 5.0)
        assert str(e.value) == \
            f"comparison solve failed: {_ode.TOO_SMALL_STEP}"


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
    with pytest.raises(DomainError, match="beta >= 1.01"):
        ol.KatoProblem(a=1.0, alpha=0.0, beta=1.005)  # too stiff a solve
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
    assert abs(lifespan._aitken(t1, t2, t3) - T) <= 8 * np.finfo(float).eps * M * M / abs(den)


def test_aitken_equal_spacing_returns_last():
    assert lifespan._aitken(1.0, 2.0, 3.0) == 3.0
    assert lifespan._aitken(10.0, 10.5, 11.0) == 11.0


def test_aitken_has_one_implementation():
    # blow-up detection's extrapolation; the Kato solve needs none
    assert lifespan._aitken.__module__ == lifespan.__name__
    assert not hasattr(ol, "_aitken") and not hasattr(ol, "_THRESHOLDS")


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
