import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from aeblow import entire_solutions as es
from aeblow import metric
from aeblow.errors import DomainError


def flat3_closed_form(lam, r):
    """sinh(lam r)/(lam r), normalized to 1 at r = 1/lam."""
    x = np.asarray(lam * r, dtype=float)
    out = np.ones_like(x)
    nz = x > 0
    out[nz] = np.sinh(x[nz]) / x[nz]
    return out / math.sinh(1.0)


def test_flat_n3_matches_closed_form(flat3):
    for lam in (0.02, 0.05, 0.1):
        sol = es.build_entire_solution(flat3, lam, 50.0 / lam, dr=0.05)
        exact = flat3_closed_form(lam, sol.r)
        rel = np.max(np.abs(sol.phi - exact) / exact)
        assert rel < 1e-6


def test_flat_n3_origin_value_lambda_uniform(flat3):
    vals = [es.build_entire_solution(flat3, lam, 30.0 / lam, dr=0.05).phi[0]
            for lam in (0.1, 0.01)]
    assert vals[0] == pytest.approx(1.0 / math.sinh(1.0), rel=1e-7)
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)


def test_normalization_positivity_monotonicity(powerlaw3):
    sol = es.build_entire_solution(powerlaw3, 0.05, 120.0, dr=0.02)
    i_ball = int(round((1.0 / sol.lam) / 0.02))
    assert abs(sol.phi[i_ball] - 1.0) < 1e-10
    assert np.all(sol.phi > 0)
    assert np.all(sol.dphi >= -1e-12)
    assert np.max(sol.phi[sol.r <= sol.r_ball]) <= 1.0 + 1e-9


def test_flat_n3_exterior_value(flat3):
    sol = es.build_entire_solution(flat3, 0.1, 60.0, dr=0.05)
    i = int(round(50.0 / 0.05))
    assert sol.phi[i] == pytest.approx(math.sinh(5.0) / 5.0 / math.sinh(1.0),
                                       rel=1e-7)


def test_flat_n2_independent_ode_oracle(flat2):
    lam = 0.1
    sol = es.build_entire_solution(flat2, lam, 50.0, dr=0.05)
    # independent tight integrator of phi'' + phi'/r = lam^2 phi from a
    # Taylor start, rescaled to phi(1/lam) = 1
    r0 = 1e-6
    y0 = [1.0 + (lam * r0) ** 2 / 4.0, lam * lam * r0 / 2.0]
    rhs = lambda r, y: [y[1], lam * lam * y[0] - y[1] / r]
    res = solve_ivp(rhs, (r0, 50.0), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14, dense_output=True)
    scale = res.sol(1.0 / lam)[0]
    for r in (5.0, 20.0, 50.0):
        i = int(round(r / 0.05))
        assert sol.phi[i] == pytest.approx(res.sol(r)[0] / scale, rel=1e-6)


def test_power_law_equation_residual(powerlaw3):
    # phi' and phi'' by centred differences of phi: sol.dphi and sol.d2phi
    # would satisfy the equation by construction
    lam, dr = 0.05, 0.02
    sol = es.build_entire_solution(powerlaw3, lam, 200.0, dr=dr)
    i = np.arange(1, len(sol.r) - 1)
    i = i[sol.r[i] >= 1.0 / lam]
    r, phi = sol.r[i], sol.phi
    d1 = (phi[i + 1] - phi[i - 1]) / (2.0 * dr)
    d2 = (phi[i + 1] - 2.0 * phi[i] + phi[i - 1]) / dr ** 2
    k, k1, _ = metric.eval_k(powerlaw3, r)
    resid = d2 + ((sol.profile.n - 1) / r - k1 / k) * d1 - lam * lam * k * k * phi[i]
    rel = np.max(np.abs(resid)) / np.max(lam * lam * phi[i])
    assert rel < 1e-6


def test_envelopes_flat(flat3):
    sol = es.build_entire_solution(flat3, 0.1, 500.0, dr=0.05)
    rep = es.verify_envelopes(sol)
    # Phi/E = (1 - e^{-2x}) <x> / (2 x sinh 1) at x = lam r falls from
    # 1/sinh 1 at the origin, where E = 1, to its value at x = lam r_max = 50
    x = 50.0
    assert rep.c_high == pytest.approx(1.0 / math.sinh(1.0), rel=1e-9)
    assert rep.c_low == pytest.approx(
        -math.expm1(-2.0 * x) * math.sqrt(1.0 + x * x)
        / (2.0 * x * math.sinh(1.0)), rel=1e-9)
    assert rep.inf_phi == pytest.approx(1.0 / math.sinh(1.0), rel=1e-9)


def test_envelope_lambda_uniformity(powerlaw3):
    lam0 = 1.0
    clows = []
    for k in range(4):
        lam = lam0 / 2 ** k
        sol = es.build_entire_solution(powerlaw3, lam, 60.0 / lam, dr=0.05)
        clows.append(es.verify_envelopes(sol).c_low)
    assert max(clows) / min(clows) < 2.0


def test_derivative_bounds_flat(flat3):
    sol = es.build_entire_solution(flat3, 0.1, 20.0, dr=0.01)
    d0 = es.verify_derivative_bounds(sol)
    assert 0.0 < d0 <= 1.0 + 1e-9


def test_mu_diagnostic_flat(flat3):
    sol = es.build_entire_solution(flat3, 0.1, 400.0, dr=0.05)
    rep = es.mu_diagnostic(sol)
    assert rep.passed
    assert rep.sup_int_mu < 1.0
    assert rep.sup_mu_over_lam <= 3.0 / flat3.delta0


def test_mu_diagnostic_flat_n2(flat2):
    sol = es.build_entire_solution(flat2, 0.1, 400.0, dr=0.05)
    rep = es.mu_diagnostic(sol)
    assert rep.passed
    assert rep.sup_int_mu <= rep.bound_int


_PROFILES = st.one_of(
    st.builds(metric.flat_profile, st.integers(2, 4)),
    st.builds(metric.power_law_profile, st.integers(2, 4),
              st.floats(-0.4, 0.5), st.floats(0.5, 2.0)))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(profile=_PROFILES, count=st.integers(2, 40),
       decades=st.floats(0.5, 5.0), r_max=st.floats(2.0, 20.0),
       dr=st.sampled_from([0.02, 0.05, 0.1]))
# the absolute tolerance bites at the log Phi(0) = 0 start: at 1e-13 the
# joint row and the family of one differ by 1.8e-9 on this input
@example(profile=metric.power_law_profile(2, 0.28125, 1.5), count=2,
         decades=1.0, r_max=3.0, dr=0.02)
def test_family_rows_equal_family_of_one(profile, count, decades, r_max, dr):
    lam0 = es.lambda_max(profile)
    lams = np.geomspace(lam0 * 10.0 ** -decades, lam0, count)
    fam = es.build_family(profile, lams, r_max, dr=dr)
    for lam, row in zip(fam.lams, fam.phi):
        single = es.build_entire_solution(profile, lam, r_max, dr=dr)
        assert np.array_equal(single.r, fam.r)
        assert np.max(np.abs(row - single.phi) / single.phi) < 1e-9


def test_family_matches_closed_form(flat3):
    lams = np.geomspace(0.02, 0.2, 5)      # 1/lam from 5 to 50
    # 60: every 1/lam on the grid; 20: the two smallest lambdas continue
    # past r_max + dr to their normalization; 3: every row does
    for r_max in (60.0, 20.0, 3.0):
        fam = es.build_family(flat3, lams, r_max, dr=0.05)
        for k, lam in enumerate(fam.lams):
            exact = flat3_closed_form(lam, fam.r)
            assert np.max(np.abs(fam.phi[k] - exact) / exact) < 1e-6


def test_lambda_above_lambda0_rejected(powerlaw3):
    lam0 = es.lambda_max(powerlaw3)
    with pytest.raises(DomainError):
        es.build_entire_solution(powerlaw3, 2.0 * max(lam0, 1.0), 30.0,
                                 dr=0.05)
    # a family is checked row by row
    for bad in (2.0 * max(lam0, 1.0), 0.0):
        with pytest.raises(DomainError):
            es.build_family(powerlaw3, np.array([0.5 * lam0, bad]), 30.0,
                            dr=0.05)


def test_lambda_checked_against_the_metric():
    # a bump with R2 = 3.9 has lambda_max = 1/R2, well below 1
    r = np.linspace(0.0, 8.0, 33)
    bump = metric.tabulated_profile(
        2, r, 1.0 + 0.45 * np.exp(-4.0 * (r - 4.0) ** 2))
    lam0 = es.lambda_max(bump)
    assert lam0 == pytest.approx(1.0 / 3.9, rel=2e-3)
    with pytest.raises(DomainError, match="exceeds lambda0"):
        es.build_family(bump, np.array([0.2, 0.8]), 20.0)
    with pytest.raises(DomainError, match="exceeds lambda0"):
        es.build_entire_solution(bump, 0.8, 20.0)
    fam = es.build_family(bump, np.array([0.1, lam0]), 20.0)
    assert np.all(fam.phi > 0)


def test_residual_improves_at_order_two(flat3):
    lam = 0.1
    errs = []
    for dr in (0.1, 0.05):
        sol = es.build_entire_solution(flat3, lam, 30.0, dr=dr)
        exact = flat3_closed_form(lam, sol.r)
        errs.append(np.max(np.abs(sol.phi - exact) / exact))
    # the builder is adaptive-RK accurate; grid halving must not degrade it
    assert errs[1] <= 2.0 * errs[0] + 1e-12
