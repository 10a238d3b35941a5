import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aeblow import metric
from aeblow.errors import ConfigurationError, DomainError


def pl_k(r, c=0.5, rho=1.0):
    return 1.0 + c * (1.0 + r * r) ** (-rho / 2.0)


def pl_k1(r, c=0.5):
    # d/dr of (1+r^2)^(-1/2), times c
    return -c * r * (1.0 + r * r) ** -1.5


def pl_k2(r, c=0.5):
    return -c * ((1.0 + r * r) ** -1.5 - 3.0 * r * r * (1.0 + r * r) ** -2.5)


def test_eval_k_flat(flat3):
    k, k1, k2 = metric.eval_k(flat3, 5.0)
    assert (k, k1, k2) == (1.0, 0.0, 0.0)


def test_eval_k_power_law_origin(powerlaw3):
    k, k1, k2 = metric.eval_k(powerlaw3, 0.0)
    assert k == pytest.approx(1.5, abs=1e-14)
    assert k1 == pytest.approx(0.0, abs=1e-12)
    assert k2 == pytest.approx(-0.5, rel=1e-10)


def test_eval_k_power_law_matches_hand_derivatives(powerlaw3):
    r = np.array([0.3, 1.0, 4.0, 25.0])
    k, k1, k2 = metric.eval_k(powerlaw3, r)
    assert np.allclose(k, pl_k(r), rtol=1e-12)
    assert np.allclose(k1, pl_k1(r), rtol=1e-10)
    assert np.allclose(k2, pl_k2(r), rtol=1e-8, atol=1e-14)


def test_power_law_decays_to_one_from_above(powerlaw3):
    r = np.geomspace(0.1, 1e3, 200)
    k, _, _ = metric.eval_k(powerlaw3, r)
    assert np.all(k > 1.0)
    assert np.all(np.diff(k) < 0)
    assert k[-1] == pytest.approx(1.0, abs=1e-2)


def test_k_derivative_finite_difference_order(powerlaw3):
    r = 2.0
    errs = []
    for h in (1e-2, 5e-3):
        fd = (pl_k(r + h) - pl_k(r - h)) / (2 * h)
        errs.append(abs(metric.eval_k(powerlaw3, r)[1] - fd))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order >= 1.9


# a float radius (what solve_ivp hands a right-hand side) takes eval_k's float
# path, which must reproduce the 0-d array path bit for bit; a 1-element
# array may differ in the last bit, because numpy's vectorized pow and the
# C library's scalar pow round differently
@settings(max_examples=200, deadline=None, derandomize=True)
@given(power=st.booleans(), c=st.floats(-0.5, 0.5),
       rho=st.floats(0.0, 3.0, exclude_min=True), r=st.floats(0.0, 400.0),
       neg=st.floats(5e-324, 400.0))
def test_eval_k_float_path_matches_array_path(power, c, rho, r, neg):
    prof = metric.power_law_profile(3, c, rho) if power else metric.flat_profile(3)
    bits = lambda v: np.asarray(v, dtype=float).view(np.int64)
    want = metric.eval_k(prof, np.asarray(r))
    row = [v[0] for v in metric.eval_k(prof, np.array([r]))]
    for x in (r, np.float64(r)):
        got = metric.eval_k(prof, x)
        assert all(type(v) is float for v in got)
        assert np.array_equal(bits(got), bits(want))
        np.testing.assert_allclose(got, row, rtol=1e-15, atol=0.0)
        with pytest.raises(DomainError):
            metric.eval_k(prof, -type(x)(neg))
    with pytest.raises(DomainError):
        metric.eval_k(prof, np.array([-neg]))


def test_k_integral_flat(flat3):
    assert metric.k_integral(flat3, 3.7) == pytest.approx(3.7, rel=1e-14)
    assert metric.k_integral(flat3, 0.0) == 0.0
    with pytest.raises(DomainError):     # the grid's first node is r = 0
        metric.k_integral_grid(flat3, np.array([0.5, 1.0, 1.5]))


def test_k_integral_power_law_quadrature_oracle(powerlaw3):
    for r in (1.0, 10.0, 40.0):
        oracle = quad(pl_k, 0.0, r, epsabs=1e-13, epsrel=1e-13)[0]
        assert metric.k_integral(powerlaw3, r) == pytest.approx(oracle, rel=1e-10)
    # rho = 1 closed form: r + c asinh(r)
    assert metric.k_integral(powerlaw3, 10.0) == pytest.approx(
        10.0 + 0.5 * math.asinh(10.0), rel=1e-10)


def test_k_integral_additive(powerlaw3):
    r1, r2 = 3.0, 8.5
    inc = quad(pl_k, r1, r1 + r2, epsabs=1e-12, epsrel=1e-12)[0]
    assert metric.k_integral(powerlaw3, r1 + r2) == pytest.approx(
        metric.k_integral(powerlaw3, r1) + inc, abs=1e-9)


def test_k_integral_tabulated_quadrature_oracle():
    knots = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 8.0])
    prof = metric.tabulated_profile(3, knots, [1.0, 1.2, 1.1, 0.9, 1.0, 1.0])
    for r in (0.3, 1.37, 4.1, 7.99, 8.0, 12.3, 40.0):
        oracle = quad(lambda t: metric.eval_k(prof, t)[0], 0.0, r,
                      points=knots[(knots > 0) & (knots < r)],
                      epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert metric.k_integral(prof, r) == pytest.approx(oracle, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.0, 1e3), c=st.floats(-0.45, 0.45),
       rho=st.floats(0.5, 3.0))
def test_k_integral_sandwiched_by_delta0(r, c, rho):
    prof = metric.power_law_profile(3, c, rho)
    val = metric.k_integral(prof, r)
    assert prof.delta0 * r <= val + 1e-12
    assert val <= r / prof.delta0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(r=st.floats(1e-3, 1e3), c=st.floats(-0.45, 0.45))
def test_k_always_inside_delta0_window(r, c):
    prof = metric.power_law_profile(2, c, 1.0)
    k, _, _ = metric.eval_k(prof, r)
    assert prof.delta0 < k < 1.0 / prof.delta0


def test_g_potential_flat_n3_is_zero(flat3):
    for r in (0.1, 1.0, 7.0):
        assert metric.g_potential(flat3, r) == 0.0


def test_g_potential_flat_n2(flat2):
    assert metric.g_potential(flat2, 2.0) == pytest.approx(1.0 / 16.0,
                                                           rel=1e-12)


def test_g_potential_power_law_term_oracle(powerlaw3):
    r, n = 1.0, 3
    k, k1, k2 = pl_k(r), pl_k1(r), pl_k2(r)
    oracle = (-(n - 1) * (n - 3) / (4 * r * r) + (n - 1) * k1 / (2 * r * k)
              + k2 / (2 * k) - 0.75 * (k1 / k) ** 2)
    assert metric.g_potential(powerlaw3, r) == pytest.approx(oracle, rel=1e-10)


def test_g_potential_rejects_origin(flat2):
    with pytest.raises(DomainError):
        metric.g_potential(flat2, 0.0)


def test_r2_g_potential_bounded(powerlaw3):
    r = np.geomspace(0.05, 1e3, 300)
    vals = np.array([metric.g_potential(powerlaw3, x) for x in r])
    assert np.max(np.abs(r * r * vals)) < 10.0


def test_validate_flat_all_zero(flat3):
    rep = metric.validate_long_range(flat3, np.linspace(1e-3, 60.0, 2000))
    assert rep.passed
    assert rep.r2 == 0.0
    assert rep.lambda0 == 1.0
    assert rep.kp_l1 == 0.0 and rep.kpp_l1 == 0.0


def test_validate_power_law_passes(powerlaw3):
    rep = metric.validate_long_range(powerlaw3,
                                     np.linspace(1e-3, 80.0, 4000))
    assert rep.passed
    assert rep.kp_l1 > 0.0 and math.isfinite(rep.kp_l1)
    assert 0.0 < rep.lambda0 <= 1.0


def test_validate_flags_nondecaying_table():
    r = np.linspace(0.0, 60.0, 400)
    k = 1.0 + 0.4 * np.log1p(r) / np.log(61.0)  # grows, never decays back
    prof = metric.tabulated_profile(3, r, k, rho=1.0)
    rep = metric.validate_long_range(prof, np.linspace(1e-3, 55.0, 2000))
    assert not rep.passed
    assert rep.failures


def test_validate_r2_past_a_bump():
    # n - 1 - r K'/K < 0 on the inner flank of the bump, so R2 > 0
    r = np.linspace(0.0, 8.0, 33)
    prof = metric.tabulated_profile(
        2, r, 1.0 + 0.45 * np.exp(-4.0 * (r - 4.0) ** 2))
    rep = metric.validate_long_range(prof, np.linspace(1e-3, 50.0, 4000))
    assert rep.passed
    assert rep.r2 == pytest.approx(3.90, abs=0.005)
    assert rep.lambda0 == pytest.approx(1.0 / rep.r2, rel=1e-14)


def test_validate_needs_long_grid(powerlaw3):
    with pytest.raises(ConfigurationError):
        metric.validate_long_range(powerlaw3, np.linspace(1e-3, 2.0, 50))


def test_config_round_trip(powerlaw3, flat2):
    for prof, cfg in ((powerlaw3, {"kind": "power-law", "n": 3, "c": 0.5,
                                   "rho": 1.0}),
                      (flat2, {"kind": "flat", "n": 2})):
        back = metric.profile_from_config(cfg)
        assert back == prof
        r = np.linspace(0.0, 10.0, 50)
        assert np.allclose(metric.eval_k(back, r)[0],
                           metric.eval_k(prof, r)[0], rtol=1e-12)


def test_config_missing_key_named():
    with pytest.raises(ConfigurationError, match="'n'"):
        metric.profile_from_config({"kind": "flat"})
