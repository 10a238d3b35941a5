import math

import numpy as np
import pytest

from aeblow import lifespan as ls
from aeblow import wave_solver as ws
from aeblow.errors import (ConfigurationError, DomainError,
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


def test_sweep_refuses_critical_p(flat3, zero_damping, bump_data):
    cfg = ws.SolverConfig(dr=0.1, tmax=5.0)
    with pytest.raises(ConfigurationError):
        ls.sweep_and_fit(flat3, zero_damping, bump_data,
                         ls.geometric_eps_grid(4.0, 5),
                         ls.critical_exponent(3), cfg)


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
                           tmax_for=lambda e: min(400.0, 3.5 * 600.0 / e ** 2))
    assert fit.theory == pytest.approx(-2.0, rel=1e-14)
    assert fit.monotone
    assert -2.4 < fit.slope < -1.6
    d = fit.as_dict()
    assert set(d) >= {"slope", "intercept", "ci", "theory", "ratio", "eps", "t"}


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
