import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution, quad
from scipy.integrate._ivp.rk import Dop853DenseOutput

from aeblow import damping, ode_lab
from aeblow.errors import ConfigurationError, DomainError


def test_zero_damping_trivialities(zero_damping):
    t = np.linspace(0.0, 50.0, 11)
    assert np.all(damping.m_of_t(zero_damping, t) == 1.0)
    assert np.allclose(damping.h_of_t(zero_damping, t), t)
    assert np.allclose(damping.eta_of_s(zero_damping, t), t)
    assert zero_damping.delta1 == 1.0


def test_scattering_m_closed_form(scat_damping):
    # b = (1+t)^-2 integrates to t/(1+t)
    for t in (0.0, 3.0, 40.0):
        assert damping.m_of_t(scat_damping, t) == pytest.approx(
            math.exp(t / (1.0 + t)), rel=1e-9)


def test_signed_oscillatory_m_quadrature_oracle():
    prof = damping.signed_oscillatory_damping(0.3, 2.0)
    b = lambda t: 0.3 * math.cos(t) * (1.0 + t) ** -2.0
    oracle = math.exp(quad(b, 0.0, 10.0, epsabs=1e-12, epsrel=1e-12)[0])
    assert damping.m_of_t(prof, 10.0) == pytest.approx(oracle, rel=1e-9)


def test_round_trip_h_eta(scat_damping):
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 100.0, 100)
    s = damping.h_of_t(scat_damping, t)
    back = damping.eta_of_s(scat_damping, s)
    assert np.max(np.abs(back - t)) < 1e-8


def test_eta_bisection_oracle(scat_damping):
    # invert h at s = 5 by plain bisection
    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if damping.h_of_t(scat_damping, mid) < 5.0:
            lo = mid
        else:
            hi = mid
    assert damping.eta_of_s(scat_damping, 5.0) == pytest.approx(lo, abs=1e-9)


def test_h_eta_sandwich(scat_damping):
    d1 = scat_damping.delta1
    t = np.linspace(0.0, 100.0, 300)
    h = damping.h_of_t(scat_damping, t)
    assert np.all(h >= d1 * t - 1e-10)
    assert np.all(h <= t / d1 + 1e-10)


def test_m_tilde_range_and_limit(scat_damping):
    d1 = scat_damping.delta1
    s = np.linspace(0.0, 400.0, 200)
    mt = damping.m_tilde(scat_damping, s)
    assert np.all(mt >= d1 - 1e-12) and np.all(mt <= 1.0 / d1 + 1e-12)
    # m(t) = exp(t/(1+t)) -> e
    assert damping.m_tilde(scat_damping, 4000.0) == pytest.approx(
        math.e, rel=1e-3)
    assert damping.m_tilde(scat_damping, 0.0) == 1.0


def _table(t_end, values, signed):
    b = np.asarray(values) * (np.resize([1.0, -1.0], len(values)) if signed
                              else 1.0)
    return damping.tabulated_damping(np.linspace(0.0, t_end, len(values)), b)


_MU, _BETA = st.floats(-0.6, 0.6), st.floats(1.2, 3.0, exclude_min=True)
_TABLES = (st.floats(1.0, 20.0),
           st.lists(st.floats(0.01, 0.3), min_size=2, max_size=10))
_DAMPINGS = {
    "scattering-power": st.builds(damping.scattering_power_damping, _MU, _BETA),
    "signed-oscillatory": st.builds(damping.signed_oscillatory_damping,
                                    _MU, _BETA),
    "tabulated-positive": st.builds(_table, *_TABLES, st.just(False)),
    "tabulated-signed": st.builds(_table, *_TABLES, st.just(True))}


@pytest.mark.parametrize("kind", _DAMPINGS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(),
       times=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=6))
def test_dense_caches_agree_across_regrowth(kind, data, times):
    # the caches step on demand, so one profile asked at increasing times
    # and its twin asked at the largest time first must read the same bits
    grown = data.draw(_DAMPINGS[kind])
    twin = dataclasses.replace(grown)   # fresh caches
    maps = (damping.m_tilde, damping.eta_of_s, damping.h_of_t, damping.m_of_t)
    read = lambda prof, t: [f(prof, t) for f in maps]
    early = {t: read(grown, t) for t in sorted(times)}
    late = {t: read(twin, t) for t in sorted(times, reverse=True)}
    assert early == late
    assert [list(f(grown, np.array(times))) for f in maps] == \
        [list(f(twin, np.array(times))) for f in maps]
    # inverse pair at the times the eta cache read
    t = np.array([eta for _, eta, _, _ in early.values()])
    back = damping.eta_of_s(grown, damping.h_of_t(grown, t))
    assert np.all(np.abs(back - t) <= 1e-8 * np.maximum(t, 1.0))


@pytest.mark.parametrize("make", [
    lambda: damping.signed_oscillatory_damping(0.4, 1.5),
    lambda: damping.tabulated_damping(
        np.linspace(0.0, 8.0, 9),
        [0.3, 0.25, 0.2, 0.1, 0.15, 0.05, 0.1, 0.02, 0.0]),
], ids=["signed-oscillatory", "tabulated"])
def test_comparison_solves_step_caches_only_as_far_as_read(make):
    # a comparison solve on [0, T] reads eta on [0, T] and m on [0, eta(T)];
    # each cache stops at its first step past the furthest time read
    prof, T = make(), 20.0
    ode_lab.forward_comparison(prof, 0.2, T)
    ode_lab.backward_comparison(prof, 0.2, T)
    last_step = lambda cache: cache.tmax - cache._ts[-2]
    eta = prof._eta_cache
    assert T <= eta.tmax < T + last_step(eta)
    assert prof._cache.tmax <= (damping.eta_of_s(prof, eta.tmax)
                                + last_step(prof._cache))


@pytest.mark.parametrize("kind", _DAMPINGS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(),
       times=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=6),
       negative=st.floats(-300.0, 0.0, exclude_max=True))
def test_float_path_is_bit_identical(kind, data, times, negative):
    # a float time (what an ODE solver hands a right-hand side) skips the
    # arrays; it must give the bits of the array path, and the dense caches
    # the bits of scipy's OdeSolution over the same steps
    prof = data.draw(_DAMPINGS[kind])
    maps = (damping.m_tilde, damping.eta_of_s, damping.h_of_t)
    if prof.kind == "tabulated":
        # b bends at the knots: read every knot, the floats one ulp either
        # side of it, the table's end and a time past it, where the float
        # path must give the bits of the whole-array path too
        knots = prof.table_t.tolist()
        times = [*times, *knots, *(math.nextafter(k, math.inf) for k in knots),
                 *(math.nextafter(k, -math.inf) for k in knots[1:]),
                 2.0 * knots[-1]]
        for f in (prof.b, lambda t: damping.m_of_t(prof, t)):
            assert [f(t) for t in times] == f(np.array(times)).tolist()
    for t in times:
        for tf in (t, np.float64(t)):
            for f in (prof.b, lambda t: damping.m_of_t(prof, t)):
                got = f(tf)
                assert type(got) is float and got == f(np.asarray(t))
            for f in maps:
                got = f(prof, tf)
                assert type(got) is float
                assert got == pytest.approx(f(prof, np.array([t]))[0],
                                            rel=1e-15, abs=0.0)
    # the maps above grew both caches; rows are checked at the query times
    # and at breakpoints, where the lower of two segments is read: the float
    # path equals the own array path, which equals scipy's OdeSolution over
    # scipy's interpolants of the same steps
    for cache, rows in ((prof._cache, (0, 1)), (prof._eta_cache, (0,))):
        sol = OdeSolution(cache._ts, [Dop853DenseOutput(p.t_old, p.t, p.y_old, p.F)
                                      for p in cache._pieces])
        probe = np.array([*times, *cache._ts[::50], cache._ts[-1]])
        for row in rows:
            want = cache(probe, row)
            assert np.array_equal(want, sol(probe)[row])
            for t, w in zip(probe.tolist(), want.tolist()):
                got = cache(t, row)
                assert type(got) is float and got == w
    for f in (prof.b, *(lambda t, f=f: f(prof, t)
                        for f in (damping.m_of_t, *maps))):
        for t in (negative, np.float64(negative), np.array([negative])):
            with pytest.raises(DomainError):
                f(t)


def test_m_tilde_derivative_identity(scat_damping):
    # d mt/ds = b(eta(s)) mt(s)^2
    s, h = 2.0, 1e-4
    fd = (damping.m_tilde(scat_damping, s + h)
          - damping.m_tilde(scat_damping, s - h)) / (2 * h)
    eta = damping.eta_of_s(scat_damping, s)
    mt = damping.m_tilde(scat_damping, s)
    expected = scat_damping.b(eta) * mt * mt
    assert fd == pytest.approx(expected, rel=1e-6)


def test_signed_damping_m_stays_in_window():
    prof = damping.signed_oscillatory_damping(0.4, 1.5)
    t = np.linspace(0.0, 200.0, 400)
    m = damping.m_of_t(prof, t)
    assert np.all(m >= prof.delta1 - 1e-12)
    assert np.all(m <= 1.0 / prof.delta1 + 1e-12)


def test_nonneg_damping_m_monotone(scat_damping):
    t = np.linspace(0.0, 60.0, 200)
    m = damping.m_of_t(scat_damping, t)
    assert np.all(np.diff(m) >= -1e-12)


def test_tabulated_damping_round_trip():
    t = np.linspace(0.0, 30.0, 3000)
    b = 0.5 * np.exp(-t)
    prof = damping.tabulated_damping(t, b, tail_l1=0.1)
    assert damping.m_of_t(prof, 10.0) == pytest.approx(
        math.exp(0.5 * (1.0 - math.exp(-10.0))), rel=1e-4)
    back = damping.damping_from_config(
        {"kind": "tabulated", "table": np.column_stack((t, b)).tolist(),
         "tail_l1": 0.1})
    assert back.kind == "tabulated"
    # the declared tail sets delta1, hence the CFL step and the mt window
    assert back.tail_l1 == prof.tail_l1 == 0.1
    assert back.l1_norm == prof.l1_norm
    assert back.delta1 == prof.delta1


def test_negative_time_rejected(scat_damping):
    with pytest.raises(DomainError):
        damping.h_of_t(scat_damping, -1.0)
    with pytest.raises(DomainError):
        damping.eta_of_s(scat_damping, -0.5)
    # the dense caches step until they pass the time asked, so an infinite
    # time would never return, and a NaN one would read no segment
    prof = damping.signed_oscillatory_damping(0.4, 2.0)
    for bad in (float("nan"), math.inf):
        with pytest.raises(DomainError):
            damping.m_tilde(prof, bad)
        with pytest.raises(DomainError):
            damping.m_of_t(prof, np.array([1.0, bad]))


@pytest.mark.parametrize("make", [
    damping.zero_damping,
    lambda: damping.scattering_power_damping(0.4, 2.0),
    lambda: damping.signed_oscillatory_damping(0.4, 2.0),
    lambda: damping.tabulated_damping([0.0, 1.0, 3.0], [0.3, 0.1, 0.0])],
    ids=["zero", "scattering-power", "signed-oscillatory", "tabulated"])
def test_used_profile_freed_without_cycle_collector(make):
    # each kind's maps close over other things (the table, the eta cache
    # only, both caches), never over the profile; zero damping has no caches
    prof = make()
    for t in (3.0, np.array([1.0, 3.0])):   # steps both dense caches
        prof.b(t), damping.m_tilde(prof, t), damping.h_of_t(prof, t)
    caches = [c for c in (prof._cache, prof._eta_cache) if c is not None]
    assert len(caches) == (0 if prof.kind == "zero" else 2)
    maps = [f for f in (prof._b, prof._m, prof._mt)
            if getattr(f, "__closure__", None)]
    refs = [weakref.ref(x) for x in (prof, *caches, *maps,
                                     *(c._stepper for c in caches),
                                     *(c._pieces[-1] for c in caches))]
    del caches, maps
    gc.disable()
    try:
        del prof
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_config_errors_name_keys():
    with pytest.raises(ConfigurationError, match="'kind'"):
        damping.damping_from_config({})
    with pytest.raises(ConfigurationError, match="'mu'"):
        damping.damping_from_config({"kind": "scattering-power", "beta": 2})


def test_nonintegrable_beta_rejected():
    with pytest.raises((ConfigurationError, DomainError)):
        damping.scattering_power_damping(1.0, 1.0)


_TABLE = dict(table_t=[0.0, 1.0, 3.0, 6.0], table_b=[0.3, -0.2, 0.4, 0.0])


@pytest.mark.parametrize("made,direct", [
    (damping.zero_damping, dict(kind="zero")),
    (lambda: damping.scattering_power_damping(-0.5, 1.5),
     dict(kind="scattering-power", mu=-0.5, beta=1.5)),
    (lambda: damping.signed_oscillatory_damping(0.4, 2.0),
     dict(kind="signed-oscillatory", mu=0.4, beta=2.0)),
    (lambda: damping.tabulated_damping(_TABLE["table_t"], _TABLE["table_b"],
                                       tail_l1=0.05),
     dict(kind="tabulated", tail_l1=0.05, **_TABLE)),
])
def test_direct_profile_equals_maker(same_fields, made, direct):
    # l1_norm and the dense caches are derived, so a profile built directly
    # is the maker's: same fields, same delta1, same bits from every map
    a, b = made(), damping.DampingProfile(**direct)
    same_fields(a, b)
    assert a.delta1 == b.delta1
    t = np.array([0.0, 0.4, 2.5, 7.0])
    for f in (damping.m_of_t, damping.h_of_t, damping.eta_of_s):
        for x in (*t, t):
            assert np.array_equal(f(a, x), f(b, x))
    with pytest.raises(TypeError):
        damping.DampingProfile(l1_norm=0.0, **direct)


def test_direct_oscillatory_profile_certifies_its_l1_norm():
    # it once built with l1_norm 0 (delta1 1) and no caches
    prof = damping.DampingProfile(kind="signed-oscillatory", mu=0.4, beta=2.0)
    assert prof.delta1 == damping.signed_oscillatory_damping(0.4, 2.0).delta1
    assert prof.delta1 < 1.0
    assert damping.m_of_t(prof, 2.0) == pytest.approx(
        math.exp(quad(prof.b, 0.0, 2.0, epsabs=1e-13)[0]), rel=1e-9)


@pytest.mark.parametrize("made,direct,exc,message", [
    (lambda: damping.damping_from_config({"kind": "bogus"}),
     dict(kind="bogus"), ConfigurationError, "unknown damping kind 'bogus'"),
    (lambda: damping.scattering_power_damping(0.5, 1.0),
     dict(kind="scattering-power", mu=0.5, beta=1.0), DomainError,
     "scattering damping needs beta > 1"),
    (lambda: damping.signed_oscillatory_damping(0.5, 0.5),
     dict(kind="signed-oscillatory", mu=0.5, beta=0.5), DomainError,
     "oscillatory damping needs beta > 1"),
    (lambda: damping.tabulated_damping([0.5, 1.0], [0.1, 0.1]),
     dict(kind="tabulated", table_t=[0.5, 1.0], table_b=[0.1, 0.1]),
     ConfigurationError, "damping table must start at t=0, length >= 2"),
    (lambda: damping.tabulated_damping([0.0, 1.0], [0.1]),
     dict(kind="tabulated", table_t=[0.0, 1.0], table_b=[0.1]),
     ConfigurationError, "damping table must start at t=0, length >= 2"),
    (lambda: damping.tabulated_damping(None, None), dict(kind="tabulated"),
     ConfigurationError, "damping table must start at t=0, length >= 2"),
    (lambda: damping.tabulated_damping([0.0, 2.0, 1.0], [0.1] * 3),
     dict(kind="tabulated", table_t=[0.0, 2.0, 1.0], table_b=[0.1] * 3),
     ConfigurationError, "damping table times must increase"),
    # a negative tail gave delta1 > 1, so a too large CFL step; NaN and inf
    # failed at the first solve
    *((lambda tail=tail: damping.tabulated_damping([0.0, 1.0], [0.1] * 2,
                                                   tail_l1=tail),
       dict(kind="tabulated", table_t=[0.0, 1.0], table_b=[0.1] * 2,
            tail_l1=tail),
       ConfigurationError, "damping tail_l1 must be finite and >= 0")
      for tail in (-0.1, math.nan, math.inf)),
])
def test_bad_profile_raises_at_construction(made, direct, exc, message):
    for build in (made, lambda: damping.DampingProfile(**direct)):
        with pytest.raises(exc, match=re.escape(message)):
            build()
