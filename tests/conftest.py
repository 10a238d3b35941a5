import dataclasses
import os

import numpy as np
import pytest

from aeblow import damping as damping_mod
from aeblow import metric as metric_mod
from aeblow import wave_solver as solver_mod


@pytest.fixture(scope="session")
def flat3():
    return metric_mod.flat_profile(3)


@pytest.fixture(scope="session")
def flat2():
    return metric_mod.flat_profile(2)


@pytest.fixture(scope="session")
def powerlaw3():
    return metric_mod.power_law_profile(3, 0.5, 1.0)


@pytest.fixture(scope="session")
def powerlaw2():
    return metric_mod.power_law_profile(2, 0.5, 1.0)


@pytest.fixture(scope="session")
def zero_damping():
    return damping_mod.zero_damping()


@pytest.fixture(scope="session")
def scat_damping():
    return damping_mod.scattering_power_damping(1.0, 2.0)


@pytest.fixture(scope="session")
def bump_data():
    return solver_mod.DataProfile(r0=1.0, u0_amp=1.0, u1_amp=1.0)


@pytest.fixture(scope="session")
def same_fields():
    """Assert two dataclasses agree on every compared field, arrays
    element by element (== on an array field would raise)."""
    def check(a, b):
        for f in dataclasses.fields(a):
            if f.compare:
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert (np.array_equal(x, y) if isinstance(x, np.ndarray)
                        else type(x) is type(y) and x == y), f.name
    return check


@pytest.fixture
def use_cores(monkeypatch):
    """Make os.sched_getaffinity report the given number of cores."""
    def use(cores):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
    return use
