"""aeblow: a numerical laboratory for radial semilinear waves on
asymptotically flat backgrounds, with time-dependent damping absorbed by a
change of variables, exponential-growth eigenfunctions for test-function
arguments, and blow-up lifespan measurement.

Submodules
----------
metric            radial metric profiles and long-range validation
damping           damping profiles and the m / h / eta change of variables
entire_solutions  exponentially growing radial eigenfunctions
ode_lab           comparison ODEs and the blow-up lemma laboratory
wave_solver       the radial finite-difference evolution and functionals
lifespan          blow-up detection, eps sweeps, lifespan exponent fits
testfn_critical   critical-exponent test functions and the slicing checker
cli               deterministic batch front-end (`aeblow` entry point)
"""

from . import (cli, damping, entire_solutions, errors, lifespan, metric,
               ode_lab, testfn_critical, wave_solver)
from .errors import (AeblowError, ConfigurationError, DomainError,
                     InsufficientDataError, IntegrationError, PositivityError)

__version__ = "0.1.0"

__all__ = [
    "cli", "damping", "entire_solutions", "errors", "lifespan", "metric",
    "ode_lab", "testfn_critical", "wave_solver",
    "AeblowError", "ConfigurationError", "DomainError",
    "InsufficientDataError", "IntegrationError", "PositivityError",
    "__version__",
]
