"""Hydrogen-atom radial wave functions in the radial momentum representation.

The momentum-space radial functions in closed form (one recurrence kernel
for the trigonometric, Gegenbauer and script-D expansions and the
Lombardi-Ogilvie family) and by direct quadrature of the spherical-wave
transform, the Podolsky-Pauling family, the closed-form <r^2> and <p^2>,
and a verification suite cross-checking them, against the paper's literal
sums in exact arithmetic among others, unitarity and <p^2> included.

Importing the package runs only the closed forms (`forms`, `hydrogenic`,
`specfun`) and imports no numpy: every module takes numpy from `_numpy`,
which loads it at the first array, and `transform` and `verification` are
lazy modules of the same loader, run at their first attribute, such as
the first read of `transform_numeric` or `run_all` from the package;
`__all__` and dir() list those names too.  A float p is evaluated in
Python scalars, so a single-point value (`psi_trig` at a float p, say)
needs neither numpy nor those two modules.
"""

from ._numpy import lazy
from .forms import distribution_max_l, podolsky_pauling_G, psi_trig
from .hydrogenic import (
    PhysicalScale,
    QuantumState,
    expectation_p2,
    expectation_r2,
    radial_wavefunction,
)

transform = lazy(__name__ + ".transform")
verification = lazy(__name__ + ".verification")

# The names the package takes from its lazy modules, read at first use.
_LAZY_NAMES = {"ConvergenceError": transform, "transform_numeric": transform,
               "CheckResult": verification, "VerificationReport": verification,
               "run_all": verification}

__all__ = ["PhysicalScale", "QuantumState", "expectation_p2", "expectation_r2", "psi_trig",
           "distribution_max_l", "podolsky_pauling_G", "radial_wavefunction", *_LAZY_NAMES]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_LAZY_NAMES[name], name)


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})
