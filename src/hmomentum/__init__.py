"""Hydrogen-atom radial wave functions in the radial momentum representation.

The momentum-space radial functions in closed form (one recurrence kernel
for the trigonometric, Gegenbauer and script-D expansions and the
Lombardi-Ogilvie family) and by direct quadrature of the spherical-wave
transform, the Podolsky-Pauling family, the closed-form <r^2> and <p^2>,
and a verification suite cross-checking them, against the paper's literal
sums in exact arithmetic among others, unitarity and <p^2> included.
"""

from .forms import distribution_max_l, podolsky_pauling_G, psi_trig
from .hydrogenic import (
    PhysicalScale,
    QuantumState,
    expectation_p2,
    expectation_r2,
    normalization_constant,
    radial_wavefunction,
)
from .transform import ConvergenceError, diagonalization_residual, transform_numeric
from .verification import CheckResult, VerificationReport, run_all

__version__ = "0.1.0"
