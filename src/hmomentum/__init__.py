"""Hydrogen-atom radial wave functions in the radial momentum representation.

The momentum-space radial functions in closed form (one recurrence kernel
for the trigonometric, Gegenbauer and script-D expansions and the
Lombardi-Ogilvie family) and by direct quadrature of the spherical-wave
transform, the Podolsky-Pauling family, and a verification suite
cross-checking them, unitarity included.
"""

from .forms import (
    coeff_a,
    distribution_max_l,
    lombardi_ogilvie_alpha,
    lombardi_ogilvie_c,
    podolsky_pauling_G,
    psi_gegenbauer,
    psi_trig,
)
from .hydrogenic import (
    PhysicalScale,
    QuantumState,
    expectation_p2,
    expectation_r2,
    normalization_constant,
    radial_wavefunction,
)
from .transform import (
    ConvergenceError,
    QuadratureSpec,
    TransformConvention,
    diagonalization_residual,
    gram_matrices,
    transform_numeric,
)
from .verification import (
    CheckResult,
    VerificationReport,
    VerifyConfig,
    run_all,
)

__version__ = "0.1.0"
