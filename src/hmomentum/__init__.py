"""Hydrogen-atom radial wave functions in the radial momentum representation.

Three independent routes to the momentum-space radial functions (finite
Gegenbauer expansion, finite trigonometric expansion, and direct
quadrature of the spherical-wave transform), the historical
Podolsky-Pauling and Lombardi-Ogilvie families, and a verification suite
cross-checking every equivalence among them.
"""

from .forms import (
    coeff_a,
    distribution_max_l,
    lombardi_ogilvie_alpha,
    lombardi_ogilvie_c,
    podolsky_pauling_G,
    podolsky_pauling_chi,
    psi_gegenbauer,
    psi_trig,
)
from .hydrogenic import (
    PhysicalScale,
    QuantumState,
    SlaterExpansion,
    expectation_p2,
    expectation_r2,
    normalization_constant,
    radial_wavefunction,
    slater_expansion,
)
from .transform import (
    ConvergenceError,
    QuadratureSpec,
    TransformConvention,
    diagonalization_residual,
    parseval_check,
    transform_numeric,
    transform_slater_closed,
)
from .verification import (
    CheckResult,
    VerificationReport,
    VerifyConfig,
    run_all,
)

__version__ = "0.1.0"
