"""Independent reference routes used only by the tests.

The order -1/2 Ferrers functions (a third assembly of the momentum wave
function), the spherical Neumann function n_0, and the radial momentum
operator applied term-wise to a Slater expansion (the p_r check of the
Schroedinger equation).
"""

import math

from hmomentum.hydrogenic import SlaterExpansion
from hmomentum.specfun import gegenbauer_C, gegenbauer_D1


def _check_half_integer_degree(nu: float) -> int:
    """Map nu to the integer n = nu - 1/2 used by the order -1/2 family."""
    n = nu - 0.5
    if abs(n - round(n)) > 1e-12 or round(n) < 0:
        raise ValueError(
            f"order -1/2 Ferrers functions implemented for nu - 1/2 a "
            f"nonnegative integer, got nu={nu}"
        )
    return int(round(n))


def ferrers_P_mhalf(nu: float, x: float) -> float:
    """Ferrers function of the first kind P_nu^{-1/2}(x), x in [-1, 1].

    Defined through the Gegenbauer connection with mu = 1/2:
    P_nu^{-1/2}(x) = sqrt(2/pi) * Gamma(nu+1/2)/Gamma(nu+3/2)
                     * (1-x^2)^{1/4} * C_{nu-1/2}^1(x).
    """
    n = _check_half_integer_degree(nu)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"P requires x in [-1, 1], got {x}")
    pref = math.sqrt(2.0 / math.pi) * math.gamma(nu + 0.5) / math.gamma(nu + 1.5)
    return pref * (1.0 - x * x) ** 0.25 * gegenbauer_C(n, 1.0, x)


def ferrers_Q_mhalf(nu: float, x: float) -> float:
    """Ferrers function of the second kind Q_nu^{-1/2}(x), x in (-1, 1).

    Q_nu^{-1/2}(x) = sqrt(pi/2) * Gamma(nu+1/2)/Gamma(nu+3/2)
                     * (1-x^2)^{1/4} * D_{nu-1/2}^1(x).
    """
    n = _check_half_integer_degree(nu)
    if not -1.0 < x < 1.0:
        raise ValueError(f"Q requires |x| < 1, got {x}")
    pref = math.sqrt(math.pi / 2.0) * math.gamma(nu + 0.5) / math.gamma(nu + 1.5)
    return pref * (1.0 - x * x) ** 0.25 * gegenbauer_D1(n, x)


def spherical_neumann_n0(x: float) -> float:
    """Spherical Neumann function n_0(x) = -cos(x)/x for x > 0."""
    if x <= 0:
        raise ValueError(f"n_0 requires x > 0, got {x}")
    return -math.cos(x) / x


def apply_radial_momentum(expansion: SlaterExpansion) -> SlaterExpansion:
    """Apply p_r = -i hbar (1/r) d/dr (r .) term-wise, exactly.

    Each rho^m e^{-rho/2} maps to
    -i hbar 2 beta [ (m+1) rho^{m-1} - rho^m / 2 ] e^{-rho/2}.
    A term with m = 0 produces a rho^{-1} piece (integrable against
    r^2 dr); see `SlaterExpansion.has_inverse_power`.
    """
    hbar = expansion.scale.hbar
    beta = expansion.scale.beta
    acc: dict[int, complex] = {}
    for m, c in expansion.terms:
        down = -1j * hbar * 2.0 * beta * c * (m + 1)
        if down != 0:
            acc[m - 1] = acc.get(m - 1, 0.0 + 0.0j) + down
        acc[m] = acc.get(m, 0.0 + 0.0j) + 1j * hbar * beta * c
    terms = tuple(sorted((m, c) for m, c in acc.items() if c != 0))
    return SlaterExpansion(expansion.l, terms, expansion.scale)
