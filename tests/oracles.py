"""Independent reference routes used only by the tests.

The order -1/2 Ferrers functions (a third assembly of the momentum wave
function), the spherical Bessel function j_l by recurrence and the
spherical Neumann function n_0, and the radial momentum operator applied
term-wise to a Slater expansion (the p_r check of the Schroedinger
equation).
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


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function j_l(x).

    Upward recurrence for x >= l; downward (Miller) recurrence for x < l,
    where the upward direction is unstable.  j_0(0) = 1 by continuity.
    """
    if l < 0:
        raise ValueError(f"order must be >= 0, got {l}")
    x = float(x)
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    j0 = math.sin(x) / x
    if l == 0:
        return j0
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if l == 1:
        return j1
    if abs(x) >= l:
        prev, cur = j0, j1
        for k in range(1, l):
            prev, cur = cur, (2 * k + 1) / x * cur - prev
        return cur
    # Miller's algorithm: recurse downward from well above l, then
    # normalize with the known j_0.
    top = l + int(abs(x)) + 25
    jp1 = 0.0
    jc = 1e-30
    out = 0.0
    for k in range(top, 0, -1):
        jm1 = (2 * k + 1) / x * jc - jp1
        jp1, jc = jc, jm1
        if k - 1 == l:
            out = jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp1 *= 1e-250
            out *= 1e-250
    return out * (j0 / jc)


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
