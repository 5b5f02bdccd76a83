"""The spherical-wave integral transform and its numerical/closed paths.

The transform maps a radial function phi on (0, inf) to
(H phi)(p) = int_0^inf phi(r) e^{s i p r / hbar} r dr, where the kernel
sign s is -1 for the incoming spherical wave (the defining choice) and
+1 for the outgoing one.  The closed-form path evaluates the transform
of single Slater terms through the standard Fourier sine/cosine
integrals; the numerical path splits the oscillatory integral into sine
and cosine parts on a truncated interval and integrates each
adaptively.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

from scipy.integrate import IntegrationWarning, quad

from .hydrogenic import PhysicalScale, SlaterExpansion


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best estimate and the error bound reported by the
    integrator.
    """

    def __init__(self, message: str, estimate: complex, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class TransformConvention:
    """Kernel sign and overall-phase convention of the transform.

    kernel_sign: "incoming" (e^{-ipr}, the defining spherical wave) or
        "outgoing" (e^{+ipr}, the sign under which the trigonometric
        momentum expansion is reproduced verbatim).
    phase_prefactor: "strict_theorem1" keeps the transform as the plain
        half-line Fourier integral of r*phi(r); "paper_section4" carries
        the spherical-Hankel kernel's imaginary unit along (an overall
        factor +/- i).  Conjugation maps one kernel sign to the other,
        so every equivalence suite is covariant under the choice.
    """

    kernel_sign: str = "incoming"
    phase_prefactor: str = "paper_section4"

    def __post_init__(self):
        if self.kernel_sign not in ("incoming", "outgoing"):
            raise ValueError(f"unknown kernel_sign {self.kernel_sign!r}")
        if self.phase_prefactor not in ("paper_section4", "strict_theorem1"):
            raise ValueError(f"unknown phase_prefactor {self.phase_prefactor!r}")

    @property
    def sign(self) -> int:
        return -1 if self.kernel_sign == "incoming" else 1

    @property
    def prefactor(self) -> complex:
        if self.phase_prefactor == "strict_theorem1":
            return 1.0 + 0.0j
        return -1j * self.sign


DEFAULT_CONVENTION = TransformConvention()
# Convention under which H(R_{Nl}) equals the trigonometric closed form
# with no extra factor.
OUTGOING_STRICT = TransformConvention("outgoing", "strict_theorem1")
INCOMING_STRICT = TransformConvention("incoming", "strict_theorem1")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation for the numerical transform path."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_rho: float = 250.0
    panel_budget: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_rho <= 0 or self.panel_budget < 1:
            raise ValueError("max_rho and panel_budget must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


def _oscillatory_quad(g: Callable[[float], float], k: float, lo: float, hi: float,
                      trig: str, spec: QuadratureSpec) -> tuple[float, float]:
    """int_lo^hi g(r) * trig(k r) dr with adaptive panels."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if k == 0.0:
            if trig == "sin":
                return 0.0, 0.0
            return quad(g, lo, hi, epsabs=spec.abs_tol / 10,
                        epsrel=spec.rel_tol / 10, limit=spec.panel_budget)
        return quad(g, lo, hi, weight=trig, wvar=k,
                    epsabs=spec.abs_tol / 10, epsrel=spec.rel_tol / 10,
                    limit=spec.panel_budget)


def transform_numeric(f: Callable[[float], float], p: float,
                      conv: TransformConvention = DEFAULT_CONVENTION,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE,
                      scale: PhysicalScale = PhysicalScale(),
                      support: tuple[float, float] | None = None) -> complex:
    """Quadrature estimate of (H f)(p) for a real radial function f.

    f must decay at least exponentially or have compact support (pass
    `support` to restrict the integration interval).  Negative p is
    allowed; for real f the result at -p is the conjugate of the strict
    result at p.

    Raises:
        ConvergenceError: if the integrator's error bound exceeds
            max(abs_tol, rel_tol * |result|).
    """
    if support is not None:
        lo, hi = support
        if lo < 0 or hi <= lo:
            raise ValueError(f"bad support interval {support!r}")
    else:
        lo, hi = 0.0, spec.max_rho / (2.0 * scale.beta)
    k = abs(p) / scale.hbar

    def g(r: float) -> float:
        return f(r) * r

    re, re_err = _oscillatory_quad(g, k, lo, hi, "cos", spec)
    im, im_err = _oscillatory_quad(g, k, lo, hi, "sin", spec)
    sgn = conv.sign * (1 if p >= 0 else -1)
    value = complex(re, sgn * im)
    err = math.hypot(re_err, im_err)
    if err > max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise ConvergenceError(
            f"oscillatory quadrature error bound {err:.3e} exceeds tolerance",
            conv.prefactor * value, err,
        )
    return conv.prefactor * value


def transform_slater_closed(l_plus_t: int, p: float,
                            scale: PhysicalScale = PhysicalScale()) -> complex:
    """Exact transform of a single Slater term, in rho units.

    Returns int_0^inf rho^n e^{-rho/2} e^{i b rho} drho with
    n = l_plus_t + 1 and b = p / (2 hbar beta):

        Gamma(n+1) e^{i (n+1) theta} / (1/4 + b^2)^{(n+1)/2},
        theta = arctan(2 b).

    The r-space transform of rho^{l+t} e^{-rho/2} under the outgoing
    strict convention is this value divided by (2 beta)^2.
    """
    if l_plus_t < 0:
        raise ValueError(f"power must be >= 0, got {l_plus_t}")
    n = l_plus_t + 1
    b = p / (2.0 * scale.momentum)
    theta = math.atan2(b, 0.5)
    modulus = math.gamma(n + 1) / (0.25 + b * b) ** ((n + 1) / 2.0)
    return modulus * cmath.exp(1j * (n + 1) * theta)


def transform_slater_expansion(expansion: SlaterExpansion, p: float,
                               conv: TransformConvention = OUTGOING_STRICT) -> complex:
    """Closed-form transform of a full Slater expansion.

    All term powers must be >= 0.  Convention handling: the incoming
    kernel conjugates the outgoing strict value (real coefficients are
    assumed term-wise; complex coefficients are carried through
    linearly), and the phase prefactor multiplies the result.
    """
    scale = expansion.scale
    total = 0.0 + 0.0j
    for m, c in expansion.terms:
        if m < 0:
            raise ValueError("closed-form path requires nonnegative powers")
        base = transform_slater_closed(m, p, scale)
        if conv.sign < 0:
            base = base.conjugate()
        total += c * base
    return conv.prefactor * total / (2.0 * scale.beta) ** 2


def parseval_check(expansion: SlaterExpansion,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Position-space and momentum-space squared norms of an expansion.

    position_norm = int_0^inf |f|^2 r^2 dr; momentum_norm is the full-line
    integral of |(H f)(p)|^2 with measure dp / (2 pi hbar).  For an
    expansion normalized in L^2((0, inf), r^2 dr) both are 1.
    """
    scale = expansion.scale
    r_hi = spec.max_rho / (2.0 * scale.beta)

    def density_r(r: float) -> float:
        return abs(expansion(r)) ** 2 * r * r

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        position_norm, _ = quad(density_r, 0.0, r_hi, epsabs=1e-13, epsrel=1e-12,
                                limit=spec.panel_budget)

        def density_p(p: float) -> float:
            return abs(transform_slater_expansion(expansion, p)) ** 2

        # |H f| is even in p for real coefficients; integrate the half line.
        half, _ = quad(density_p, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12,
                       limit=spec.panel_budget)
    momentum_norm = 2.0 * half / (2.0 * math.pi * scale.hbar)
    return position_norm, momentum_norm


def diagonalization_residual(f: Callable[[float], float],
                             df: Callable[[float], float],
                             support: tuple[float, float],
                             p_grid,
                             conv: TransformConvention = INCOMING_STRICT,
                             spec: QuadratureSpec = DEFAULT_QUADRATURE,
                             scale: PhysicalScale = PhysicalScale()) -> float:
    """Max |H(p_r f)(p) - p (H f)(p)| over a momentum grid.

    f must be smooth with compact support inside (0, inf), vanishing at
    both endpoints; df is its analytic derivative.  Under the outgoing
    kernel the diagonal eigenvalue flips sign, which is accounted for.
    """
    lo, hi = support
    if lo <= 0:
        raise ValueError("support must be bounded away from r = 0")
    if abs(f(lo)) > 1e-13 or abs(f(hi)) > 1e-13:
        raise ValueError("test function must vanish at its support endpoints")

    def pf(r: float) -> float:
        # The real content of p_r f = -i hbar (f' + f/r); the -i hbar is
        # applied after the (linear) transform.
        return df(r) + f(r) / r

    worst = 0.0
    for p in p_grid:
        lhs = -1j * scale.hbar * transform_numeric(
            pf, p, conv, spec, scale, support=support)
        rhs = conv.sign * (-1) * p * transform_numeric(
            f, p, conv, spec, scale, support=support)
        worst = max(worst, abs(lhs - rhs))
    return worst
