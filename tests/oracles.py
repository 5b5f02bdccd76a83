"""Independent reference routes used only by the tests.

The order -1/2 Ferrers functions (a third assembly of the momentum wave
function) and the C^1 and D^1 they take, the spherical Bessel function j_l
by recurrence and the spherical Neumann function n_0, and the Slater-term
route: N_{Nl} in mpmath, R_{Nl} as a finite sum of rho^m e^{-rho/2} terms,
its exact term-wise transform, and the radial momentum operator applied
term-wise (the p_r check of the Schroedinger equation).  They share no code with the
package: it gives them only its PhysicalScale and QuantumState.  Also R_{Nl} by a
plain Laguerre loop per l, which pins the arithmetic of `hydrogenic._radial_stack`.
"""

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from hmomentum.hydrogenic import PhysicalScale, QuantumState


def _check_half_integer_degree(nu: float) -> int:
    """Map nu to the integer n = nu - 1/2 used by the order -1/2 family."""
    n = nu - 0.5
    if abs(n - round(n)) > 1e-12 or round(n) < 0:
        raise ValueError(
            f"order -1/2 Ferrers functions implemented for nu - 1/2 a "
            f"nonnegative integer, got nu={nu}"
        )
    return int(round(n))


def gegenbauer_D1(n: int, x):
    """D_n^1(cos theta) = cos((n+1) theta) / sin(theta), |x| < 1, x a float or an array."""
    if not np.all((-1.0 < x) & (x < 1.0)):
        raise ValueError(f"D_n^1 requires |x| < 1, got x={x}")
    return np.cos((n + 1) * np.arccos(x)) / np.sqrt(1.0 - x * x)


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
    return pref * (1.0 - x * x) ** 0.25 * float(mpmath.chebyu(n, x))  # C^1_n = U_n


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


def _spherical_bessel_series(l: int, x: float) -> float:
    """j_l(x) = x^l / (2l+1)!! sum_k (-x^2/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1))."""
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * abs(total):
        k += 1
        term *= -0.5 * x * x / (k * (2 * l + 2 * k + 1))
        total += term
    for k in range(1, l + 1):
        total *= x / (2 * k + 1)
    return total


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function j_l(x).

    The power series for x < 1; otherwise upward recurrence for x >= l and
    downward (Miller) recurrence for x < l, where the upward direction is
    unstable.  j_0(0) = 1 by continuity.
    """
    if l < 0:
        raise ValueError(f"order must be >= 0, got {l}")
    x = float(x)
    if x < 1.0:
        return _spherical_bessel_series(l, x)
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if l <= 1:
        return (j0, j1)[l]
    if x >= l:
        prev, cur = j0, j1
        for k in range(1, l):
            prev, cur = cur, (2 * k + 1) / x * cur - prev
        return cur
    # Miller's algorithm: recurse downward from well above l, then
    # normalize by whichever of j_0 and j_1 is larger, away from its zeros.
    top = l + int(x) + 25
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
    return out * (j0 / jc if abs(j0) >= abs(j1) else j1 / jp1)


def spherical_neumann_n0(x: float) -> float:
    """Spherical Neumann function n_0(x) = -cos(x)/x for x > 0."""
    if x <= 0:
        raise ValueError(f"n_0 requires x > 0, got {x}")
    return -math.cos(x) / x


@dataclass(frozen=True)
class SlaterExpansion:
    """Finite sum of Slater-type terms c rho^m e^{-rho/2}, rho = 2 beta r, as
    (power m, coefficient c) pairs; m = -1 comes from p_r of an m = 0 term."""

    terms: tuple
    scale: PhysicalScale = field(default_factory=PhysicalScale)

    def __call__(self, r: float) -> complex:
        rho = 2.0 * self.scale.beta * r
        return sum(c * rho ** m for m, c in self.terms) * math.exp(-rho / 2.0)


def normalization(state: QuantumState) -> float:
    """N_{Nl} = (2 beta)^{3/2} sqrt((N-l-1)! / (2N (N+l)!)) by mpmath at 30 digits."""
    N, l = state.N, state.l
    with mpmath.workdps(30):
        return float((2 * mpmath.mpf(state.scale.beta)) ** 1.5 * mpmath.sqrt(
            mpmath.factorial(N - l - 1) / (2 * N * mpmath.factorial(N + l))))


def slater_expansion(state: QuantumState) -> SlaterExpansion:
    """R_{Nl} as a Slater expansion: the Laguerre sum written out.

    Term t in 0..N-l-1 carries power l+t and coefficient
    N_{Nl} (-1)^t binom(N+l, N-l-1-t) / t!, with N_{Nl} of `normalization`.
    """
    N, l = state.N, state.l
    norm = normalization(state)
    return SlaterExpansion(tuple(
        (l + t, complex((-1) ** t * math.comb(N + l, N - l - 1 - t) / math.factorial(t)) * norm)
        for t in range(N - l)), state.scale)


def transform_slater_closed(l_plus_t: int, p, scale: PhysicalScale = PhysicalScale()):
    """Exact transform of a single Slater term, in rho units:
    int_0^inf rho^n e^{-rho/2} e^{i b rho} drho = Gamma(n+1) e^{i (n+1) theta}
    / (1/4 + b^2)^{(n+1)/2}, n = l_plus_t + 1, b = p / (2 hbar beta),
    theta = arctan(2 b).  Divided by (2 beta)^2, it is the outgoing
    transform of rho^{l+t} e^{-rho/2} in r.  p is a float or an array.
    """
    if l_plus_t < 0:
        raise ValueError(f"power must be >= 0, got {l_plus_t}")
    n = l_plus_t + 1
    b = p / (2.0 * scale.momentum)
    theta = np.arctan2(b, 0.5)
    modulus = math.gamma(n + 1) / (0.25 + b * b) ** ((n + 1) / 2.0)
    return modulus * np.exp(1j * (n + 1) * theta)


def transform_slater_expansion(expansion: SlaterExpansion, p, sign: int = 1):
    """Exact transform of a Slater expansion with powers >= 0, term by term,
    under the kernel sign +1 (outgoing) or -1 (incoming).

    The incoming kernel gives the outgoing value at -p (its conjugate, for
    real coefficients).
    """
    scale = expansion.scale
    total = sum(c * transform_slater_closed(m, sign * p, scale) for m, c in expansion.terms)
    return total / (2.0 * scale.beta) ** 2


def apply_radial_momentum(expansion: SlaterExpansion) -> SlaterExpansion:
    """Apply p_r = -i hbar (1/r) d/dr (r .) term-wise, exactly.

    Each rho^m e^{-rho/2} maps to
    -i hbar 2 beta [ (m+1) rho^{m-1} - rho^m / 2 ] e^{-rho/2}.
    A term with m = 0 produces a rho^{-1} piece (integrable against
    r^2 dr).
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
    return SlaterExpansion(terms, expansion.scale)


def _gauss_legendre_mp(order: int) -> tuple[list, list]:
    """The Gauss-Legendre nodes and weights of `order` on [-1, 1] at mpmath's
    working precision: Newton's method on P_order by Bonnet's recurrence, from
    numpy's nodes, and w = 2 / ((1 - x^2) P_order'(x)^2)."""
    from numpy.polynomial.legendre import leggauss

    def legendre(x):  # P_order(x) and P_order'(x)
        low, high = mpmath.mpf(1), x
        for m in range(1, order):
            low, high = high, ((2 * m + 1) * x * high - m * low) / (m + 1)
        return high, order * (x * high - low) / (x * x - 1)

    nodes = []
    for x in leggauss(order)[0]:
        x = mpmath.mpf(float(x))
        for _ in range(6):
            value, slope = legendre(x)
            x -= value / slope
        nodes.append(x)
    return nodes, [2 / ((1 - x * x) * legendre(x)[1] ** 2) for x in nodes]


def filon_weights(order: int, betas, dps: int = 40) -> tuple[list, list]:
    """int_{-1}^{1} e^{i beta t} l_k(t) dt at each beta, l_k the Lagrange basis
    of the `order` Gauss-Legendre nodes, at `dps` digits, and the nodes'
    Gauss-Legendre weights w_k.

    Each integral takes a 96-node Gauss-Legendre rule, exact for l_k times the
    Taylor polynomial of e^{i beta t} to degree 176; the rest is below
    (4 pi)^177 / 177! < 1e-120 for |beta| <= 4 pi.  Returns one list of
    mpmath complex weights per beta, and the w_k.
    """
    with mpmath.workdps(dps):
        nodes, weights = _gauss_legendre_mp(order)
        t, dt = _gauss_legendre_mp(96)
        basis = [[mpmath.fprod((s - y) / (x - y) for y in nodes if y is not x) for s in t]
                 for x in nodes]
        return ([[mpmath.fsum(w * mpmath.expj(beta * s) * l for s, w, l in zip(t, dt, row))
                  for row in basis] for beta in map(mpmath.mpf, betas)],
                weights)


def laguerre_kept(degrees, alpha: int, x) -> np.ndarray:
    """L_n^alpha(x) of each n of `degrees`, stacked, from one upward pass of
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} from L_0 = 1 and
    L_1 = 1 + alpha - x, keeping every rung."""
    kept = {0: np.ones_like(x), 1: 1.0 + alpha - x}
    prev, cur = 1.0, kept[1]
    for k in range(1, max(degrees)):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
        kept[k + 1] = cur
    return np.array([kept[n] for n in degrees])


def radial_per_l(states, rho: np.ndarray, normalization) -> np.ndarray:
    """R_{Nl} of each state at the array rho = 2 beta r >= 0, stacked, by one
    `laguerre_kept` pass per l: N_{Nl} m (normalization(state) = (m, e)) times
    rho's mantissa to the l, e^{-rho/2} and L, in that order, then 2^{e + l k}
    with k rho's exponent, and e^{-rho/2} itself where it is 0 or nan."""
    values = np.empty((len(states),) + rho.shape)
    rho_mantissa, rho_exponent = np.frexp(rho)
    decay = np.exp(-rho / 2.0)
    for l in {s.l for s in states}:
        rows = [i for i, s in enumerate(states) if s.l == l]
        norm, norm_exponent = (np.reshape(x, (-1,) + (1,) * rho.ndim)
                               for x in zip(*[normalization(states[i]) for i in rows]))
        with np.errstate(over="ignore", invalid="ignore"):
            values[rows] = np.ldexp(
                norm * rho_mantissa ** l * decay
                * laguerre_kept([states[i].N - l - 1 for i in rows], 2 * l + 1, rho),
                norm_exponent.astype(np.int32) + l * rho_exponent)
    np.copyto(values, decay, where=~(decay > 0.0))
    return values


def momentum_potential(G, N: int, l: int, q: float, dps: int = 20) -> float:
    """(2N / (pi q)) int_0^inf q' Q_l(z) G(q') dq', z = (q^2 + q'^2) / (2 q q'):
    the right side of the radial momentum-space Schroedinger equation of level N
    in q = p / hbar beta, (1 + q^2) G(q) = that, for the float function G.

    mpmath's tanh-sinh rule at `dps` digits, split at q' = q, where Q_l (the
    Legendre function of the second kind, `mpmath.legenq` of type 3) has its
    log singularity.  z - 1 = (q - q')^2 / (2 q q') is added to 1 exactly, so
    that z keeps it wherever q' is near q."""
    with mpmath.workdps(dps):
        q = mpmath.mpf(q)

        def integrand(t):
            z = mpmath.fadd(1, (q - t) ** 2 / (2 * q * t), exact=True)
            return t * mpmath.legenq(l, 0, z, type=3).real * G(float(t))

        return float(2 * N / (mpmath.pi * q) * mpmath.quad(integrand, [0, q, mpmath.inf]))
