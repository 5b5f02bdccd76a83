"""Arbitrary-precision oracle for the momentum wave functions.

The paper's finite sums are evaluated with exact integer coefficients at
a working precision of 2N+40 decimal digits, so cancellation between
terms costs nothing:

- `trig`, `gegenbauer` and `script_D` by the trigonometric sum
  psi = sum_t b_t e^{i k theta} cos^k theta = sum_t b_t w^k, with
  k = l+t+2 and w = cos(theta) e^{i theta} = hbar beta / (hbar beta - i p);
- `lombardi_ogilvie` by its own sum alpha = sum_k c_k z^{l+k+2},
  z = i hbar beta / (p - i hbar beta);
- `podolsky_pauling` by `mpmath.gegenbauer` in the closed form of G_{Nl}.

The polynomial sums run Horner's rule in binary fixed point on Python
integers (about five times faster than `mpmath.mpc` arithmetic); the
prefactors and the final assembly use mpmath at the same precision.
Nothing here imports the package under test.

A value passes when |value - oracle| <= REL_TOL * peak |oracle| over the
request, the tolerance of the package's form-equivalence suite.  The peak
is located in double precision by `peak_momentum` and its height is then
taken from the oracle itself (see `peak`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import comb, factorial

import mpmath
import numpy as np

REL_TOL = 1e-11
# Digits are clipped to +-MAX_DIGITS, about what a double can carry.
MAX_DIGITS = 17.0
# Samples per unit of trigonometric degree in the peak scan (see
# `peak_momentum`); the peak height is found to within 0.3%.
PEAK_SCAN_OVERSAMPLING = 64


def _bits(N: int) -> int:
    return math.ceil((2 * N + 40) * math.log2(10))


def trig_coefficients(N: int, l: int) -> list:
    """Integers C_t with b_t = C_t (2 beta)^{-1/2} sqrt((N-l-1)! / (2N (N+l)!)).

    C_t = (-1)^t 2^{l+t+2} binom(N+l, N-l-1-t) (l+t+1)! / t!, built by the
    exact term ratio from C_0.
    """
    c = comb(N + l, N - l - 1) * factorial(l + 1) * 2 ** (l + 2)
    out = [c]
    for t in range(1, N - l):
        c = c * -2 * (N - l - t) * (l + t + 1) // (t * (2 * l + 1 + t))
        out.append(c)
    return out


def lo_coefficients(N: int, l: int) -> list:
    """Integers D_k = (N+l)! c^k_{Nl}, the Lombardi-Ogilvie coefficients.

    c_k = 2^k (N-l-1)! (l+k+1)! / (k! (N-l-k-1)! (2l+k+1)!), built by the
    exact term ratio from D_0.
    """
    d = factorial(l + 1) * factorial(N + l) // factorial(2 * l + 1)
    out = [d]
    for k in range(1, N - l):
        d = d * 2 * (N - l - k) * (l + k + 1) // (k * (2 * l + 1 + k))
        out.append(d)
    return out


def _horner(coeffs: list, re: Fraction, im: Fraction, bits: int) -> mpmath.mpc:
    """sum_t coeffs[t] x^t at x = re + i im, in fixed point with `bits` bits."""
    xr = (re.numerator << bits) // re.denominator
    xi = (im.numerator << bits) // im.denominator
    ar = ai = 0
    for c in reversed(coeffs):
        ar, ai = ((ar * xr - ai * xi) >> bits) + (c << bits), (ar * xi + ai * xr) >> bits
    return mpmath.mpc(mpmath.ldexp(mpmath.mpf(ar), -bits), mpmath.ldexp(mpmath.mpf(ai), -bits))


def _mpc(re: Fraction, im: Fraction) -> mpmath.mpc:
    return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                      mpmath.mpf(im.numerator) / im.denominator)


def psi(form: str, N: int, l: int, hbar_beta: float, p: float) -> complex:
    """Oracle value of the CLI form `form` for state (N, l) at momentum p."""
    bits = _bits(N)
    b, q = Fraction(hbar_beta), Fraction(p)
    d = b * b + q * q
    with mpmath.workprec(bits):
        if form == "podolsky_pauling":
            pm, pp = mpmath.mpf(hbar_beta), mpmath.mpf(p)
            den = pm * pm + pp * pp
            g = ((2 * pm) ** mpmath.mpf(2.5) * factorial(l)
                 * mpmath.sqrt(mpmath.mpf(factorial(N - l - 1) * N)
                               / (mpmath.pi * factorial(N + l)))
                 * (4 * pm * pp) ** l / den ** (l + 2)
                 * mpmath.gegenbauer(N - l - 1, l + 1, (pm * pm - pp * pp) / den,
                                     zeroprec=2 * bits))
            return complex(g)
        if form == "lombardi_ogilvie":
            zr, zi = -b * b / d, b * q / d
            s = _horner(lo_coefficients(N, l), zr, zi, bits)
            z = _mpc(zr, zi)
            return complex(s * z ** (l + 2) / factorial(N + l))
        if form in ("trig", "gegenbauer", "script_D"):
            wr, wi = b * b / d, b * q / d
            s = _horner(trig_coefficients(N, l), wr, wi, bits)
            w = _mpc(wr, wi)
            pref = mpmath.sqrt(mpmath.mpf(factorial(N - l - 1))
                               / (2 * N * factorial(N + l)) / (2 * mpmath.mpf(hbar_beta)))
            return complex(s * w ** (l + 2) * pref)
    raise ValueError(f"unknown form {form!r}")


def digits(err: float, ref: float) -> float:
    """-log10(err / ref), clipped to +-MAX_DIGITS (err = 0 gives the cap)."""
    if err == 0.0:
        return MAX_DIGITS
    if not err < math.inf or not ref > 0.0:
        return -MAX_DIGITS
    return max(-MAX_DIGITS, min(MAX_DIGITS, -math.log10(err / ref)))


def _taylor_shift_half(coeffs: list) -> list:
    """Integer coefficients of 2^n sum_k coeffs[k] ((1 + u) / 2)^k in powers
    of u, where n = len(coeffs) - 1 (exact Taylor shift by one)."""
    n = len(coeffs) - 1
    a = [c << (n - k) for k, c in enumerate(coeffs)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _grid_size(degree: int) -> int:
    return 1 << max(8, (PEAK_SCAN_OVERSAMPLING * (degree + 1) - 1).bit_length())


@functools.lru_cache(maxsize=4096)
def peak_momentum(form: str, N: int, l: int) -> float:
    """|p| / (hbar beta) at which |psi| of state (N, l) peaks, p >= 0.

    The peak does not depend on hbar beta, and |psi(-p)| = |psi(p)|.  With
    u = e^{2 i theta}, theta = arctan(p / hbar beta), every form is a
    trigonometric polynomial of degree N+1 in 2 theta:

    - trig, gegenbauer, script_D: psi ~ sum_t C_t w^{l+t+2} with
      w = (1 + u) / 2.  Its exact coefficients in u (a Taylor shift of
      integers) are summed by one FFT.  On the unit circle max |psi| is at
      least the 2-norm of the coefficients (Parseval), so the rounding
      error at the peak is below 1e-12 of the peak for N <= 200.
    - lombardi_ogilvie equals a constant times the conjugate of trig
      (z = -conj(w), with the same term ratios), so it peaks at the same p.
    - podolsky_pauling ~ sin^l cos^{l+4}(theta) C^{l+1}_{N-l-1}(cos 2 theta),
      evaluated by the forward three-term recurrence, which is stable on
      [-1, 1], on theta in [0, pi/2).

    The grid has PEAK_SCAN_OVERSAMPLING samples per unit of degree.  By
    Bernstein's inequality |psi|^2 (degree 2N+2) then falls by at most
    0.5% between the peak and the nearest sample.
    """
    size = _grid_size(N + 1)
    if form == "podolsky_pauling":
        theta = np.arange(size // 2) * (math.pi / size)
        x = np.cos(2 * theta)
        lam, n = l + 1, N - l - 1
        prev, cur = np.ones_like(x), 2.0 * lam * x
        if n == 0:
            cur = prev
        for m in range(1, n):
            prev, cur = cur, (2.0 * x * (m + lam) * cur - (m + 2 * lam - 1) * prev) / (m + 1)
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(cur)) + (l + 4) * np.log(np.cos(theta))
            if l:
                log_abs += l * np.log(np.sin(theta))
        return math.tan(theta[int(np.argmax(log_abs))])
    if form in ("trig", "gegenbauer", "script_D", "lombardi_ogilvie"):
        coeffs = [0] * (l + 2) + trig_coefficients(N, l)
        shifted = _taylor_shift_half(coeffs)
        shift = max(0, max(abs(c) for c in shifted).bit_length() - 1000)
        values = np.abs(np.fft.fft([float(c >> shift) for c in shifted], size))
        phi = int(np.argmax(values)) * (2 * math.pi / size)
        return abs(math.tan(phi / 2))
    raise ValueError(f"unknown form {form!r}")


def peak(form: str, N: int, l: int, hbar_beta: float, pmin=-math.inf, pmax=math.inf) -> float:
    """Oracle |psi| at the first of the peak momenta +-peak_momentum * hbar
    beta that lies in [pmin, pmax] (Podolsky-Pauling: p >= 0 only; the
    other forms have |psi(-p)| = |psi(p)|), or 0 if none does."""
    q = peak_momentum(form, N, l) * hbar_beta
    candidates = (q,) if form == "podolsky_pauling" else (q, -q)
    return next((abs(psi(form, N, l, hbar_beta, p)) for p in candidates if pmin <= p <= pmax),
                0.0)


def check_grid(form, N, l, hbar_beta, points) -> list:
    """Digits of each (p, value) against the oracle, relative to the peak
    |oracle| over [min p, max p] of the given points: the larger of the
    points' own |oracle| and `peak` inside that range."""
    exact = [psi(form, N, l, hbar_beta, p) for p, _ in points]
    ps = [p for p, _ in points]
    ref = max([abs(o) for o in exact] + [peak(form, N, l, hbar_beta, min(ps), max(ps))])
    return [digits(abs(v - o), ref) for (_, v), o in zip(points, exact)]


def check_point(form, N, l, hbar_beta, p, value) -> float:
    """Digits of one value, relative to the peak |oracle| of the state over
    all momenta."""
    exact = psi(form, N, l, hbar_beta, p)
    ref = max(abs(exact), peak(form, N, l, hbar_beta))
    return digits(abs(value - exact), ref)


def passes(d: float) -> bool:
    return d >= -math.log10(REL_TOL)


def self_check() -> None:
    """Compare the oracle with closed forms of the ground state.

    Raises AssertionError when the oracle machinery is broken.
    """
    for p in (0.0, 0.7, -2.5):
        w = 1.0 / (1.0 - 1j * p)
        expected = {
            "trig": 2.0 * w * w,
            "lombardi_ogilvie": (1j / (p - 1j)) ** 2,
        }
        if p >= 0:
            expected["podolsky_pauling"] = 2.0 ** 2.5 / math.sqrt(math.pi) / (1.0 + p * p) ** 2
        for form, value in expected.items():
            got = psi(form, 1, 0, 1.0, p)
            assert abs(got - value) <= 1e-15 * abs(value), (form, p, got, value)
    # The peak locator against closed forms: |psi_trig| of N=1 is
    # 2 cos^2(theta), largest at p = 0; PP of N=2, l=1 is proportional to
    # p / (1 + p^2)^3, largest at p = 1/sqrt(5).
    assert peak_momentum.__wrapped__("trig", 1, 0) == 0.0
    q = peak_momentum.__wrapped__("podolsky_pauling", 2, 1)
    assert abs(q - 5 ** -0.5) <= 0.01, q
    # The coefficient recurrences against the literal factorial formulas.
    for N, l in ((2, 0), (5, 2), (9, 0)):
        literal = [(-1) ** t * 2 ** (l + t + 2) * comb(N + l, N - l - 1 - t)
                   * factorial(l + t + 1) // factorial(t) for t in range(N - l)]
        assert trig_coefficients(N, l) == literal, (N, l)
        lit_lo = [2 ** k * factorial(N - l - 1) * factorial(l + k + 1) * factorial(N + l)
                  // (factorial(k) * factorial(N - l - k - 1) * factorial(2 * l + k + 1))
                  for k in range(N - l)]
        assert lo_coefficients(N, l) == lit_lo, (N, l)
