"""Overflow-safe complex Gamma-type factors.

Everything in the critical strip that involves Gamma(1-s) is a product of a
magnitude that grows or decays like exp(pi*|t|/2) with a phase factor doing
the opposite.  Forming the factors naively overflows double precision around
|t| ~ 1400, so all products here are assembled in the log domain and only
exponentiated once the cancellation has happened.  log_gamma returns that
log as a plain complex: the real part is log|Gamma| and the imaginary part
the *unreduced* argument (not wrapped mod 2*pi), so phases from several
factors accumulate linearly without branch jumps.  gamma, chi and
gamma_phase_product exponentiate their log once, at the end, and return
plain complex values: a modulus beyond double range raises OverflowError, a
tiny one underflows silently to 0.

gamma_phase_product keeps log Gamma(1-s) (2 pi)^(s-1) of the last s it saw
(a one-entry memo behind the input and pole checks), so the second of the
two dual factors that the split sums and the mean-square grid take at one s
reuses the first one's and adds only its own phase; the result is
bit-identical to a cold evaluation.

Accuracy: log_gamma is the Stirling series (DLMF 5.11.1) to the B_14 term,
with z first shifted up by ones to |z| >= 10, and the reflection formula
left of Re z = 1/2.  Against 40-digit mpmath (tools/gamma_accuracy.py, 1,500
random points per band) its error was at most 0.64 of the bound this module
states, 3 eps m log m with eps = 2^-52 and m = max(|z|, 10) (imaginary parts
modulo 2 pi), for |z| up to 1e4 and from 1e-13 to 1/2 off the poles 0, -1,
..., -50.  gamma_phase_product, with sigma in [-1, 2] and the phase that
cancels the decay of Gamma(1-s), was within 4.6e-13 relative for
|t| <= 300, 9.3e-13 in [300, 500] and 2.0e-12 in [500, 1000]; above that
its error grows like |t|, at most 3.3e-15 to 5.2e-15 times |t| per band up
to |t| = 1e5, as the rounding of a phase of size |t| log |t| in doubles
would.  factor_error_bound(t) = max(1e-12, 6e-15 |t|) is the bound stated
for it, and what fe_rhs charges for each factor.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import PoleError
from .params import POLE_TOL, check_s

__all__ = ["log_gamma", "gamma", "chi", "gamma_phase_product",
           "factor_error_bound", "log_gamma_error_bound"]

TWO_PI = 2.0 * math.pi
LOG_TWO_PI = math.log(TWO_PI)

# B_2k / (2k (2k - 1)), k = 1..7, the Stirling coefficients (DLMF 5.11.1);
# from |z| = _STIRLING_MIN on, the first omitted term is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156)
_STIRLING_MIN = 10.0
_LOG_SQRT_TWO_PI = 0.5 * LOG_TWO_PI


def _exp(w: complex) -> complex:
    """exp(w).  cmath.exp raises OverflowError for a finite w whose
    exponential is out of range; an infinite or NaN log-modulus (inf - inf
    far left of the strip) gets the same."""
    if not w.real < math.inf:
        raise OverflowError(f"log-modulus {w.real} is beyond double range")
    return cmath.exp(w)


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi*z)) without overflow for large |Im z|, and to full
    relative precision next to the integers.

    Both branches take f = Re z - n with n the nearest integer (exact), so
    sin(pi*z) next to a zero comes from the small f.  For Im z > 0 it uses
    sin(pi*z) = (i/2) e^{-i*pi*z} (1 - e^{2*pi*i*z}); the last factor, formed
    from f by expm1, lies in the unit disc about 1, so its log is principal.
    Real z gives (-1)^n sin(pi*f), the sign carried in the argument.  The
    result is continuous off the integers but the argument may differ from
    the principal one by multiples of 2*pi; exp() is unaffected.
    """
    if z.imag < 0.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    n = round(z.real)
    f = z.real - n
    if z.imag > 0.0:
        # 1 - e^{a + ib} with a = -2 pi Im z, b = 2 pi f
        a, b = -TWO_PI * z.imag, TWO_PI * f
        one_minus = complex(2.0 * math.sin(0.5 * b) ** 2
                            - math.expm1(a) * math.cos(b),
                            -math.exp(a) * math.sin(b))
        return (complex(-math.log(2.0), 0.5 * math.pi)
                - 1j * math.pi * z + cmath.log(one_minus))
    if f == 0.0:
        raise PoleError(f"sin(pi*z) vanishes at integer z = {z.real}")
    return complex(math.log(abs(math.sin(math.pi * f))),
                   math.pi * ((n + (f < 0.0)) % 2))


def log_gamma(z: complex) -> complex:
    """log Gamma(z), by the Stirling series with reflection: the real part
    is log|Gamma(z)|, the imaginary part an unreduced argument.

    The direct branch (Re z >= 1/2) is the standard continuous one; the
    reflection branch agrees with it after exponentiation (its argument may
    carry extra multiples of 2*pi).  Conjugation symmetry
    ``log_gamma(conj(z)) == conj(log_gamma(z))`` holds exactly by code path.
    """
    z = check_s(z, "z")
    if z.real <= 0.5 and abs(z - round(z.real)) <= POLE_TOL:
        raise PoleError(f"Gamma pole at z = {z!r}")
    return _log_gamma_complex(z)


def _log_gamma_complex(z: complex) -> complex:
    if z.imag < 0.0:
        return _log_gamma_complex(z.conjugate()).conjugate()
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.log(math.pi) - _log_sin_pi(z) - _log_gamma_complex(1.0 - z)
    # log Gamma(z) = log Gamma(z + n) - sum_k log(z + k): a sum of logs, not
    # the log of a product, keeps the argument unreduced
    shift = 0.0
    while abs(z) < _STIRLING_MIN:
        shift += cmath.log(z)
        z += 1.0
    return _stirling(z, cmath.log(z)) - shift


def _stirling(z, log_z):
    """The Stirling series for log Gamma(z), |z| >= _STIRLING_MIN and
    Re z > 0, given log z: plain arithmetic, so z may be a numpy array."""
    c1, c2, c3, c4, c5, c6, c7 = _STIRLING
    w = 1.0 / (z * z)
    acc = c1 + w * (c2 + w * (c3 + w * (c4 + w * (c5 + w * (c6 + w * c7)))))
    return (z - 0.5) * log_z - z + _LOG_SQRT_TWO_PI + acc / z


def gamma(z: complex) -> complex:
    """Gamma(z) = exp(log_gamma(z)).  Raises OverflowError when the result
    is not representable in double precision."""
    return _exp(log_gamma(z))


def chi(s: complex) -> complex:
    """The proportionality factor chi(s) = 2 Gamma(1-s) sin(pi s/2) (2 pi)^(s-1)
    appearing in zeta(s) = chi(s) zeta(1-s).

    Assembled entirely in the log domain.  For Re s <= 1, with sin(pi s/2)
    rewritten as (i/2) e^{-i pi s/2} (1 - e^{i pi s}), the e^{pi t/2} growth
    of the exponential cancels the decay of Gamma(1-s) before anything is
    exponentiated.  For Re s > 1 the reflection form
    chi(s) = pi (2 pi)^(s-1) / (Gamma(s) cos(pi s/2)) is used instead: it has
    no pole of Gamma(1-s) to cancel against a zero of sin(pi s/2), so it
    keeps its digits at and next to the even positive integers.  Odd
    positive integers are genuine poles.  The zeros s = 0, -2, -4, ... give 0.
    Next to a zero, _log_sin_pi(s/2) keeps the digits that 1 - e^{i pi s}
    loses; at s = 2m +- 5e-324i, which s/2 rounds to m, the sine is
    (-1)^m (pi/2) i Im s (chi is 0 to rounding only for Re s >= -14).
    """
    s = check_s(s)
    if s.real >= 1.0 - POLE_TOL:
        near = round(s.real)
        if abs(s - near) <= POLE_TOL and near % 2 == 1:
            raise PoleError(f"chi has a pole at s = {near}")
    if s.imag < 0.0:
        return chi(s.conjugate()).conjugate()
    if s.real > 1.0:
        w = (math.log(math.pi) + (s - 1.0) * LOG_TWO_PI
             - _log_gamma_complex(s) - _log_sin_pi(s / 2.0 + 0.5))
        return _exp(w)
    z = s / 2.0
    if z.imag == 0.0 and z.real.is_integer():
        if s.imag == 0.0:
            return 0j
        # Im s = 5e-324 halves to 0: the modulus comes from Im s itself
        log_sin = complex(math.log(0.5 * math.pi) + math.log(s.imag),
                          math.pi * ((z.real + 0.5) % 2.0))
    else:
        log_sin = _log_sin_pi(z)
    w = (math.log(2.0) + _log_gamma_complex(1.0 - s) + log_sin
         + (s - 1.0) * LOG_TWO_PI)
    return _exp(w)


def gamma_phase_product(s: complex, phase_coeff_of_s: float,
                        phase_const: float) -> complex:
    """Gamma(1-s) (2 pi)^(s-1) e^{(a s + b) pi i} with a = phase_coeff_of_s,
    b = phase_const, combined in the log domain.

    This is the factor shape in front of every dual sum: the exp(pi t/2)
    magnitudes of the Gamma and phase parts cancel symbolically here, so the
    result is representable even where Gamma(1-s) alone is not.
    """
    s = check_s(s)
    if s.real >= 1.0 - POLE_TOL and abs(s - round(s.real)) <= POLE_TOL:
        raise PoleError(f"Gamma(1-s) pole at s = {s!r}")
    return _exp(_gamma_power(s)
                + 1j * math.pi * (phase_coeff_of_s * s + phase_const))


def factor_error_bound(t: float) -> float:
    """The relative error of gamma_phase_product at height t that this
    module states (module docstring): max(1e-12, 6e-15 |t|)."""
    return max(1e-12, 6e-15 * abs(t))


def log_gamma_error_bound(z: complex) -> float:
    """The absolute error of log_gamma(z) that this module states, its
    imaginary part taken modulo 2 pi: 3 eps m log m, m = max(|z|, 10)."""
    m = max(abs(z), 10.0)
    return 3.0 * 2.0 ** -52 * m * math.log(m)


@lru_cache(maxsize=1)
def _gamma_power(s: complex) -> complex:
    """log Gamma(1-s) + (s-1) log(2 pi), the phase-free part of
    gamma_phase_product, memoized for the last s: the two dual factors at
    one point share it.  s = x + 0j and x - 0j share a key, which is safe:
    on the real axis log Gamma(1-s) has imaginary part +0.0 or -pi, so the
    signed zero of (s-1) log(2 pi) never shows in the sum."""
    return _log_gamma_complex(1.0 - s) + (s - 1.0) * LOG_TWO_PI
