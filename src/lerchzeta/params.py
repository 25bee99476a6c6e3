"""Shared parameter and result types, and the one statement of what a valid
input is.

The complex variable s is an ordinary Python ``complex`` (sigma = s.real,
t = s.imag); both zeta-function parameters live in (0, 1].  Rational
parameters are ``fractions.Fraction`` values, which is what the
Hurwitz-decomposition oracle needs.  check_s, check_height and check_unit
are the input checks every module applies where s, t, T, alpha or lam
enters; as_unit_fraction is the one rational-parameter rule; em_cutoff is
the one Euler-Maclaurin truncation rule, which oracles.reference_cutoff
applies at a set of lams; and MAX_TERMS bounds every sum a route forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .errors import ConfigError, DomainError

__all__ = ["LerchParams", "EvalResult", "as_unit_fraction", "check_height",
           "check_s", "check_unit", "em_cutoff", "MAX_HEIGHT", "MAX_TERMS",
           "POLE_TOL"]

MAX_DENOMINATOR = 64

# The largest |t| any route accepts.  Every sum forms its phases
# t log(n + a) in doubles, whose rounding |t| log(n + a) 2^-53 reaches a
# radian near |t| = 1e15: above it no digit of a phase is right.
MAX_HEIGHT = 1e15

# The most terms any one sum may take: a split length x or y, or an
# Euler-Maclaurin cutoff.  The balanced split at MAX_HEIGHT has
# x = y = 1.26e7, so it fits; the meanSquare split's x stops near
# t = 5.6e8, and the q x cutoff terms of one oracle value (em_cutoff) near
# |t| = 2e7 at q = 1 and 3.1e5 at q = 64.  It also bounds the points of a
# mean-square grid (T near 2e5 at the default step).  Above it a sum or
# grid would take minutes or allocate gigabytes.
MAX_TERMS = 20_000_000

# |z - nearest pole| below this counts as "at the pole".
POLE_TOL = 1e-14


def check_s(s, name: str = "s") -> complex:
    """s as a complex, refused unless its real part is finite and
    |Im s| <= MAX_HEIGHT."""
    s = complex(s)
    if not (math.isfinite(s.real) and abs(s.imag) <= MAX_HEIGHT):
        raise DomainError(f"{name} must be finite with |Im {name}| <= "
                          f"{MAX_HEIGHT:g}, got {s!r}")
    return s


def check_height(t, name: str = "t") -> float:
    """A height t (or T) as a float, refused unless |t| <= MAX_HEIGHT."""
    t = float(t)
    if not abs(t) <= MAX_HEIGHT:
        raise DomainError(f"{name} must be finite with |{name}| <= "
                          f"{MAX_HEIGHT:g}, got {t}")
    return t


def check_unit(value, name: str):
    """value, refused unless it is a real number in (0, 1] (no nan is).  A
    float skips the slower numbers.Real check."""
    if not ((type(value) is float or isinstance(value, Real))
            and 0 < value <= 1):
        raise DomainError(f"{name} must be a real in (0, 1], got {value}")
    return value


def as_unit_fraction(value, name: str = "parameter") -> Fraction:
    """Coerce to a Fraction in (0, 1] with denominator <= 64, or refuse it.

    Accepts Fractions, ints, strings like "1/3" or "0.25", and floats that
    are exactly representable with a small denominator.
    """
    try:
        f = Fraction(value)
    except (TypeError, ValueError, OverflowError):  # inf: no integer ratio
        f = None
    if f is None or check_unit(f, name).denominator > MAX_DENOMINATOR:
        raise DomainError(f"{name} = {value} is not a rational with "
                          f"denominator <= {MAX_DENOMINATOR}")
    return f


@dataclass(frozen=True)
class LerchParams:
    """The parameter pair (alpha, lam), both constrained to (0, 1]."""

    alpha: float
    lam: float

    def __post_init__(self):
        check_unit(self.alpha, "alpha")
        check_unit(self.lam, "lam")

    def conjugate_pair(self) -> "LerchParams":
        """The parameters of the conjugated function: conj(zl(s, a, lam)) =
        zl(conj(s), a, 1 - lam), with lam = 1 fixed.  Refused for a lam so
        small that 1 - lam rounds to 1, which would change the kind."""
        lam = 1.0 if self.lam == 1.0 else 1.0 - self.lam
        if lam == 1.0 != self.lam:
            raise DomainError(f"lam = {self.lam} is too small to mirror: "
                              f"1 - lam rounds to 1")
        return LerchParams(self.alpha, lam)


def em_cutoff(t: float, q: int = 1) -> int:
    """The Euler-Maclaurin direct-sum length N = max(ceil(|t|) + 10, 50) at
    height t, for each of the q Hurwitz components of one value.  From
    ceil(|t|) + 10 on, |s|/(2 pi (N + a)) <= 1/(2 pi) in the strip, so each
    B_{2k} correction is at most about (2 pi)^-2 times the one before; from
    50 on the 8th of them (oracles._BERNOULLI_TERMS) is at most 0.055 times
    the rounding floor, so a longer sum would only add rounding.  Refused
    when q N exceeds MAX_TERMS."""
    cutoff = max(math.ceil(abs(t)) + 10, 50)
    if q * cutoff > MAX_TERMS:
        raise ConfigError(f"the Euler-Maclaurin oracle would sum q x cutoff "
                          f"= {q} x {cutoff} terms per value at |t| = "
                          f"{abs(t):.6g}, above {MAX_TERMS} (MAX_TERMS)")
    return cutoff


@dataclass(frozen=True)
class EvalResult:
    """A computed value with its a-posteriori error estimate and cost.

    ``main_terms`` counts the direct-sum terms (floor(x) + 1 for sums indexed
    from n = 0), ``dual_terms`` the lattice points of one dual sum (the two
    dual sums share their range).  ``reliable`` is False when the estimate is
    not trustworthy for the requested point.
    """

    value: complex
    error_estimate: float
    main_terms: int
    dual_terms: int
    reliable: bool
