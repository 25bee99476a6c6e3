"""Shared parameter and result types, and the one statement of what a valid
input is.

The complex variable s is an ordinary Python ``complex`` (sigma = s.real,
t = s.imag); both zeta-function parameters live in (0, 1].  Rational
parameters are ``fractions.Fraction`` values, which is what the
Hurwitz-decomposition oracle needs.  check_s, check_height and check_unit
are the input checks every module applies where s, t, T, alpha or lam
enters, and MAX_TERMS bounds the length of every sum a route forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .errors import ConfigError, DomainError

__all__ = ["LerchParams", "EulerMaclaurinConfig", "EvalResult",
           "as_unit_fraction", "check_height", "check_s", "check_unit",
           "default_em_config", "MAX_HEIGHT", "MAX_TERMS", "POLE_TOL"]

MAX_DENOMINATOR = 64

# The largest |t| any route accepts.  Every sum forms its phases
# t log(n + a) in doubles, whose rounding |t| log(n + a) 2^-53 reaches a
# radian near |t| = 1e15: above it no digit of a phase is right.
MAX_HEIGHT = 1e15

# The most terms any one sum may take: a split length x or y, or an
# Euler-Maclaurin cutoff.  The balanced split at MAX_HEIGHT has
# x = y = 1.26e7, so it fits; the oracle's cutoff ceil(|t|) + 10 stops near
# |t| = 2e7 and the meanSquare split's x near t = 5.6e8.  It also bounds
# the points of a mean-square grid (T near 2e5 at the default step) and
# the terms of the oracle integrand at one point, q times the cutoff.
# Above it a sum or grid would take minutes or allocate gigabytes.
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
    """value, refused unless it is a real number in (0, 1] (no nan is)."""
    if not (isinstance(value, Real) and 0 < value <= 1):
        raise DomainError(f"{name} must be a real in (0, 1], got {value}")
    return value


def as_unit_fraction(value, name: str = "parameter") -> Fraction:
    """Coerce to a Fraction in (0, 1] with denominator <= 64.

    Accepts Fractions, ints, strings like "1/3" or "0.25", and floats that
    are exactly representable with a small denominator.
    """
    try:
        f = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} is not rational: {value!r}") from exc
    check_unit(f, name)
    if f.denominator > MAX_DENOMINATOR:
        raise DomainError(
            f"{name} denominator {f.denominator} exceeds {MAX_DENOMINATOR}")
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


@dataclass(frozen=True)
class EulerMaclaurinConfig:
    """Truncation of the Euler-Maclaurin evaluator.

    ``cutoff`` is the direct-sum length N0 (the number of B_{2k} corrections
    is fixed, see oracles).  The stability region requires
    cutoff >= _stable_cutoff(t) = ceil(|t|) + 10 at height t, checked at
    call time.
    """

    cutoff: int

    def __post_init__(self):
        if not 1 <= self.cutoff <= MAX_TERMS:
            raise ConfigError(f"cutoff must lie in 1..{MAX_TERMS} (MAX_TERMS), "
                              f"got {self.cutoff}")

    def check_height(self, t: float) -> None:
        need = _stable_cutoff(t)
        if self.cutoff < need:
            raise ConfigError(
                f"cutoff {self.cutoff} below stability threshold {need} "
                f"for |t| = {abs(t):.6g}")


def _stable_cutoff(t: float) -> int:
    """The least cutoff the Euler-Maclaurin evaluator accepts at height t,
    ceil(|t|) + 10.  There |s|/(2 pi (N + a)) <= 1/(2 pi) for sigma in the
    strip, so each of the B_{2k} corrections is at most about (2 pi)^-2
    times the one before it."""
    return math.ceil(abs(t)) + 10


def default_em_config(t: float) -> EulerMaclaurinConfig:
    """Default truncation at height t: the least stable cutoff, and at least
    50, so max(ceil(|t|) + 10, 50).  The 15 corrections then end more than
    ten orders of magnitude below the rounding floor, and every extra term
    would only add rounding."""
    return EulerMaclaurinConfig(cutoff=max(_stable_cutoff(t), 50))


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
