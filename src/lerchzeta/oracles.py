"""Reference evaluators for the Hurwitz and Lerch zeta-functions.

These are the slow, trustworthy routes used as ground truth for the split-sum
evaluators and the functional-equation checks:

* ``lerch_direct``      -- the defining series, summed term by term.  Only a
                           ground truth where it converges absolutely.
* ``hurwitz_euler_maclaurin`` -- Euler-Maclaurin continuation of the Hurwitz
                           series, valid for all s != 1, with a computable
                           a-posteriori error estimate.  At alpha = 1 it is
                           the Riemann zeta-function.
* ``lerch_via_hurwitz`` -- for rational lam = p/q, regrouping the Lerch series
                           over residue classes mod q turns it into q Hurwitz
                           values:
                           zl(s, a, p/q) = q^(-s) sum_r e^(2 pi i r p/q)
                                           zetaH(s, (r+a)/q).
                           This is exact algebra, so the Hurwitz continuation
                           carries over to the full strip.
* ``lerch_reference_table`` -- ``lerch_via_hurwitz`` for many sigmas and
                           (alpha, lam) pairs at one height t, equal to it
                           bit for bit and much cheaper than point by point.

All of them run on one Euler-Maclaurin core, ``_hurwitz_table``, which
evaluates a set of Hurwitz components at one height for several sigmas.  A
component's cost is its direct sum over n < N, and the table shares it
(after Odlyzko & Schonhage 1988, "Fast algorithms for multiple evaluations of
the Riemann zeta function"): the decomposition of every pair is pooled by
shift a = (r + alpha)/q, so a shift several pairs share is summed once, and
log(n + a) and the phase e^(-i t log(n + a)) are computed once per shift and
reused for every sigma, leaving only the magnitudes (n + a)^(-sigma) per
sigma.  Each (sigma, a) sum is still one contiguous array built by the same
expression, so it is bit-identical to a single-point evaluation; the
one-point calls are the table's one-sigma case.

The continuation is one generator, ``_em_tail`` (cmath for a complex s,
numpy for an array), and the regrouping one function, ``_decompose``; the
mean-square grid integrand uses both.  The tests check them against mpmath.
A component whose value is not finite (a term beyond double range, as for
a < 1 at sigma = 800 or for any a at sigma = -800) raises OverflowError.

The default cutoff is the least the stability check accepts,
N = ceil(|t|) + 10 (at least 50; params.default_em_config), and the
15 corrections then end far below rounding: at |t| ~ 1e3 the last one is
~5e-26.  So the estimate is in practice the rounding floor, ~1e-12 there:
the phase error of t log(n + a), decorrelated across n, plus that of the
n = 0 term a^(-s) alone, which dominates at a small shift a.  The estimate
must bound what a refined computation would actually change.  It does not
cover the rounding of alpha (and of the shifts (r + alpha)/q) to doubles: at
s = 1 + 1000i the alpha-derivative is about 1e4, and the value at the double
nearest 1/3 differs from mpmath.zeta(s, 1/3) (exact third, 30 digits) by
0.39 times the estimate, against 0.27 times for
mpmath.zeta(s, float(1/3)).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, PoleError
from .params import (POLE_TOL, EulerMaclaurinConfig, EvalResult, LerchParams,
                     as_unit_fraction, check_height, check_s, check_unit,
                     default_em_config)

__all__ = ["lerch_direct", "hurwitz_euler_maclaurin", "lerch_via_hurwitz",
           "lerch_reference_table"]

_EPS = 2.220446049250313e-16


def _bernoulli_over_factorial(kmax: int) -> tuple[float, ...]:
    """B_{2k}/(2k)! for k = 0..kmax, from the exact rational recurrence
    sum_{j<=m} C(m+1, j) B_j = 0, rendered to floats once at import."""
    B = [Fraction(1)]
    for m in range(1, 2 * kmax + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * B[j]
        B.append(-acc / (m + 1))
    return tuple(float(B[2 * k]) / factorial(2 * k) for k in range(kmax + 1))


_BERNOULLI_TERMS = 15  # K, the number of B_{2k} corrections
_B2K_OVER_FACT = _bernoulli_over_factorial(_BERNOULLI_TERMS)


def _direct_sums(sigmas: Sequence[float], t: float, alpha: float, lam: float,
                 terms: int) -> list[tuple[complex, float]]:
    """Partial sums of e^(2 pi i n lam)/(n+alpha)^(sigma+it) over n < terms,
    one per sigma, each with the sum of its term magnitudes (for the
    rounding floor).  log(n+alpha) and the phase are computed once and shared
    by every sigma; only the magnitudes (n+alpha)^(-sigma) are per sigma, and
    each sigma's terms are summed as one contiguous array, so its sum does
    not depend on the other sigmas.  Chunked to bound memory for very long
    sums."""
    totals = [0.0 + 0.0j] * len(sigmas)
    abs_totals = [0.0] * len(sigmas)
    chunk = 1 << 20
    for start in range(0, terms, chunk):
        n = np.arange(start, min(start + chunk, terms), dtype=float)
        logs = np.log(n + alpha)
        phase = np.exp(1j * (2.0 * math.pi * lam * n - t * logs))
        for i, sigma in enumerate(sigmas):
            mags = np.exp(-sigma * logs)
            totals[i] += complex((mags * phase).sum())
            abs_totals[i] += float(mags.sum())
    return list(zip(totals, abs_totals))


def lerch_direct(s: complex, params: LerchParams, terms: int) -> EvalResult:
    """Truncated defining series of the Lerch zeta-function.

    A reliable ground truth only for sigma > 1 (absolute convergence), where
    the tail is bounded by terms^(1-sigma)/(sigma-1).  For 0 < sigma <= 1 and
    0 < lam < 1 the series still converges, and the partial-summation bound
    (1/sin(pi lam)) (1 + |s|/sigma) (terms+alpha)^(-sigma) is reported, but
    the result is flagged unreliable: convergence is slow and this regime is
    not used as an oracle.
    """
    s = check_s(s)
    if terms < 1:
        raise DomainError(f"terms must be positive, got {terms}")
    sigma = s.real
    if sigma <= 1.0 and params.lam == 1.0:
        raise DomainError(
            "direct Hurwitz series needs sigma > 1 (no tail bound otherwise)")
    if sigma <= 0.0:
        raise DomainError(f"direct series diverges for sigma = {sigma}")
    ((value, _),) = _direct_sums((sigma,), s.imag, params.alpha, params.lam,
                                 terms)
    if sigma > 1.0:
        tail = terms ** (1.0 - sigma) / (sigma - 1.0)
        return EvalResult(value, tail, terms, 0, True)
    tail = (1.0 / math.sin(math.pi * params.lam)
            * (1.0 + abs(s) / sigma) * (terms + params.alpha) ** (-sigma))
    return EvalResult(value, tail, terms, 0, False)


def _em_tail(s, na: float):
    """The Euler-Maclaurin continuation past the direct sum over n < N, with
    na = N + a: yields (N+a)^(1-s)/(s-1), (N+a)^(-s)/2, then
    B_2k/(2k)! (s)_{2k-1} (N+a)^(-s-2k+1) for k = 1..K, at a complex s
    (cmath) or elementwise over an array of them (numpy)."""
    exp = cmath.exp if isinstance(s, complex) else np.exp
    log_na = math.log(na)
    yield exp((1.0 - s) * log_na) / (s - 1.0)
    yield 0.5 * exp(-s * log_na)
    rising = s
    pow_na = exp((-s - 1.0) * log_na)
    for k in range(1, _BERNOULLI_TERMS + 1):
        if k > 1:
            rising = rising * ((s + (2 * k - 3)) * (s + (2 * k - 2)))
            pow_na = pow_na / (na * na)
        yield _B2K_OVER_FACT[k] * rising * pow_na


def _decompose(alpha: float, lam) -> tuple[int, list[tuple[float, complex]]]:
    """(q, [((r + alpha)/q, e^(2 pi i r p/q)) for r < q]) for rational
    lam = p/q, the residue-class regrouping
    zl(s, alpha, p/q) = q^(-s) sum_r e^(2 pi i r p/q) zetaH(s, (r + alpha)/q).
    """
    a = check_unit(float(alpha), "alpha")
    f = as_unit_fraction(lam, "lam")
    p, q = f.numerator, f.denominator
    return q, [((r + a) / q, cmath.exp(2j * math.pi * r * p / q))
               for r in range(q)]


def _hurwitz_table(t: float, sigmas: Sequence[float], shifts: Iterable[float],
                   cfg: EulerMaclaurinConfig
                   ) -> dict[tuple[float, float], EvalResult]:
    """The Euler-Maclaurin core: zetaH(sigma + it, a) for every sigma and
    every shift a at one height t, keyed by (sigma, a).  Each shift's direct
    sums come from one _direct_sums pass shared by all sigmas; the
    continuation terms are per (sigma, a).  Arguments are already checked
    (see hurwitz_euler_maclaurin for the formula and the error estimate)."""
    N = cfg.cutoff
    table = {}
    for alpha in shifts:
        # a term beyond double range makes its value non-finite, which
        # raises below, so numpy's warnings would only repeat the error
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sums = _direct_sums(sigmas, t, alpha, 0.0, N)
        for sigma, (value, abs_sum) in zip(sigmas, sums):
            try:
                cont, half, *terms = _em_tail(complex(sigma, t), N + alpha)
            except OverflowError:  # cmath: a term beyond double range,
                cont, half, terms = math.inf, 0.0, ()  # reported below
            value += cont + half
            abs_sum += abs(cont) + abs(half)
            for term in terms:
                value += term
                last = abs(term)
                abs_sum += last
            if not cmath.isfinite(value):
                raise OverflowError(
                    f"zetaH({complex(sigma, t)}, {alpha:.17g}) is beyond "
                    f"double range")

            # Rounding floor: pairwise-summation noise plus the phase error of
            # computing t*log(n+a) for each term, decorrelated across n, plus
            # that of the n = 0 term a^(-s) on its own: at a small shift it
            # outweighs all the others together.
            try:
                lead = alpha ** -sigma
            except OverflowError:  # within an ulp of the double range, where
                lead = math.inf    # the direct sum rounded its n = 0 term down
            floor = _EPS * (abs_sum * (8.0 + math.log2(N + 1)
                                       + abs(t) * math.log(N + 2.0) / math.sqrt(N))
                            + abs(t * math.log(alpha)) * lead)
            estimate = max(last, floor)
            reliable = bool(estimate <= 1e-10 * abs(value))
            table[sigma, alpha] = EvalResult(value, estimate, N,
                                             _BERNOULLI_TERMS, reliable)
    return table


def hurwitz_euler_maclaurin(s: complex, alpha: float,
                            cfg: EulerMaclaurinConfig | None = None) -> EvalResult:
    """Euler-Maclaurin value of the Hurwitz zeta-function, any s != 1.

    With N = cfg.cutoff and K = 15 (_BERNOULLI_TERMS):

        sum_{n<N} (n+a)^(-s)  +  (N+a)^(1-s)/(s-1)  +  (N+a)^(-s)/2
        + sum_{k<=K} B_{2k}/(2k)! (s)_{2k-1} (N+a)^(-s-2k+1)

    where (s)_{2k-1} is the rising factorial.  The error estimate is the
    magnitude of the last correction term plus a rounding-noise floor; the
    result is flagged unreliable when the estimate exceeds 1e-10 |value|.
    """
    s = check_s(s)
    alpha = check_unit(float(alpha), "alpha")
    if abs(s - 1.0) <= POLE_TOL:
        raise PoleError("Hurwitz zeta has its pole at s = 1")
    if cfg is None:
        cfg = default_em_config(s.imag)
    cfg.check_height(s.imag)
    return _hurwitz_table(s.imag, (s.real,), (alpha,), cfg)[s.real, alpha]


def lerch_reference_table(t: float, sigmas: Iterable[float],
                          pairs: Iterable[tuple],
                          cfg: EulerMaclaurinConfig | None = None
                          ) -> dict[tuple, EvalResult]:
    """Lerch zeta at one height t for every sigma and every rational pair
    (alpha, lam), keyed by (sigma, alpha, lam) with sigma a float and alpha,
    lam as given.

    Each entry is the EvalResult lerch_via_hurwitz(complex(sigma, t), alpha,
    lam, cfg) returns, bit for bit: the pairs' Hurwitz components are pooled
    by their shift (r + alpha)/q, so a shift that several pairs share is
    evaluated once, and its logarithms and phases once for all sigmas.
    """
    t = check_height(t)
    points = [check_s(complex(sigma, t)) for sigma in dict.fromkeys(sigmas)]
    plans = [(alpha, lam, *_decompose(alpha, lam)) for alpha, lam in pairs]
    if any(abs(s - 1.0) <= POLE_TOL for s in points):
        raise PoleError("Hurwitz zeta has its pole at s = 1")
    if cfg is None:
        cfg = default_em_config(t)
    cfg.check_height(t)

    shifts = dict.fromkeys(a for *_, parts in plans for a, _ in parts)
    comps = _hurwitz_table(t, [s.real for s in points], shifts, cfg)
    table = {}
    for s in points:
        for alpha, lam, q, parts in plans:
            scale = cmath.exp(-s * math.log(q))
            value = 0.0 + 0.0j
            estimate = 0.0
            main_terms = dual_terms = 0
            reliable = True
            for a, phase in parts:
                comp = comps[s.real, a]
                value += phase * comp.value
                estimate += comp.error_estimate
                main_terms += comp.main_terms
                dual_terms += comp.dual_terms
                reliable = reliable and comp.reliable
            table[s.real, alpha, lam] = EvalResult(
                value * scale, estimate * abs(scale), main_terms, dual_terms,
                reliable)
    return table


def lerch_via_hurwitz(s: complex, alpha: float, lam,
                      cfg: EulerMaclaurinConfig | None = None) -> EvalResult:
    """Lerch zeta for rational lam = p/q via the residue-class regrouping.

    Exact algebra maps the problem to q Hurwitz evaluations, so this shares
    the Euler-Maclaurin continuation and error accounting.  q = 1 IS the
    Hurwitz value (identical arithmetic).  Requires q <= 64 and s != 1.  The
    one-point case of lerch_reference_table.
    """
    s = check_s(s)
    (result,) = lerch_reference_table(s.imag, (s.real,), ((alpha, lam),),
                                      cfg).values()
    return result
