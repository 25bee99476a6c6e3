"""Reference evaluators for the Hurwitz and Lerch zeta-functions.

These are the slow, trustworthy routes used as ground truth for the split-sum
evaluators and the functional-equation checks:

* ``lerch_direct``      -- the defining series, summed term by term.  Only a
                           ground truth where it converges absolutely.
* ``lerch_via_hurwitz`` -- for rational lam = p/q, regrouping the Lerch series
                           over residue classes mod q turns it into q Hurwitz
                           values:
                           zl(s, a, p/q) = q^(-s) sum_r e^(2 pi i r p/q)
                                           zetaH(s, (r+a)/q).
                           This is exact algebra, so the Hurwitz continuation
                           carries over to the full strip.
* ``hurwitz_euler_maclaurin`` -- its q = 1 case (lam = 1): the
                           Euler-Maclaurin continuation of the Hurwitz
                           series, valid for all s != 1, with a computable
                           a-posteriori error estimate.  At alpha = 1 it is
                           the Riemann zeta-function.
* ``lerch_reference_table`` -- ``lerch_via_hurwitz`` for many sigmas and
                           (alpha, lam) pairs at one height t, equal to it
                           bit for bit and much cheaper than point by point.
                           The one place that builds EvalResults.
* ``lerch_reference_values`` -- the one batch entry: ``lerch_via_hurwitz``
                           for (s, alpha, lam) requests at any heights, from
                           one table per height.  ``lerch_via_hurwitz`` is
                           its one-request case.

All of them run on one Euler-Maclaurin core, ``_hurwitz_table``, which
evaluates Hurwitz components at one height for several sigmas into
(sigma, shift) arrays of values and error estimates.  A component's cost is
its direct sum over n < N, and the table shares it (after Odlyzko &
Schonhage 1988, "Fast algorithms for multiple evaluations of the Riemann
zeta function"): the decomposition of every pair is pooled by shift
a = (r + alpha)/q, so a shift several pairs share is summed once, and
log(n + a) and the phase e^(-i t log(n + a)) are computed once per shift and
reused for every sigma, leaving only the magnitudes (n + a)^(-sigma) per
sigma.  Each (sigma, a) sum is still one contiguous row built by the same
expression, so it is bit-identical to a single-point evaluation.

The continuation is one numpy function, ``_em_tail``, and the regrouping
``_decompose``; the mean-square grid integrand uses both.  After Johansson
2015 ("Rigorous high-precision computation of the Hurwitz zeta function and
its derivatives"), the tail is one power of N + a times a bracket:
(N + a)^(-s) is the one exp per element, and the bracket comes from a
forward recurrence in the rising factorials of s and the powers of N + a.
It runs over arrays of s and N + a broadcast against each other: a table
takes every (sigma, shift) in one call, the grid integrand every
(component, point) of a chunk.  The tests check both against mpmath.  A
component whose value is not finite (a term beyond double range, as for
a < 1 at sigma = 800 or for any a at sigma = -800) raises OverflowError, and
so does a direct series beyond double range.

The cutoff is a function of the height, N = max(ceil(|t|) + 10, 50)
(params.em_cutoff, which refuses q N > MAX_TERMS for the q components of a
value); reference_cutoff takes it at the largest lam denominator, and is
where every caller gets N.  K = 8 corrections (_BERNOULLI_TERMS) then end
below rounding: over t from 1 to 2e4, sigma in {0, 1/2, 1} and shifts a in
{1/64, 1/4, 1}, the 8th was at most 0.055 times the rounding floor (at
t = 87, sigma = 0; the ratio is largest for t in [40, 300], where the cutoff
is at or near its 50-term minimum), and each further correction is at most
about (2 pi)^-2 times the one before.  So the estimate is in practice the
rounding floor, ~1e-12 at |t| ~ 1e3: the phase error of t log(n + a),
decorrelated across n, plus that of the n = 0 term a^(-s) alone, which
dominates at a small shift a.
The estimate must bound what a refined computation would actually change.
It does not cover the rounding of alpha (and of the shifts (r + alpha)/q)
to doubles: at s = 1 + 1000i the alpha-derivative is about 1e4, and the
value at the double nearest 1/3 differs from mpmath.zeta(s, 1/3) (exact
third, 30 digits) by 0.39 times the estimate, against 0.27 times for
mpmath.zeta(s, float(1/3)).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import comb, factorial
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, PoleError
from .params import (MAX_TERMS, POLE_TOL, EvalResult, LerchParams,
                     as_unit_fraction, check_height, check_s, check_unit,
                     em_cutoff)

__all__ = ["lerch_direct", "hurwitz_euler_maclaurin", "lerch_via_hurwitz",
           "lerch_reference_table", "lerch_reference_values",
           "reference_cutoff"]

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


_BERNOULLI_TERMS = 8  # K, the number of B_{2k} corrections (see above)
_B2K_OVER_FACT = _bernoulli_over_factorial(_BERNOULLI_TERMS)


def _direct_sums(sigmas: Sequence[float], t: float, shifts: Sequence[float],
                 lam: float, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums of e^(2 pi i n lam)/(n+a)^(sigma+it) over n < terms for
    every sigma and shift a, as (sigma, shift) arrays, with the sums of the
    term magnitudes (for the rounding floor).  log(n+a) and the phase are
    computed once per shift and shared by every sigma; each sigma's terms
    are one contiguous row, summed along it, so its sum does not depend on
    the other sigmas.  Chunked to bound memory for very long sums: a pass
    over one shift takes as many sigmas as fit in one chunk of terms."""
    exponents = -np.asarray(sigmas, dtype=float)[:, None]
    sums = np.zeros((len(exponents), len(shifts)), complex)
    abs_sums = np.zeros(sums.shape)
    chunk = 1 << 20
    for start in range(0, terms, chunk):
        n = np.arange(start, min(start + chunk, terms), dtype=float)
        rows = chunk // len(n)
        for j, alpha in enumerate(shifts):
            logs = np.log(n + alpha)
            phase = np.exp(1j * (2.0 * math.pi * lam * n - t * logs))
            for i in range(0, len(exponents), rows):
                mags = np.exp(exponents[i:i + rows] * logs)
                sums[i:i + rows, j] += (mags * phase).sum(axis=1)
                abs_sums[i:i + rows, j] += mags.sum(axis=1)
    return sums, abs_sums


def lerch_direct(s: complex, params: LerchParams, terms: int) -> EvalResult:
    """Truncated defining series of the Lerch zeta-function.

    A reliable ground truth only for sigma > 1 (absolute convergence), where
    the tail is bounded by terms^(1-sigma)/(sigma-1).  For 0 < sigma <= 1 and
    0 < lam < 1 the series still converges, and the partial-summation bound
    (1/sin(pi lam)) (1 + |s|/sigma) (terms+alpha)^(-sigma) is reported, but
    the result is flagged unreliable: convergence is slow and this regime is
    not used as an oracle.  A terms that is not an integer (a bool is
    not one), or above MAX_TERMS, is refused, and a value beyond double
    range raises OverflowError.
    """
    s = check_s(s)
    if isinstance(terms, bool) or not isinstance(terms, Integral):
        raise DomainError(f"terms must be an integer, got {terms!r}")
    if terms < 1:
        raise DomainError(f"terms must be positive, got {terms}")
    if terms > MAX_TERMS:
        raise ConfigError(f"the direct series would sum {terms} terms, above "
                          f"{MAX_TERMS} (MAX_TERMS)")
    sigma = s.real
    if sigma <= 1.0 and params.lam == 1.0:
        raise DomainError(
            "direct Hurwitz series needs sigma > 1 (no tail bound otherwise)")
    if sigma <= 0.0:
        raise DomainError(f"direct series diverges for sigma = {sigma}")
    # a term beyond double range makes the value non-finite, which raises
    # below, so numpy's warnings would only repeat the error
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_direct_sums((sigma,), s.imag, (params.alpha,),
                                     params.lam, terms)[0][0, 0])
    if not cmath.isfinite(value):
        raise OverflowError(f"zl({s}, {params.alpha!r}, {params.lam!r}) is "
                            f"beyond double range")
    if sigma > 1.0:
        tail = terms ** (1.0 - sigma) / (sigma - 1.0)
        return EvalResult(value, tail, terms, 0, True)
    tail = (1.0 / math.sin(math.pi * params.lam)
            * (1.0 + abs(s) / sigma) * (terms + params.alpha) ** (-sigma))
    return EvalResult(value, tail, terms, 0, False)


def _em_tail(s: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Euler-Maclaurin continuation past the direct sum over n < N, with
    x = N + a, elementwise over s and x broadcast against each other:

        x^(-s) [x/(s-1) + 1/2 + sum_{k<=K} B_2k/(2k)! (s)_{2k-1} x^(1-2k)],

    and the magnitude of its last correction.  x^(-s) is the one exp per
    element; the rising factorials (s)_{2k-1} and the powers x^(1-2k) are a
    forward recurrence on s and on x alone, so only their products and the
    running bracket take the broadcast shape.  Every element goes through
    the same operations, so a table of tails equals its one-element calls
    bit for bit, but only while no temporary reaches numpy's 256 KiB
    elision size (16,384 complex values): from there numpy may compute
    ``a * tmp`` as ``tmp * a``, and a complex product is not bitwise
    commutative.  The callers stay below it: the grid passes a 4,096-point
    restart chunk and x = N_c + a at its cutoff, the tables one s a sigma."""
    power = np.exp(-s * np.log(x))
    bracket = x / (s - 1.0) + 0.5
    rising = s
    x_pow = 1.0 / x
    x2 = x * x
    for k in range(1, _BERNOULLI_TERMS + 1):
        if k > 1:
            rising = rising * ((s + (2 * k - 3)) * (s + (2 * k - 2)))
            x_pow = x_pow / x2
        # made complex before it meets rising: numpy's cast of a broadcast
        # real operand costs more than the product, and changes no bit
        term = (_B2K_OVER_FACT[k] * x_pow).astype(complex) * rising
        bracket += term
    return power * bracket, np.abs(power * term)


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


def _hurwitz_table(t: float, sigmas: Sequence[float], shifts: Sequence[float],
                   N: int) -> tuple[np.ndarray, np.ndarray]:
    """The Euler-Maclaurin core: zetaH(sigma + it, a) and its error estimate
    for every sigma and every shift a at one height t, as (sigma, shift)
    arrays, with the direct sums over n < N:

        sum_{n<N} (n+a)^(-s)  +  (N+a)^(-s) [(N+a)/(s-1) + 1/2
            + sum_{k<=K} B_{2k}/(2k)! (s)_{2k-1} (N+a)^(1-2k)]

    with K = 8 (_BERNOULLI_TERMS) and (s)_{2k-1} the rising factorial.  The
    direct sums come from one _direct_sums pass and the continuations from
    one _em_tail call.  The estimate is the magnitude of the last correction
    or the rounding floor, whichever is larger.  Arguments are already
    checked."""
    points = np.array([complex(sigma, t) for sigma in sigmas], complex)
    a = np.array(shifts, dtype=float)
    # a term beyond double range makes its value non-finite, which raises
    # below, so numpy's warnings would only repeat the error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sums, abs_sums = _direct_sums(sigmas, t, shifts, 0.0, N)
        tails, lasts = _em_tail(points[:, None], N + a)
        values = sums + tails
        if not np.isfinite(values).all():
            j, i = np.argwhere(~np.isfinite(values.T))[0]
            raise OverflowError(f"zetaH({complex(points[i])}, "
                                f"{shifts[j]:.17g}) is beyond double range")
        # Rounding floor: pairwise-summation noise plus the phase error of
        # computing t*log(n+a) for each term, the tail counted as one more,
        # decorrelated across n, plus that of the n = 0 term a^(-s) on its
        # own: at a small shift it outweighs all the others together.  Where
        # a^(-sigma) is beyond double range (within an ulp of it, the direct
        # sum rounded its n = 0 term down) the floor is infinite, or NaN at
        # t = 0, where fmax takes the last correction instead.  a^(-sigma)
        # is exp(-sigma log a), as in _direct_sums: numpy's power has a path
        # of other last bits for a one-element exponent of -1, 1/2 or 2.
        floor = _EPS * ((abs_sums + np.hypot(tails.real, tails.imag))
                        * (8.0 + math.log2(N + 1)
                           + abs(t) * math.log(N + 2.0) / math.sqrt(N))
                        + np.abs(t * np.log(a))
                        * np.exp(-points.real[:, None] * np.log(a)))
    return values, np.fmax(lasts, floor)


def reference_cutoff(t: float, lams: Iterable) -> int:
    """em_cutoff(t, q), the oracle's direct-sum length at height t for values
    at the given lams, q their largest denominator.  Refuses a bad t or lam."""
    return em_cutoff(check_height(t), max(
        (as_unit_fraction(lam, "lam").denominator for lam in lams), default=1))


def hurwitz_euler_maclaurin(s: complex, alpha: float) -> EvalResult:
    """Euler-Maclaurin value of the Hurwitz zeta-function, any s != 1, with
    em_cutoff(t) direct terms (see _hurwitz_table): the q = 1 case of
    lerch_via_hurwitz.  Flagged unreliable when the estimate exceeds
    1e-10 |value|.  At alpha = 1 it is the Riemann zeta-function."""
    return lerch_via_hurwitz(s, alpha, 1)


def lerch_reference_table(t: float, sigmas: Iterable[float],
                          pairs: Iterable[tuple]) -> dict[tuple, EvalResult]:
    """Lerch zeta at one height t for every sigma and every rational pair
    (alpha, lam), keyed by (sigma, alpha, lam) with sigma a float and alpha,
    lam as given.

    Each entry is the EvalResult lerch_via_hurwitz(complex(sigma, t), alpha,
    lam) returns, bit for bit: the pairs' Hurwitz components are pooled by
    their shift (r + alpha)/q, so a shift that several pairs share is
    evaluated once, and its logarithms and phases once for all sigmas.
    Each component sums N = reference_cutoff(t, lams) terms, so an entry
    reports q N main terms and q K dual terms (K corrections per component);
    it is reliable when each component's estimate is <= 1e-10 |component|.
    """
    t = check_height(t)
    points = [check_s(complex(sigma, t)) for sigma in dict.fromkeys(sigmas)]
    plans = [(alpha, lam, *_decompose(alpha, lam)) for alpha, lam in pairs]
    if any(abs(s - 1.0) <= POLE_TOL for s in points):
        raise PoleError("Hurwitz zeta has its pole at s = 1")
    N = reference_cutoff(t, (lam for _, lam, *_ in plans))

    column = {a: j for j, a in enumerate(
        dict.fromkeys(a for *_, parts in plans for a, _ in parts))}
    try:
        values, estimates = _hurwitz_table(t, [s.real for s in points],
                                           list(column), N)
    except OverflowError as exc:  # name the pairs: a shift can round to 0
        asked = ", ".join(f"({alpha!r}, {lam})" for alpha, lam, *_ in plans)
        raise OverflowError(f"{exc}, a component of zl at (alpha, lam) = "
                            f"{asked}") from None
    table = {}
    for s, comps, errs in zip(points, values.tolist(), estimates.tolist()):
        for alpha, lam, q, parts in plans:
            scale = cmath.exp(-s * math.log(q))
            value = 0.0 + 0.0j
            estimate = 0.0
            reliable = True
            for a, phase in parts:
                comp, err = comps[column[a]], errs[column[a]]
                value += phase * comp
                estimate += err
                reliable = reliable and err <= 1e-10 * abs(comp)
            table[s.real, alpha, lam] = EvalResult(
                value * scale, estimate * abs(scale), q * N,
                q * _BERNOULLI_TERMS, reliable)
    return table


def lerch_reference_values(requests: Iterable[tuple]) -> list[EvalResult]:
    """lerch_via_hurwitz(s, alpha, lam) for every (s, alpha, lam) of
    requests, in order and bit for bit, from one lerch_reference_table per
    height: the requests at one height share its direct sums and
    continuation call.  The one batch entry to the oracle."""
    requests = [(check_s(s), alpha, lam) for s, alpha, lam in requests]
    heights = {}
    for s, alpha, lam in requests:
        # keyed by the bits of t, so that t = 0.0 and -0.0 stay apart
        sigmas, pairs = heights.setdefault(s.imag.hex(), ({}, {}))
        sigmas[s.real] = None
        pairs[alpha, lam] = None
    tables = {h: lerch_reference_table(float.fromhex(h), sigmas, pairs)
              for h, (sigmas, pairs) in heights.items()}
    return [tables[s.imag.hex()][s.real, alpha, lam]
            for s, alpha, lam in requests]


def lerch_via_hurwitz(s: complex, alpha: float, lam) -> EvalResult:
    """Lerch zeta for rational lam = p/q via the residue-class regrouping.

    Exact algebra maps the problem to q Hurwitz evaluations, so this shares
    the Euler-Maclaurin continuation and error accounting; q = 1 is
    hurwitz_euler_maclaurin.  Requires q <= 64 and s != 1.  The one-request
    case of lerch_reference_values.
    """
    (result,) = lerch_reference_values([(s, alpha, lam)])
    return result
