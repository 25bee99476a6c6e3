"""Split-sum evaluation of zeta functions in the critical strip.

The evaluators here replace the defining series by two short sums of lengths
x and y tied together by 2*pi*x*y = |t|, plus a Gamma-type factor in front of
the dual sums.  For the Lerch function with 0 < lam < 1:

    zl(s, a, lam) ~ sum_{0<=n<=x} e^(2 pi i n lam) (n+a)^(-s)
      + G1(s) sum_{0<=n<=y} e^(2 pi i n (1-a)) (n+lam)^(s-1)
      + G2(s) sum_{0<=n<=y} e^(2 pi i n a) (n+1-lam)^(s-1)

with G1, G2 the gamma_phase_product factors carrying phases
e^{{(1-s)/2 - 2 a lam} pi i} and e^{{-(1-s)/2 + 2 a (1-lam)} pi i}.  The
Hurwitz variant (lam = 1) has its own equation whose dual sums start at n = 1
and whose phases drop the parameter terms; the Riemann variant is its a = 1
reduction with both dual factors merged into the chi factor.

All three are a main sum plus dual sums of e^(2 pi i n freq) (n+shift)^(...)
terms.  Each kind is stated once, in its SplitKind record (split_kind(kind),
the one place an unknown kind is refused): the (alpha, lam) it takes, which
afe_eval checks and kind_for reads, its term row of shifts, frequencies,
first dual index and factors, its envelope exponent, its scan pairs and its
calibration grid.  afe_eval and the mean-square integrand read the term row;
scan_grid builds the calibration and afescan points, and split_shapes every
split shape of both.

The sums at one height share most of their work: every sigma, split shape
and (alpha, lam) pair reuses log(n + shift) and the phases, and every
sigma's terms serve all split lengths.  afe_eval keeps that work in _memo,
a dict from one height (the t > 0 height after the mirror) to its two dicts
of arrays, the phases and the prefix sums of the terms, so a sum of any
cached length is one element; another height replaces it.  With the memo
off (_MEMO_TERMS = 0), the 21,760 afe_eval calls of the seed-1 benchmark
afescan took 0.81-0.88 s against 0.30-0.33 s with it (best of five in each
of six processes; 2-core Xeon, Python 3.11, numpy 2.4).  A sum longer than
_MEMO_TERMS goes to throwaway dicts, and every value is bit-identical to
computing it afresh: the prefix sums add in order, so a prefix of a grown
array is the shorter array's sum.  The dual factors are not kept:
gamma_phase_product memoizes log Gamma(1-s).

The truncation error is modelled by the two-term envelope

    x^(-sigma) + |t|^e * y^(sigma-1),   e = 1/2 - sigma  (lerch, riemann)
                                        e = 1 - sigma    (hurwitz)

whose implied constant is not specified analytically; ``envelope_fit``
measures it as the max ratio |split-sum - oracle| / envelope over a dense
calibration grid (``envelope_scan`` yields each point's deviation and
envelope), and the fitted constant multiplies the envelope to give each
result's error estimate.  The grid spans the heights CALIBRATED_T, so a
result with |t| outside that range is flagged unreliable.

Negative t is evaluated through the exact conjugation mirror
conj(zl(s, a, lam)) = zl(conj(s), a, 1-lam), applied once in afe_eval, so
only t > 0 is computed directly.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError
from .gammafns import TWO_PI, chi, gamma_phase_product
from .oracles import lerch_reference_table, reference_cutoff
from .params import MAX_TERMS, EvalResult, LerchParams, check_height, check_s

__all__ = ["AfeSplit", "ErrorEnvelope", "CalibrationPoint", "SplitKind",
           "split_kind", "check_pair", "choose_split", "afe_eval",
           "afe_lerch", "error_envelope", "envelope_scan", "envelope_fit",
           "kind_for", "split_shapes", "scan_grid", "default_calibration_grid",
           "read_calibration", "write_calibration", "get_cfit", "KINDS",
           "CALIBRATED_T"]

# Envelope constants measured by ``envelope_fit`` on the default grids
# (see default_calibration_grid); regenerate with the `calibrate` command.
DEFAULT_CFIT = {
    "lerch": 2.2309988976362063,
    "hurwitz": 0.49472446361974726,
    "riemann": 1.2749107644928994,
}

_SPLIT_RTOL = 1e-12


@dataclass(frozen=True)
class AfeSplit:
    """The sum-length pair (x, y), both in [1, MAX_TERMS], constrained by
    2 pi x y = |t|.

    The constraint is against the s each evaluation is called with, so it is
    re-checked at use time rather than at construction.
    """

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"non-finite split ({self.x}, {self.y})")
        if not (1.0 <= self.x <= MAX_TERMS and 1.0 <= self.y <= MAX_TERMS):
            raise DomainError(
                f"split lengths must both lie in [1, {MAX_TERMS}] (MAX_TERMS), "
                f"got ({self.x:.6g}, {self.y:.6g})")

    def check_for(self, s: complex) -> None:
        t = abs(s.imag)
        if abs(TWO_PI * self.x * self.y - t) > _SPLIT_RTOL * t:
            raise DomainError(
                f"split ({self.x:.6g}, {self.y:.6g}) violates 2*pi*x*y = |t| "
                f"for |t| = {t:.6g}")


def choose_split(t: float, mode: str = "balanced") -> AfeSplit:
    """Standard splits at height t.

    balanced:   x = y = sqrt(|t| / 2 pi)
    meanSquare: x = |t| / (2 pi sqrt(log |t|)), y = sqrt(log |t|); the
                choice that makes the dual sums O(sqrt(log |t|)) long, used
                by the mean-square experiment.  Needs |t| >= ~9.91 so that
                x >= 1.
    """
    t = check_height(t)
    if abs(t) < TWO_PI:
        raise DomainError(f"splits need |t| >= 2*pi, got |t| = {abs(t):.6g}")
    if mode == "balanced":
        x = math.sqrt(abs(t) / TWO_PI)
        return AfeSplit(x, x)
    if mode == "meanSquare":
        y = math.sqrt(math.log(abs(t)))
        x = abs(t) / (TWO_PI * y)
        if x < 1.0:
            raise DomainError(
                f"meanSquare split needs |t| >= ~9.91 so that x >= 1, got t = {t:.6g}")
        return AfeSplit(x, y)
    raise DomainError(f"unknown split mode {mode!r}")


class ErrorEnvelope(NamedTuple):
    """The two-term truncation-error shape; ``total`` is their sum."""

    kind: str
    term1: float
    term2: float

    @property
    def total(self) -> float:
        return self.term1 + self.term2


def error_envelope(kind: str, s: complex, split: AfeSplit) -> ErrorEnvelope:
    c = split_kind(kind).envelope_c
    split.check_for(s)
    sigma = s.real
    t = abs(s.imag)
    e = c - sigma
    return ErrorEnvelope(kind, split.x ** (-sigma), t ** e * split.y ** (sigma - 1.0))


# {height: (phases, sums)} for the current height only, where
#   phases: (Im s_exp, shift, freq, first) -> (logs, phases), the
#           log(n + shift) and e^(i (Im s_exp log(n + shift) + 2 pi freq n))
#           for n = first, first + 1, ...
#   sums:   (s_exp, shift, freq, first) -> the prefix sums, np.cumsum of
#           the terms e^(Re s_exp logs) phases
# Every key names its whole computation, so an entry is right at any height;
# dropping the previous height only bounds the memory.  Arrays grow on
# demand to the longest sum requested, each element built by the same
# expression, and cumsum adds in order, so a prefix of a grown array equals
# a shorter request's sum bit for bit.
_memo: dict[float, tuple[dict, dict]] = {}

# The longest sum whose arrays the memo keeps.  Scan and calibration sums
# (|t| <= 1100) have at most about 67 terms; a balanced split at t = 1e11
# has 126,157, whose arrays (about 80 bytes a term over the main and dual
# sums) would otherwise stay held until the next height.
_MEMO_TERMS = 1024

# exp overflows above this argument
_LOG_MAX = math.log(sys.float_info.max)


def _power_sum(s_exp: complex, shift: float, weight_freq: float,
               first: int, last: int, memo: tuple[dict, dict]) -> complex:
    """sum_{n=first..last} e^(2 pi i n weight_freq) (n + shift)^(s_exp),
    read from memo's prefix sums (phases, sums), which it fills, or from
    throwaway dicts for a sum longer than _MEMO_TERMS."""
    count = last - first + 1
    phase_memo, sum_memo = memo if count <= _MEMO_TERMS else ({}, {})
    key = (s_exp, shift, weight_freq, first)
    sums = sum_memo.get(key)
    if sums is None or len(sums) < count:
        pkey = (s_exp.imag, shift, weight_freq, first)
        logs, phases = phase_memo.get(pkey, ((), ()))
        if len(logs) < count:
            n = np.arange(first, last + 1, dtype=float)
            logs = np.log(n + shift)
            phases = np.exp(1j * (s_exp.imag * logs + TWO_PI * weight_freq * n))
            phase_memo[pkey] = logs, phases
        if s_exp.real * logs[0] > _LOG_MAX:
            # Re s_exp <= 0 (afe_eval keeps 0 <= sigma <= 1), so the first
            # term is the largest; beyond double range, the sum is infinite
            # and afe_eval raises, where numpy would warn and go on
            return complex(math.inf)
        sums = np.cumsum(np.exp(s_exp.real * logs) * phases)
        sum_memo[key] = sums
    return complex(sums[count - 1])


# ---------------------------------------------------------------------------
# The kinds
# ---------------------------------------------------------------------------

class SplitKind(NamedTuple):
    """Everything that differs between the split-sum kinds.  ``terms`` maps
    (alpha, lam) to the term row ((main shift, main frequency), first dual
    index, one (shift, frequency, factor) per dual sum), a factor being the
    (phase_coeff_of_s, phase_const) of gamma_phase_product or None for
    chi(s)."""

    takes: Callable[[float, float], bool]  # (alpha, lam) has a split sum
    terms: Callable[[float, float], tuple]
    envelope_c: float  # the envelope's exponent of |t| is envelope_c - sigma
    pairs: tuple[tuple[Fraction, Fraction], ...]  # scan rows, in row order
    cal_heights: int  # the calibration grid's number of heights
    cal_skews: tuple[float, ...]  # and its skews F (see _SCAN_SHAPES)


_CAL_SIGMAS = (0.0, 0.25, 0.5, 0.75, 1.0)
_CAL_ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
_CAL_LAMBDAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
_CAL_SKEWS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
_CAL_SKEWS_DENSE = (0.125, 0.1875, 0.25, 0.375, 0.5, 0.75, 1.0,
                    1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
_ONE = Fraction(1)

# afescan's split shapes, (name, F): x = xb/F, y = xb F about the balanced
# length xb, or the meanSquare split for F = None.  The calibration grid's
# skew F is named skew{1/F:g}, so skewK has x = K xb in both.
_SCAN_SHAPES = (("balanced", 1.0), ("meanSquare", None), ("skew2", 0.5),
               ("skew05", 2.0))

# The riemann calibration grid is denser (four times the heights, more
# skews) because its single pair gives fewer samples per height.
_KINDS = {
    "lerch": SplitKind(
        lambda a, l: l < 1.0,
        lambda a, l: ((a, l), 0, (
            (l, 1.0 - a, (-0.5, 0.5 - 2.0 * a * l)),
            (1.0 - l, a, (0.5, -0.5 + 2.0 * a * (1.0 - l))))),
        0.5, tuple(product(_CAL_ALPHAS, _CAL_LAMBDAS)), 48, _CAL_SKEWS),
    "hurwitz": SplitKind(
        lambda a, l: l == 1.0,
        lambda a, l: ((a, 0.0), 1, ((0.0, 1.0 - a, (-0.5, 0.5)),
                                    (0.0, a, (0.5, -0.5)))),
        1.0, tuple((a, _ONE) for a in _CAL_ALPHAS), 48, _CAL_SKEWS),
    "riemann": SplitKind(
        lambda a, l: a == l == 1.0,
        lambda a, l: ((1.0, 0.0), 1, ((0.0, 0.0, None),)),
        0.5, ((_ONE, _ONE),), 192, _CAL_SKEWS_DENSE),
}

KINDS = tuple(_KINDS)


def split_kind(kind: str) -> SplitKind:
    """The record of a kind.  Every function that takes a kind looks it up
    here, the one place an unknown kind raises DomainError."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise DomainError(f"unknown split-sum kind {kind!r} (the kinds are "
                          f"{', '.join(KINDS)})") from None


def kind_for(alpha: float, lam: float) -> str:
    """The kind of the zeta function at (alpha, lam), both in (0, 1]: the
    first of KINDS that takes the pair, so lerch for lam < 1 and hurwitz for
    lam = 1 (riemann is the hurwitz kind's alpha = 1 special case)."""
    p = LerchParams(alpha, lam)
    return next(k for k, spec in _KINDS.items() if spec.takes(p.alpha, p.lam))


def check_pair(kind: str, alpha: float, lam: float) -> SplitKind:
    """split_kind(kind), refusing an (alpha, lam) in (0, 1] it does not take."""
    spec = split_kind(kind)
    if not spec.takes(alpha, lam):
        raise DomainError(f"no {kind!r} split sum at (alpha, lam) = ({alpha}, "
                          f"{lam}); the {kind_for(alpha, lam)!r} kind takes it")
    return spec


def afe_eval(kind: str, s: complex, alpha: float, lam: float, split: AfeSplit,
             c_fit: float | None = None) -> EvalResult:
    """Split-sum value of one kind's zeta function in the strip: lerch takes
    0 < lam < 1, hurwitz lam = 1, riemann alpha = lam = 1.

    The value is the main sum plus, per dual sum in term-row order, its
    factor times the sum.  The riemann main sum keeps the hurwitz boundary
    n = 0..floor(x) over (n+1)^(-s), so the two agree at alpha = 1 to
    rounding.  The error estimate is c_fit (default: the active constant of
    the kind) times the kind's error envelope; the result is reliable only
    for |t| in CALIBRATED_T, where that constant was fitted.
    """
    s = check_s(s)
    if not 0.0 <= s.real <= 1.0:
        raise DomainError(
            f"split-sum evaluation requires 0 <= sigma <= 1, got sigma = {s.real}")
    params = LerchParams(alpha, lam)
    spec = check_pair(kind, alpha, lam)
    envelope = error_envelope(kind, s, split)  # checks the split against s
    z = s
    if s.imag < 0.0:
        z, params = s.conjugate(), params.conjugate_pair()
    memo = _memo.get(z.imag)
    if memo is None:
        _memo.clear()
        memo = _memo[z.imag] = {}, {}
    (shift, freq), first, duals = spec.terms(params.alpha, params.lam)
    M = math.floor(split.x)
    N = math.floor(split.y)
    value = _power_sum(-z, shift, freq, 0, M, memo)
    for shift, freq, phase in duals:
        factor = chi(z) if phase is None else gamma_phase_product(z, *phase)
        value += factor * _power_sum(z - 1.0, shift, freq, first, N, memo)
    if not cmath.isfinite(value):
        raise OverflowError(f"{kind} split sum at s = {s}, (alpha, lam) = "
                            f"({alpha}, {lam}) is beyond double range")
    est = (get_cfit(kind) if c_fit is None else c_fit) * envelope.total
    lo, hi = CALIBRATED_T
    return EvalResult(value.conjugate() if s.imag < 0.0 else value, est,
                      M + 1, N + 1 - first, lo <= abs(s.imag) <= hi)


def afe_lerch(s: complex, params: LerchParams, split: AfeSplit,
              c_fit: float | None = None) -> EvalResult:
    """Split-sum value of the Lerch zeta-function, 0 < lam < 1, in the strip."""
    return afe_eval("lerch", s, params.alpha, params.lam, split, c_fit)


# ---------------------------------------------------------------------------
# Envelope-constant calibration
# ---------------------------------------------------------------------------

class CalibrationPoint(NamedTuple):
    """A scan-grid point: s = sigma + i t, a rational (alpha, lam), and a
    split with its shape name (the afescan ``split`` column)."""

    sigma: float
    t: float
    alpha: Fraction
    lam: Fraction
    split: AfeSplit
    shape: str = ""

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


def envelope_scan(kind: str, grid: Iterable[CalibrationPoint]
                  ) -> Iterator[tuple[CalibrationPoint, float, float]]:
    """Yield (point, |split-sum - oracle|, envelope total) for each grid
    point, in grid order.  A point is a CalibrationPoint, or any object with
    its sigma, t, s, alpha, lam and split fields, and is yielded as given.

    The oracle is the rational-lam decomposition, so every grid point needs a
    rational lam.  Each run of consecutive points at the same height takes
    its oracle values from one oracles.lerch_reference_table call, keyed
    once by the float (alpha, lam) that afe_eval takes; each point makes one
    afe_eval call with c_fit = 1, whose error estimate is the envelope.
    """
    split_kind(kind)
    for t, run in groupby(grid, key=lambda pt: pt.t):
        rows = [(pt, float(pt.alpha), float(pt.lam)) for pt in run]
        # keyed by the floats, which hash far faster than Fractions
        pairs = {(alpha, lam): (pt.alpha, pt.lam) for pt, alpha, lam in rows}
        table = lerch_reference_table(t, (pt.sigma for pt, _, _ in rows),
                                      pairs.values())
        refs = {(sigma, float(alpha), float(lam)): ref.value
                for (sigma, alpha, lam), ref in table.items()}
        for pt, alpha, lam in rows:
            res = afe_eval(kind, pt.s, alpha, lam, pt.split, c_fit=1.0)
            yield (pt, abs(res.value - refs[pt.sigma, alpha, lam]),
                   res.error_estimate)


def envelope_fit(kind: str, grid: Iterable[CalibrationPoint]) -> float:
    """Measured envelope constant: max over the grid of
    |split-sum - oracle| / envelope (see envelope_scan).  Returns 0.0 for an
    empty grid.
    """
    worst = 0.0
    for _, err, env in envelope_scan(kind, grid):
        worst = max(worst, err / env)
    return worst


def split_shapes(t: float, shapes: Iterable[tuple[str, float | None]]
                 = _SCAN_SHAPES) -> list[tuple[str, AfeSplit]]:
    """The named splits at height t of shapes, (name, F) pairs as in
    _SCAN_SHAPES: the meanSquare split for F = None, else x = xb/F,
    y = xb F.  Every shape is built, so a length outside [1, MAX_TERMS]
    raises; below 2 pi k^2, k the largest F or 1/F, where xb/k < 1, the
    error also names the shape, t and that height (8 pi for afescan's)."""
    shapes = tuple(shapes)
    k = max((max(f, 1.0 / f) for _, f in shapes if f), default=None)
    xb = choose_split(t).x
    named = []
    for name, f in shapes:
        try:
            named.append((name, choose_split(t, "meanSquare") if f is None
                          else AfeSplit(xb / f, xb * f)))
        except DomainError as exc:
            if k is None or abs(t) >= TWO_PI * k * k:
                raise
            raise DomainError(f"{exc}; shape {name} at t = {t:g}: every "
                              f"shape needs |t| >= {2.0 * k * k:g} pi = "
                              f"{TWO_PI * k * k:.4g}") from None
    return named


def scan_grid(kind: str, heights: Iterable[float],
              shapes: Callable[[float], list[tuple[str, AfeSplit]]]
              ) -> Iterator[CalibrationPoint]:
    """A scan's points, lazily, in row order: each height t, then sigma in
    {0, 1/4, 1/2, 3/4, 1}, then each named split of shapes(t), then each
    of the kind's pairs (split_kind(kind).pairs).  Every height is checked
    at the call, by the oracle's rule (oracles.reference_cutoff), then by
    shapes(t)."""
    pairs = split_kind(kind).pairs
    plan = []
    for t in heights:
        reference_cutoff(t, (lam for _, lam in pairs))
        plan.append((t, shapes(t)))
    return (CalibrationPoint(sigma, t, alpha, lam, split, name)
            for t, splits in plan for sigma in _CAL_SIGMAS
            for name, split in splits for alpha, lam in pairs)


# The heights the envelope constants are fitted over; split-sum results
# outside this |t| range are flagged unreliable.
CALIBRATED_T = (40.0, 1100.0)


def default_calibration_grid(kind: str) -> list[CalibrationPoint]:
    """Dense grid spanning the module's operating envelope.

    Heights are geometric in [40, 1100] (48 points; 192 for the riemann kind,
    whose single parameter pair gives fewer samples per height), split shapes
    cover the mean-square split and skew8 .. skew1/8, sigma runs over
    {0, 1/4, 1/2, 3/4, 1}, and the parameter pairs are the kind's pairs.
    The measured ratio drifts slowly upward with t and with split skew, so
    the grid has to cover heights and skews beyond any point the constant
    will be trusted at.
    """
    spec = split_kind(kind)
    heights = [round(v, 1) for v in np.geomspace(*CALIBRATED_T,
                                                  spec.cal_heights)]

    def shapes(t):  # the skews that keep both lengths >= 1
        xb = choose_split(t).x
        return split_shapes(t, [("meanSquare", None)] + [
            (f"skew{1 / f:g}", f) for f in spec.cal_skews
            if min(xb / f, xb * f) >= 1.0])
    return list(scan_grid(kind, heights, shapes))


# ---------------------------------------------------------------------------
# Calibration persistence: one "kind = value" line per kind, 17 significant
# digits (round-trip exact for doubles).
# ---------------------------------------------------------------------------

ENV_CALIBRATION = "LERCH_AFE_CALIBRATION"


def write_calibration(path: str, values: dict[str, float]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for kind in KINDS:
            if kind in values:
                fh.write(f"{kind} = {values[kind]:.17g}\n")


def read_calibration(path: str) -> dict[str, float]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read calibration file {path}: {exc}") from None
    values: dict[str, float] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.partition("=")
        kind = key.strip()
        try:
            split_kind(kind)
        except DomainError as exc:
            raise DomainError(f"{exc} in {path}") from None
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"calibration constant {kind} = {raw.strip()!r} "
                              f"in {path} is not a finite positive number")
        values[kind] = value
    return values


def get_cfit(kind: str) -> float:
    """Active envelope constant for a kind: the file named by the
    LERCH_AFE_CALIBRATION environment variable if set, else the packaged
    defaults, both read at every call (no command makes more than three)."""
    split_kind(kind)
    path = os.environ.get(ENV_CALIBRATION)
    table = read_calibration(path) if path else DEFAULT_CFIT
    return table.get(kind, DEFAULT_CFIT[kind])
