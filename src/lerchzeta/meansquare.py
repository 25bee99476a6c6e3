"""Critical-line mean-square experiments.

Computes I(T) = integral_1^T |zl(1/2 + it, a, lam)|^2 dt and compares it with
the main term T log(T/2 pi).  The integrand can come from three routes:

* afe        -- the split-sum evaluator with the meanSquare split
                x = t/(2 pi sqrt(log t)), y = sqrt(log t); cost per point
                O(t / sqrt(log t)).  This is the performance payoff of the
                split representation and the default.
* oracle     -- the Euler-Maclaurin decomposition route (rational lam);
                slower, cost O(t) per point, free of split-truncation bias.
                It is the point oracle's regrouping and continuation
                (oracles._decompose, oracles._em_tail) on the whole grid.
* partialSum -- the bare truncation sum
                Sigma(a, lam) = sum_{0<=n<=x} e^(2 pi i n lam)(n+a)^(-1/2-it)
                with the same x.  Its dropped remainder is O(1) for a < 1 and
                O((log t)^(1/4)) for a = 1.

The afe integrand is biased at the order of the second main term c T: at
T = 2000 its residual/T sits above the oracle's by 0.34 for
(alpha, lam) = (1/2, 1/2) and by 0.99 for (1/4, 3/4).  The meanSquare split
has y = sqrt(log t) ~ 2.8 there, so the envelope term y^(-1/2) ~ 0.6 is not
small.  Measured T = 2000 ladder times, whole `meansquare` command
(2-core shared Xeon, Python 3.11.7, numpy 2.4.6): afe 1.6-1.8 s at both
(1/2, 1/2) and (1/4, 3/4); oracle 0.8 s at (1/2, 1/2) and 1.1-1.3 s at
(1/4, 3/4).

The meanSquare split needs x >= 1, which forces t >= t0 = 10; the stub
[1, t0] is always integrated with the oracle route (contribution is O(10)
absolute).  Quadrature is composite Simpson on a grid of spacing step/2; the
reported integral uses the fine grid and the error estimate comes from
step-halving against the coarse subsample.  The halving divisor depends on
the integrand route: the oracle integrand is smooth in t (fixed cutoff), its
measured refinement ratios are 16.0, and |I(step) - I(step/2)| / 15 is the
sharp Richardson value.  The split-sum integrands carry O(x^(-1/2)) jumps
wherever floor(x(t)) or floor(y(t)) steps, which caps Simpson at first-order
convergence with noisy constants (measured refinement ratios 0.7..5), so for
them the estimate is the guarded value 2 |I(step) - I(step/2)|.

Every sum these routes need -- the afe main and dual sums, the partial sum
and the Euler-Maclaurin direct sums -- is a Dirichlet polynomial
sum_n w_n e^(-i t f_n) on the uniform grid t_j = t_start + j h (the dual sums
have f_n = -log(n + shift)), and one kernel evaluates them all, after
Odlyzko & Schonhage (1988), "Fast algorithms for multiple evaluations of the
Riemann zeta function".  The grid is cut into chunks of _CHUNK points and
those into blocks of _BLOCK.  A block's anchor e^(-i t f_n) at its first
point reaches the other points through the rotations e^(-i k h f_n),
k < _BLOCK, applied to all the anchors of a chunk as one (_BLOCK x terms)
by (terms x blocks) matrix product.  Rotations and anchors are products,
not exps.  Per tile of terms the kernel takes three exps a term:
e^(-i h f_n), e^(-i _BLOCK h f_n) and the direct e^(-i t_lo f_n) at the
chunk's first point t_lo.  The k-th rotation is the k-th power of the
first; the b-th anchor is the direct exp times the b-th power of the
second; both are built by doubling.  Anchors restart from a direct exp at
the first point asked for and at every chunk after it, so no chain of
products runs past one chunk.  A power z^k carries k times the rounding of
z plus k - 1 product roundings, so a term carries at most 2 (_BLOCK - 1) =
126 roundings beyond the direct exp's, about 6e-14 relative, against the
phase rounding |t f_n| 2^-53 ~ 1.7e-12 of that exp at t = n = 2000.  A
2,000-term sum at t ~ 2000 is off from 30-digit mpmath by at most 1.8e-12
at seven points of a chunk, against 2.4e-12 with one exp per rotation and
anchor.  The quadrature asks for one chunk at a time from fixed grid
indices, so every bit of the result is fixed by the grid alone.  Terms are
taken _TILE at a time, which bounds the working set whatever T and q are,
and nothing is cached across chunks.  The split-sum sums end at a
per-point term count (floor(x(t)) + 1, and floor(y(t)) for the duals): a
block sums up to the largest count among its points and subtracts the
surplus terms at the points below it.  The split sums' shifts, frequencies,
first dual index and Gamma phases are the term row of afe's kind record,
which afe_eval sums too.  The two Gamma factors of the afe dual sums stay
scalar gamma_phase_product calls, two per grid point, made one point after
the other so that the second reuses the first one's log Gamma(1-s).  Each chunk
of integrand values is folded into running fine and coarse Simpson sums and
the records are taken as the checkpoints pass, so no array proportional to
the grid is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .afe import choose_split, kind_for, split_kind
from .gammafns import TWO_PI, gamma_phase_product
from .oracles import _decompose, _em_tail
from .params import (MAX_TERMS, EulerMaclaurinConfig, as_unit_fraction,
                     check_height, check_unit, default_em_config)

__all__ = ["T0", "METHODS", "MeanSquareRecord", "ExponentFit",
           "mean_square_ladder", "fit_residual_exponent"]

# Below t0 the meanSquare split has x < 1; the [1, t0] stub always goes
# through the oracle route.
T0 = 10.0

METHODS = ("afe", "oracle", "partialSum")

# Grid points per block (one anchor each), terms per tile, and grid points
# per chunk (one direct exp a term each; a multiple of _BLOCK and of 4, the
# Simpson period).
_BLOCK = 64
_TILE = 512
_CHUNK = 64 * _BLOCK


@dataclass(frozen=True)
class MeanSquareRecord:
    """One checkpoint of the mean-square experiment."""

    T: float
    integral_value: float
    main_term: float
    residual: float
    quadrature_error_estimate: float
    alpha: float
    lam: float
    method: str
    step: float
    reliable: bool


@dataclass(frozen=True)
class ExponentFit:
    """Result of fitting residual ~ constant * T (log T)^exponent."""

    exponent: float
    constant: float
    degenerate: bool


# ---------------------------------------------------------------------------
# Whole-grid integrands
# ---------------------------------------------------------------------------

def _powers(z: np.ndarray, m: int) -> np.ndarray:
    """Row k is z^k, for k < m, built by doubling: rows [k, 2k) are rows
    [0, k) times z^k.  Like k - 1 successive products, z^k carries k times
    the rounding of z plus at most k - 1 product roundings."""
    p = np.empty((m, len(z)), dtype=complex)
    p[0] = 1.0
    k, zk = 1, z
    while k < m:
        j = min(k, m - k)
        np.multiply(p[:j], zk, out=p[k:k + j])
        zk = zk * zk
        k *= 2
    return p


def _dirichlet(w: np.ndarray, f: np.ndarray, t_start: float, h: float,
               lo: int, hi: int, counts: np.ndarray | None = None) -> np.ndarray:
    """sum_{n < counts[j - lo]} w[n] e^(-i t_j f[n]) at t_j = t_start + j h
    for lo <= j < hi; counts=None sums every term.

    Point k of block b (grid index lo + b _BLOCK + k) sits at [k, b]; points
    past hi that fill the last block are computed and dropped.  Per tile of
    terms: three exps a term, e^(-i h f), e^(-i _BLOCK h f) and e^(-i t f)
    at the first point t of each chunk; the rotations e^(-i k h f),
    k < _BLOCK, and the block anchors are their products.  Anchors restart
    at lo and every _CHUNK points after it, so rounding builds up over fewer
    than 2 _BLOCK products (module docstring).
    """
    nb = -(-(hi - lo) // _BLOCK)
    c = np.full(nb * _BLOCK, len(w) if counts is None else counts[-1])
    if counts is not None:
        c[:hi - lo] = counts
    c = c.reshape(nb, _BLOCK).T
    top = c.max(axis=0)
    per_chunk = _CHUNK // _BLOCK
    out = np.zeros((_BLOCK, nb), dtype=complex)
    for n0 in range(0, int(top.max()), _TILE):
        n = np.arange(n0, min(n0 + _TILE, int(top.max())))
        rot = _powers(np.exp(-1j * (h * f[n])), _BLOCK)
        advance = _powers(np.exp(-1j * ((_BLOCK * h) * f[n])),
                          min(nb, per_chunk))
        anc = np.empty((nb, len(n)), dtype=complex)
        for b0 in range(0, nb, per_chunk):
            t_lo = t_start + h * (lo + b0 * _BLOCK)
            nc = min(nb - b0, per_chunk)
            np.multiply(w[n] * np.exp(-1j * (t_lo * f[n])), advance[:nc],
                        out=anc[b0:b0 + nc])
        anc[n >= top[:, None]] = 0.0
        out += rot @ anc.T
        for m in range(max(n0, int(c.min())), n[-1] + 1):
            k, b = np.nonzero((c <= m) & (m < top))
            out[k, b] -= rot[k, m - n0] * anc[b, m - n0]
    return out.T.ravel()[:hi - lo]


def _split_sum_integrand(alpha: float, lam: float, t_max: float,
                         partial: bool):
    """values(t_start, h, lo, hi) of the afe (or, with partial, the
    partialSum) integrand at s = 1/2 + i t_j with the meanSquare split, for
    grids with t_j <= t_max.  The sums are the term row of the pair's kind,
    kind_for(alpha, lam): lerch, or at lam = 1 hurwitz."""
    (shift, freq), first, duals = split_kind(kind_for(alpha, lam)).terms(
        alpha, lam)
    longest = choose_split(max(t_max, T0), "meanSquare")
    n = np.arange(int(longest.x) + 4, dtype=float)
    mf = np.log(n + shift)
    mw = np.exp(2j * math.pi * freq * n) * np.exp(-0.5 * mf)
    m = np.arange(first, int(longest.y) + 3, dtype=float)
    dual_sums = []
    for d_shift, d_freq, phase in duals:
        df = -np.log(m + d_shift)
        dw = np.exp(2j * math.pi * d_freq * m) * np.exp(0.5 * df)
        dual_sums.append((dw, df, phase))

    def values(t_start: float, h: float, lo: int, hi: int) -> np.ndarray:
        t = t_start + h * np.arange(lo, hi)
        y = np.sqrt(np.log(t))
        main_counts = np.floor(t / (TWO_PI * y)).astype(np.int64) + 1
        total = _dirichlet(mw, mf, t_start, h, lo, hi, main_counts)
        if partial:
            return total
        dual_counts = np.floor(y).astype(np.int64) + (1 - first)
        # point-major, so the factors at one s share log Gamma(1-s)
        g = np.empty((len(dual_sums), hi - lo), complex)
        for j, ti in enumerate(t.tolist()):
            si = complex(0.5, ti)
            for k, (_, _, (a, b)) in enumerate(dual_sums):
                g[k, j] = gamma_phase_product(si, a, b)
        for (dw, df, _), gk in zip(dual_sums, g):
            total = total + gk * _dirichlet(dw, df, t_start, h, lo, hi,
                                            dual_counts)
        return total

    return values


def _oracle_integrand(alpha: float, lam: Fraction, cfg: EulerMaclaurinConfig):
    """values(t_start, h, lo, hi) of the Euler-Maclaurin integrand at
    s = 1/2 + i t_j: the direct sums and continuation of
    hurwitz_euler_maclaurin on every component of the rational-lam
    decomposition, with one truncation cfg for every point."""
    q, parts = _decompose(alpha, lam)
    if q * cfg.cutoff > MAX_TERMS:
        raise ConfigError(f"the oracle integrand would sum q x cutoff = "
                          f"{q} x {cfg.cutoff} terms per point, above "
                          f"{MAX_TERMS} (MAX_TERMS)")
    shifts, phases = zip(*parts)
    logs = np.log(np.arange(cfg.cutoff, dtype=float)
                  + np.array(shifts)[:, None])
    f = logs.ravel()
    w = (np.array(phases)[:, None] * np.exp(-0.5 * logs)).ravel()

    def values(t_start: float, h: float, lo: int, hi: int) -> np.ndarray:
        s = 0.5 + 1j * (t_start + h * np.arange(lo, hi))
        total = _dirichlet(w, f, t_start, h, lo, hi)
        for shift, phase in parts:
            total += phase * sum(_em_tail(s, cfg.cutoff + shift))
        return total * np.exp(-s * math.log(q)) if q > 1 else total

    return values


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _simpson(values, t_start: float, h: float, idxs: Sequence[int],
             smooth: bool) -> list[tuple[float, float]]:
    """(fine integral over [t_start, t_start + k h], step-halving estimate)
    for each k in idxs (multiples of 4, in ascending order).

    |values|^2 is folded chunk by chunk into running fine (step h) and coarse
    (step 2h) Simpson sums, and the grid ends at the last checkpoint.  smooth
    selects the Richardson divisor: /15 for fourth-order integrands, x2
    guard for the jump-limited split-sum routes (see module docstring).
    """
    i = np.arange(_CHUNK)
    weights = np.array([np.where(i % 2, 4.0, 2.0),
                        np.where(i % 2, 0.0, np.where(i % 4, 4.0, 2.0))])
    below = np.zeros(2)  # weighted (fine, coarse) sums over indices < lo
    out = []
    for lo in range(0, idxs[-1] + 1, _CHUNK):
        hi = min(lo + _CHUNK, idxs[-1] + 1)
        v = np.abs(values(t_start, h, lo, hi)) ** 2
        if lo == 0:
            below -= v[0]  # the end point has weight 1, not 2
        for k in idxs:
            if lo <= k < hi:
                fine, coarse = (below + weights[:, :k - lo] @ v[:k - lo]
                                + v[k - lo]) * (h / 3.0, 2.0 * h / 3.0)
                diff = abs(fine - coarse)
                out.append((float(fine),
                            float(diff / 15.0 if smooth else 2.0 * diff)))
        below += weights[:, :hi - lo] @ v
    return out


def mean_square_ladder(T: float, alpha, lam, step: float = 0.02,
                       method: str = "afe",
                       checkpoints: Sequence[float] | None = None
                       ) -> list[MeanSquareRecord]:
    """Mean-square records at several checkpoints from one evaluation pass.

    Default checkpoints form the geometric ladder {T/8, T/4, T/2, T} clipped
    below at 20.  Checkpoints snap to the quadrature grid (within 2*step), and
    the snapped T is what each record reports, once for all checkpoints that
    snap to it.  The integrand is evaluated once on the fine grid of spacing
    <= step/2 and shared by all checkpoints.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    if not (0.0 < step <= 0.05):
        raise ConfigError(f"step must lie in (0, 0.05], got {step}")
    if check_height(T, "T") < max(T0, 20.0):
        raise DomainError(f"T must be >= {max(T0, 20.0)}, got {T}")
    # the stub's oracle route makes rational lam a requirement for every method
    lam_fraction = as_unit_fraction(lam, "lam")
    a_float = check_unit(float(alpha), "alpha")
    lam_float = float(lam_fraction)

    if checkpoints is None:
        checkpoints = [max(20.0, T / d) for d in (8.0, 4.0, 2.0, 1.0)]
    checkpoints = [float(c) for c in checkpoints]
    if not all(20.0 <= c <= T for c in checkpoints):
        raise DomainError(f"checkpoints must lie in [20, T], got {checkpoints}")

    # fine grid: spacing <= step/2, total interval count divisible by 4
    nf = 4 * math.ceil((T - T0) / (2.0 * step))
    if nf + 1 > MAX_TERMS:  # the [1, t0] stub's grid is never larger
        raise ConfigError(f"the grid must have at most {MAX_TERMS} "
                          f"(MAX_TERMS) points, got {nf + 1} for T = {T:g} "
                          f"and step = {step:g}")
    h = (T - T0) / nf
    idxs = sorted({min(nf, 4 * round((c - T0) / (4.0 * h)))
                   for c in checkpoints})

    # a term or a square beyond double range makes a sum non-finite, which
    # raises below, so numpy's warnings would only repeat the error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if method == "oracle":
            values = _oracle_integrand(a_float, lam_fraction,
                                       default_em_config(T))
        else:
            values = _split_sum_integrand(a_float, lam_float, T,
                                          method == "partialSum")
        results = _simpson(values, T0, h, idxs, smooth=(method == "oracle"))
        # the [1, t0] stub on its own grid, cutoff 50, own halving estimate
        n_stub = 8 * max(1, math.ceil((T0 - 1.0) / (4.0 * step)))
        stub_values = _oracle_integrand(a_float, lam_fraction,
                                        EulerMaclaurinConfig(cutoff=50))
        ((stub, stub_est),) = _simpson(stub_values, 1.0, (T0 - 1.0) / n_stub,
                                       [n_stub], smooth=True)

    records = []
    for k, (integral, est) in zip(idxs, results):
        t_snap = T0 + k * h
        total = stub + integral
        quad_est = est + stub_est
        if not (math.isfinite(total) and math.isfinite(quad_est)):
            raise OverflowError(f"{method} mean square at (alpha, lam) = "
                                f"({a_float}, {lam_float}) is beyond double "
                                f"range")
        main = t_snap * math.log(t_snap / TWO_PI)
        records.append(MeanSquareRecord(
            T=t_snap, integral_value=total, main_term=main,
            residual=total - main, quadrature_error_estimate=quad_est,
            alpha=a_float, lam=lam_float, method=method, step=step,
            reliable=bool(quad_est <= 1e-3 * main)))
    return records


# ---------------------------------------------------------------------------
# Residual exponent
# ---------------------------------------------------------------------------

def fit_residual_exponent(Ts: Sequence[float], residuals: Sequence[float],
                          noise: Sequence[float] | None = None) -> ExponentFit:
    """Least-squares fit of log(|residual|/T) against log log T.

    The slope is the measured exponent e in residual ~ C T (log T)^e, the
    intercept gives C.  Points whose |residual| does not clear the quadrature
    noise are dropped; if fewer than two remain, the fit is degenerate.
    """
    if len(Ts) != len(residuals):
        raise DomainError("Ts and residuals must have equal length")
    if noise is None:
        noise = [0.0] * len(Ts)
    xs, ys = [], []
    for T, r, nz in zip(Ts, residuals, noise):
        if abs(r) > nz and abs(r) > 0.0:
            xs.append(math.log(math.log(T)))
            ys.append(math.log(abs(r) / T))
    if len(xs) < 2:
        return ExponentFit(math.nan, math.nan, True)
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    return ExponentFit(float(slope), float(math.exp(intercept)), False)
