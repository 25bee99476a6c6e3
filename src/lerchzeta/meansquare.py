"""Critical-line mean-square experiments.

Computes I(T) = integral_1^T |zl(1/2 + it, a, lam)|^2 dt and compares it with
the main term T log(T/2 pi).  The integrand can come from three routes:

* afe        -- the split-sum evaluator with the meanSquare split
                x = t/(2 pi sqrt(log t)), y = sqrt(log t); O(t / sqrt(log t))
                terms per point, plus two scalar Gamma factors, which
                dominate its cost: at T = 2000 it is slower than the oracle
                route (timings of record: ROADMAP, BENCH_*.json).  The default.
* oracle     -- the Euler-Maclaurin decomposition route (rational lam), free
                of split-truncation bias: the point oracle's regrouping and
                continuation (oracles._decompose, _em_tail) on the whole grid.
                A restart chunk sums q N_c terms, N_c the oracle's cutoff at
                its largest |t| (about q (T/2 + 36) a point over a ladder),
                and one continuation call covers its q components.
* partialSum -- the bare truncation sum
                Sigma(a, lam) = sum_{0<=n<=x} e^(2 pi i n lam)(n+a)^(-1/2-it)
                with the same x.  Its dropped remainder is O(1) for a < 1 and
                O((log t)^(1/4)) for a = 1.

The afe integrand is biased at the order of the second main term c T: at
T = 2000 its residual/T sits above the oracle's by 0.34 for (alpha, lam) =
(1/2, 1/2) and by 0.99 for (1/4, 3/4).  The meanSquare split has
y = sqrt(log t) ~ 2.8 there, so the envelope term y^(-1/2) ~ 0.6 is not small.

The meanSquare split needs x >= 1, which forces t >= t0 = 10; the stub
[1, t0] is always integrated with the oracle route (contribution is O(10)
absolute).  The grid on [t0, T] and the stub's own grid have spacing at
most step/2, and the rule depends on the integrand route (the stub's is the
oracle's).  The oracle integrand is smooth in t (every cutoff
gives it to rounding), and |zl|^2 is a sum of oscillations e^(i t w) whose
frequencies w = log(m/n) reach about log(t / 2 pi) ~ 4.4 at t = 500, so
h w ~ 0.18 at spacing h = 0.04.  For such a function the Euler-Maclaurin
expansion of the trapezoid rule's error converges, and only its endpoint
terms -- odd derivatives at the two ends -- remain.  Gregory's rule (Davis &
Rabinowitz, Methods of Numerical Integration, 2nd ed., section 2.9) cancels
them to order h^10 with fixed weights on the ten points next to each end:
the trapezoid sum plus h sum_{j<10} c_j (f_j + f_(n-j)) is exact for
polynomials of degree <= 9 and takes any interval count n >= 20, so every
grid point can be a checkpoint.  The record reports it (G10), and the
estimate is |G10 - G8| (G8 with eight-point corrections) or its rounding.
Against G10 at a quarter of the spacing, G10 at spacing 0.04 is off by
1e-15 to 9e-13 relative, and |G10 - G8| covers that error 6-137 times
(T = 125 to 8000; q = 1, 2 and 4).  The split-sum integrands carry
O(x^(-1/2)) jumps wherever floor(x(t)) or floor(y(t)) steps, which caps any
rule at first-order convergence with noisy constants (Simpson's measured
refinement ratios are 0.7..5), so they keep composite Simpson, its
interval count a multiple of 4, and the guarded estimate
2 |I(step) - I(step/2)| against the coarse subsample.

Every sum these routes need -- the afe main and dual sums, the partial sum
and the Euler-Maclaurin direct sums -- is a Dirichlet polynomial
sum_n w_n e^(-i t f_n) on the uniform grid t_j = t_start + j h (the dual sums
have f_n = -log(n + shift)), and one kernel evaluates them all, after
Odlyzko & Schonhage (1988), "Fast algorithms for multiple evaluations of the
Riemann zeta function".  The grid is cut into restart chunks of _RESTART
points and those into blocks of _BLOCK.  A block's anchor e^(-i t f_n) at
its first point reaches the other points through the rotations
e^(-i k h f_n), k < _BLOCK, applied to all the anchors of a restart chunk
as one (_BLOCK x terms) by (terms x blocks) matrix product.  Rotations and
anchors are products, not exps.  Per tile of terms the kernel takes two
exps a term for each call, e^(-i h f_n) and e^(-i _BLOCK h f_n), and one
for each restart chunk, the direct e^(-i t_lo f_n) at the chunk's first
point t_lo.  The k-th rotation is the k-th power of the first; the b-th
anchor is the direct exp times the b-th power of the second; both are
built by doubling, once per tile and call, and the restart chunks of the
call share them.  Anchors restart from a direct exp at the first point
asked for and at every restart chunk after it, so no chain of products
runs past one restart chunk.  A power z^k carries k times the rounding of
z plus k - 1 product roundings, so a term carries at most 2 (_BLOCK - 1) =
126 roundings beyond the direct exp's, about 6e-14 relative, against the
phase rounding |t f_n| 2^-53 ~ 1.7e-12 of that exp at t = n = 2000.  A
2,000-term sum at t ~ 2000 is off from 30-digit mpmath by at most 1.8e-12
at seven points of a restart chunk, against 2.4e-12 with one exp per
rotation and anchor.  The quadrature asks for _SPAN = 4 _RESTART points a
call, from fixed grid indices; the kernel takes one term count per
restart chunk and sums each tile only up to it, so a call over several
restart chunks gives the bits one call per restart chunk gives, and every
bit of the result is fixed by the grid alone.  Terms are taken _TILE at a
time, which bounds the working set whatever T and q are.  Nothing is
cached across calls: a cache of every tile's rotations and advances for a
whole ladder would take 2 KB a term, 131 MB at T = 16,000 and q = 4.  The
split-sum sums end at a per-point term count (floor(x(t)) + 1, and
floor(y(t)) for the duals), which steps inside a restart chunk: their
integrand cuts the chunk at the first point of each new count and sums
each run of equal count with one kernel call, so a run's anchors restart
from a direct exp at its first point.  The split sums' shifts, frequencies,
first dual index and Gamma phases are the term row of afe's kind record,
which afe_eval sums too.  The integrand values of a call are folded into
the rule's two running sums (G10 and G8, or fine and coarse Simpson) one
restart chunk at a time, keeping the chunk's last nine values for an end
window that straddles the next, and the records are taken as the
checkpoints pass, so no array proportional to the grid is allocated.
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
from .oracles import _decompose, _em_tail, reference_cutoff
from .params import MAX_TERMS, as_unit_fraction, check_height, check_unit

__all__ = ["T0", "METHODS", "STEPS", "MeanSquareRecord", "ExponentFit",
           "mean_square_ladder", "fit_residual_exponent"]

# Below t0 the meanSquare split has x < 1; the [1, t0] stub always goes
# through the oracle route.
T0 = 10.0

METHODS = ("afe", "oracle", "partialSum")

# (default, largest) step of each route.  The oracle's spacing 0.04 is the
# coarsest from t0 that holds the ladder {T/8, T/4, T/2, T} at T = 500 (the
# offsets 52.48, 115, 240 and 490 from t0 have gcd 0.04; T/8 = 62.5 snaps to
# 62.48), and Gregory's rule is accurate to 1e-12 relative there.
STEPS = {"afe": (0.02, 0.05), "oracle": (0.08, 0.08),
         "partialSum": (0.02, 0.05)}

# Gregory end corrections: D and the numerators c_j D, j < m, of the m-point
# set, the solution of sum_j c_j j^d = B_(d+1) / (d+1) for odd d and 0 for
# even d, d < m (B the Bernoulli numbers).  D is 12! and 10!.
_GREGORY10 = (479001600, (-105289535, 311395317, -578780232, 867424848,
                          -955886718, 754887810, -415709232, 151741752,
                          -33034443, 3250433))
_GREGORY8 = (3628800, (-744383, 1908311, -2696283, 2899075, -2134045,
                       1012293, -278921, 33953))

# Grid points per block (one anchor each), terms per tile, grid points per
# restart chunk (one direct exp a term each; a multiple of _BLOCK and of 4,
# the Simpson period), and grid points per integrand call, over which a
# tile's rotations are shared: one call per restart chunk gives the same
# bits, but (1/2, 1/2) oracle ladders took 60-93 against 44-59 ms to T = 2000
# and 569-707 against 430-543 ms to T = 8000 (5 alternating processes each).
_BLOCK = 64
_TILE = 512
_RESTART = 64 * _BLOCK
_SPAN = 4 * _RESTART


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
               lo: int, hi: int, counts: Sequence[int]) -> np.ndarray:
    """sum_{n < counts[c]} w[n] e^(-i t_j f[n]) at t_j = t_start + j h for
    lo <= j < hi, with c = (j - lo) // _RESTART the restart chunk of j: one
    term count per restart chunk.  A caller whose count steps inside a chunk
    cuts it into runs of equal count, one call each.

    Point k of block b (grid index lo + b _BLOCK + k) sits at [k, b]; points
    past hi that fill the last block are computed and dropped.  Per tile of
    terms: e^(-i h f) and e^(-i _BLOCK h f), whose powers are the rotations
    e^(-i k h f), k < _BLOCK, and the anchor advances, built once per call;
    then for each restart chunk, at lo and every _RESTART points after it,
    the direct e^(-i t f) at its first point t and that chunk's anchors, so
    rounding builds up over fewer than 2 _BLOCK products (module
    docstring).  A restart chunk sums a tile only up to its own count, so
    its bits do not depend on the rest of the call.
    """
    nb = -(-(hi - lo) // _BLOCK)
    per_chunk = _RESTART // _BLOCK
    chunks = [(b0, min(b0 + per_chunk, nb), count) for b0, count
              in zip(range(0, nb, per_chunk), counts, strict=True)]
    top = max(counts)
    out = np.zeros((_BLOCK, nb), dtype=complex)
    anc = np.empty((min(nb, per_chunk), _TILE), dtype=complex)
    for n0 in range(0, top, _TILE):
        n1 = min(n0 + _TILE, top)
        fn, wn = f[n0:n1], w[n0:n1]
        rot = _powers(np.exp(-1j * (h * fn)), _BLOCK)
        advance = _powers(np.exp(-1j * ((_BLOCK * h) * fn)), len(anc))
        for b0, b1, count in chunks:
            if n0 >= count:
                continue
            m1 = min(n1, count) - n0
            a = anc[:b1 - b0, :m1]
            t_lo = t_start + h * (lo + b0 * _BLOCK)
            np.multiply(wn[:m1] * np.exp(-1j * (t_lo * fn[:m1])),
                        advance[:b1 - b0, :m1], out=a)
            out[:, b0:b1] += rot[:, :m1] @ a.T
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

    def restart_chunk(t_start: float, h: float, lo: int,
                      hi: int) -> np.ndarray:
        t = t_start + h * np.arange(lo, hi)
        y = np.sqrt(np.log(t))

        def cut(w, f, counts):
            # one kernel call per run of equal count, cut where it steps
            ends = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(),
                    hi - lo]
            return np.concatenate([_dirichlet(w, f, t_start, h, lo + r0,
                                              lo + r1, [counts[r0]])
                                   for r0, r1 in zip(ends, ends[1:])])

        main_counts = np.floor(t / (TWO_PI * y)).astype(np.int64) + 1
        total = cut(mw, mf, main_counts)
        if partial:
            return total
        dual_counts = np.floor(y).astype(np.int64) + (1 - first)
        # point-major, so the factors at one s share log Gamma(1-s); a
        # generator, so no list of Python complexes is held
        phases = [phase for _, _, phase in dual_sums]
        g = np.fromiter((gamma_phase_product(s, a, b)
                         for s in (0.5 + 1j * t).tolist() for a, b in phases),
                        complex, (hi - lo) * len(phases))
        for (dw, df, _), gk in zip(dual_sums, g.reshape(-1, len(phases)).T):
            total = total + gk * cut(dw, df, dual_counts)
        return total

    def values(t_start: float, h: float, lo: int, hi: int) -> np.ndarray:
        # one restart chunk at a time, so a run of equal count lies in one;
        # and a _SPAN-wide fill of Gamma factors, counts and sums raised a
        # fresh process's peak RSS from 37.1-37.3 to 39.0-39.2 MB
        return np.concatenate([restart_chunk(t_start, h, c0,
                                             min(c0 + _RESTART, hi))
                               for c0 in range(lo, hi, _RESTART)])

    return values


def _oracle_integrand(alpha: float, lam: Fraction, t_max: float):
    """values(t_start, h, lo, hi) of the Euler-Maclaurin integrand at
    s = 1/2 + i t_j, 0 < t_j <= t_max rising: the oracle core's direct sums
    and continuation (oracles._hurwitz_table) on every component of the
    rational-lam decomposition, each restart chunk at the cutoff N_c of its
    largest t.  The direct terms run in the Lerch series' order m = q n + r,
    so the first q N_c are q^(-s) sum_r e^(2 pi i r p/q) sum_{n<N_c}
    (n + (r + alpha)/q)^(-s): one prefix serves every chunk."""
    q, parts = _decompose(alpha, lam)
    shifts, phases = (np.array(v) for v in zip(*parts))
    f = np.log(np.arange(q * reference_cutoff(t_max, (lam,)), dtype=float)
               + float(alpha))
    w = np.tile(phases, len(f) // q) * np.exp(-0.5 * f)

    def values(t_start: float, h: float, lo: int, hi: int) -> np.ndarray:
        chunks = []
        for c0 in range(lo, hi, _RESTART):
            c1 = min(c0 + _RESTART, hi)
            # the grid's last point may round past t_max by an ulp
            n_c = reference_cutoff(min(t_max, t_start + h * (c1 - 1)), (lam,))
            chunks.append((c0, c1, n_c))
        total = _dirichlet(w, f, t_start, h, lo, hi,
                           [q * n_c for _, _, n_c in chunks])
        # one restart chunk at a time: the continuation's (q, _RESTART)
        # arrays stay in cache, where (q, _SPAN) ones ran slower, and no
        # product meets numpy's temporary elision (256 KiB and up), which
        # computes a * tmp as tmp * a: complex products do not commute bitwise
        for c0, c1, n_c in chunks:
            s = 0.5 + 1j * (t_start + h * np.arange(c0, c1))
            tails, _ = _em_tail(s, n_c + shifts[:, None])
            if q > 1:
                tails *= np.exp(-s * math.log(q))
            total[c0 - lo:c1 - lo] += phases @ tails
        return total

    return values


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _quadrature(values, t_start: float, h: float, idxs: Sequence[int],
                smooth: bool) -> list[tuple[float, float]]:
    """(integral over [t_start, t_start + k h], estimate) for each k in idxs
    (ascending; multiples of 4 unless smooth), the grid ending at the last.

    smooth: the trapezoid rule with Gregory end corrections, G10 and its
    estimate |G10 - G8|; else composite Simpson (step h) and the guarded
    2 |fine - coarse| against Simpson at step 2h (see module docstring).
    Both rules are periodic interior weights plus fixed weights on the
    points next to each end.  |values|^2 is folded into the two running
    sums one restart chunk at a time; the chunk's last m - 1 values are
    kept for the end window of a checkpoint in the next.

    G10 and G8 share every rounding of their interior sum, so |G10 - G8|
    can read 0.0; it is floored at that rounding.  Each of the n = k + 1
    additions rounds by at most eps/2 |G10| (the values are >= 0), and n
    such errors of either sign add to about eps/2 |G10| sqrt(n): the floor
    is twice that.  Simpson's two sums differ, and need no floor.
    """
    if smooth:
        ends = np.zeros((2, 10))
        for row, (den, nums) in zip(ends, (_GREGORY10, _GREGORY8)):
            row[:len(nums)] = [n / den for n in nums]
        # first weighs the points 0 ... m - 1, last the points k - m + 1 ... k
        first, last = ends.copy(), ends[:, ::-1].copy()
        first[:, 0] -= 0.5  # the trapezoid's end weight 1/2
        last[:, -1] += 0.5
        interior = np.ones((2, _RESTART))
        scale, guard, rounding = (h, h), 1.0, np.finfo(float).eps
    else:
        i = np.arange(_RESTART)
        interior = np.array([np.where(i % 2, 4.0, 2.0),
                             np.where(i % 2, 0.0, np.where(i % 4, 4.0, 2.0))])
        first, last = -np.ones((2, 1)), np.ones((2, 1))
        scale, guard, rounding = (h / 3.0, 2.0 * h / 3.0), 2.0, 0.0
    m = first.shape[1]
    below = np.zeros(2)  # the weighted sums over indices < lo
    tail = np.zeros(m - 1)  # the values at lo - m + 1 ... lo - 1
    out = []
    end = idxs[-1] + 1
    for span_lo in range(0, end, _SPAN):
        span = np.abs(values(t_start, h, span_lo,
                             min(span_lo + _SPAN, end))) ** 2
        for lo in range(span_lo, min(span_lo + _SPAN, end), _RESTART):
            hi = min(lo + _RESTART, end)
            v = span[lo - span_lo:hi - span_lo]
            if lo == 0:
                below += first @ v[:m]
            for k in idxs:
                if lo <= k < hi:
                    j = k - lo
                    window = np.concatenate((tail[j:], v[max(0, j - m + 1):
                                                         j + 1]))
                    rule = (below + interior[:, :j] @ v[:j]
                            + last @ window) * scale
                    out.append((float(rule[0]), float(max(
                        guard * abs(rule[0] - rule[1]),
                        rounding * abs(rule[0]) * math.sqrt(k + 1)))))
            below += interior[:, :hi - lo] @ v
            # a copy, so the span is freed; every chunk but the last has
            # _RESTART >= m - 1 points
            tail = v[len(v) - (m - 1):].copy()
    return out


def mean_square_ladder(T: float, alpha, lam, step: float | None = None,
                       method: str = "afe",
                       checkpoints: Sequence[float] | None = None
                       ) -> list[MeanSquareRecord]:
    """Mean-square records at several checkpoints from one evaluation pass.

    Default checkpoints form the geometric ladder {T/8, T/4, T/2, T} clipped
    below at 20.  step defaults to the route's STEPS value and may not pass
    its cap.  The integrand is evaluated once on a grid of spacing
    h <= step/2 and shared by all checkpoints.  Checkpoints snap to the
    nearest grid point the route's rule can end at (every point for the
    oracle, every fourth for Simpson), and each snapped T is reported once;
    the last grid point reports T itself.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    smooth = method == "oracle"
    default_step, max_step = STEPS[method]
    if step is None:
        step = default_step
    if not (0.0 < step <= max_step):
        raise ConfigError(f"step must lie in (0, {max_step:g}] for the "
                          f"{method} route, got {step}")
    if check_height(T, "T") < max(T0, 20.0):
        raise DomainError(f"T must be >= {max(T0, 20.0)}, got {T}")
    # the stub's oracle route makes rational lam a requirement for every method
    lam_fraction = as_unit_fraction(lam, "lam")
    a_float = check_unit(float(alpha), "alpha")
    lam_float = float(lam_fraction)

    if checkpoints is None:
        checkpoints = [max(20.0, T / d) for d in (8.0, 4.0, 2.0, 1.0)]
    checkpoints = [float(c) for c in checkpoints]
    if not checkpoints:
        raise DomainError("checkpoints must name at least one T")
    if not all(20.0 <= c <= T for c in checkpoints):
        raise DomainError(f"checkpoints must lie in [20, T], got {checkpoints}")

    # grid: spacing <= step/2, interval count a multiple of the rule's
    # period.  Past MAX_TERMS the count stays a float, printed %.6g: a tiny
    # step makes it 300 digits long as an integer, or inf, which math.ceil
    # refuses
    period = 1 if smooth else 4
    periods = (T - T0) / (0.5 * period * step)
    nf = period * (math.ceil(periods) if periods <= MAX_TERMS else periods)
    if nf + 1 > MAX_TERMS:  # the [1, t0] stub's grid is never larger
        got = f"{nf + 1:.6g}" if isinstance(nf, float) else nf + 1
        raise ConfigError(f"the grid must have at most {MAX_TERMS} "
                          f"(MAX_TERMS) points, got {got} for "
                          f"T = {T:g} and step = {step:g}")
    h = (T - T0) / nf
    idxs = sorted({min(nf, period * round((c - T0) / (period * h)))
                   for c in checkpoints})

    # a term or a square beyond double range makes a sum non-finite, which
    # raises below, so numpy's warnings would only repeat the error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if smooth:
            values = _oracle_integrand(a_float, lam_fraction, T)
        else:
            values = _split_sum_integrand(a_float, lam_float, T,
                                          method == "partialSum")
        results = _quadrature(values, T0, h, idxs, smooth)
        # the [1, t0] stub: the oracle integrand and rule (50 terms)
        n_stub = math.ceil((T0 - 1.0) / (0.5 * step))
        stub_values = _oracle_integrand(a_float, lam_fraction, T0)
        ((stub, stub_est),) = _quadrature(stub_values, 1.0,
                                          (T0 - 1.0) / n_stub, [n_stub],
                                          smooth=True)

    records = []
    for k, (integral, est) in zip(idxs, results):
        t_snap = T if k == nf else T0 + k * h  # T0 + nf h may round past T
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
