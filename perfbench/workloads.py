"""Workload inputs and correctness checks for the lerchzeta benchmark.

Everything here is plain data and arithmetic on the program's outputs, so the
harness process, the reference generator and the tests can import it without
importing lerchzeta.  WORKLOADS.md gives the reasons behind each choice.
"""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction
from typing import NamedTuple

WORKLOADS = ("ms-afe", "ms-oracle", "scan")

# ms-afe: rational (alpha, lam) pairs whose split-sum integrand has the same
# cost (the main sum length depends on t only); lam denominators stay <= 3 so
# the oracle-route [1, 10] stub differs by at most a few per cent in cost.
AFE_POOL = (("1/2", "1/2"), ("1", "1/2"), ("1/2", "1"), ("1", "1"),
            ("1/3", "1/3"), ("3/4", "1/2"))
AFE_T = 2000.0

# ms-oracle: lam = 1/2 throughout, so every draw sums q = 2 Hurwitz
# components of the same length.
ORACLE_ALPHAS = ("1/4", "1/3", "1/2", "2/3", "3/4", "1")
ORACLE_LAM = "1/2"
ORACLE_T = 500.0

# scan: one height per equal-width stratum of the calibrated range, so the
# draw varies the heights but barely moves their sum (oracle cost grows
# linearly with t).
SCAN_RANGE = (40.0, 1100.0)
SCAN_HEIGHTS = 64

# Rows the CLI writes per afescan height: 5 sigmas x 4 split shapes x
# (12 lerch + 4 hurwitz + 1 riemann) parameter pairs; fecheck's fixed grid
# has 81 lerch + 27 hurwitz + 9 riemann points.
AFESCAN_ROWS_PER_HEIGHT = 5 * 4 * 17
FECHECK_ROWS = 81 + 27 + 9

# The thresholds the CLI's --strict flag and acceptance criterion 1 apply.
FE_RESIDUAL_MAX = 1e-7

# A known defect, counted as a failure but not as a wrong result: the riemann
# envelope constant was fitted on a grid of heights, and between grid points
# the split-sum error at sigma = 1 with the skew2 split exceeds it by up to
# 2.2% (measured every 0.5 in t over [40, 1100]: near t = 226.5, 402.5-403,
# 628.5-630 and 905-907.5).  Any other envelope failure, or one more than 5%
# over C_fit, makes the run incorrect.
KNOWN_GAP = {"kind": "riemann", "sigma": 1.0, "split": "skew2", "max_over": 1.05}

# quad_err / main_term may exceed the reference value by this factor, plus
# an absolute floor for the oracle route, whose estimate sits near 1e-10
# relative and moves with rounding (a doubled step multiplies it by 16).
QUAD_ERR_GROWTH = 1.25
QUAD_ERR_FLOOR = 1e-10


def ladder(method: str, alpha: str, lam: str) -> dict:
    T = AFE_T if method == "afe" else ORACLE_T
    return {"workload": "ms-" + method, "method": method, "alpha": alpha,
            "lam": lam, "T": T, "checkpoints": [T / 8, T / 4, T / 2, T]}


def make_inputs(workload: str, seed: int) -> dict:
    """The job a workload runs, drawn from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ms-afe":
        return ladder("afe", *AFE_POOL[rng.randrange(len(AFE_POOL))])
    if workload == "ms-oracle":
        alpha = ORACLE_ALPHAS[rng.randrange(len(ORACLE_ALPHAS))]
        return ladder("oracle", alpha, ORACLE_LAM)
    if workload == "scan":
        lo, hi = SCAN_RANGE
        width = (hi - lo) / SCAN_HEIGHTS
        heights = [round(lo + (k + rng.random()) * width, 1)
                   for k in range(SCAN_HEIGHTS)]
        return {"workload": "scan", "heights": heights}
    raise ValueError(f"unknown workload {workload!r}")


def ref_key(spec: dict) -> str:
    return f"{spec['method']}:{spec['alpha']}:{spec['lam']}:{spec['T']:g}"


def all_ladders() -> list[dict]:
    """Every ladder job either ladder workload can draw."""
    return ([ladder("afe", a, l) for a, l in AFE_POOL]
            + [ladder("oracle", a, ORACLE_LAM) for a in ORACLE_ALPHAS])


# ---------------------------------------------------------------------------
# Checks.  Each returns (outputs checked, failures), one Failure per failing
# output, so len(failures) / attempted is the failed share.  Failure.output
# names the output (checkpoint or CSV row position), so that a run which
# repeats a job counts each failing output once, however many jobs it ran.
# ---------------------------------------------------------------------------

class Failure(NamedTuple):
    output: str  # which output failed, the same in every job of a run
    message: str
    known_gap: bool = False


def in_known_gap(row: dict, cfit: float) -> bool:
    return (row["kind"] == KNOWN_GAP["kind"]
            and float(row["sigma"]) == KNOWN_GAP["sigma"]
            and row["split"] == KNOWN_GAP["split"]
            and float(row["ratio"]) <= KNOWN_GAP["max_over"] * cfit)


def quad_err_rel(records: list[dict]) -> float:
    return max(r["quad_err"] / r["main_term"] for r in records)


def check_ladder(records: list[dict], ref: list[dict]
                 ) -> tuple[int, list[Failure]]:
    """Compare a ladder's checkpoints with the reference records.

    A checkpoint passes when it sits at the reference T, its integral is
    within quad_err + quad_err_ref of the reference integral, and its
    quad_err / main_term has not grown past QUAD_ERR_GROWTH times the
    reference value plus QUAD_ERR_FLOOR.
    """
    failures = []
    for k, want in enumerate(ref):
        if k >= len(records):
            failures.append(Failure(f"T={want['T']:g}", "checkpoint missing"))
            continue
        got = records[k]
        tol = got["quad_err"] + want["quad_err"]
        rel, rel_ref = (got["quad_err"] / got["main_term"],
                        want["quad_err"] / want["main_term"])
        if not abs(got["T"] - want["T"]) <= 1e-9 * want["T"]:
            msg = f"checkpoint moved to {got['T']!r}"
        elif not abs(got["integral"] - want["integral"]) <= tol:
            msg = (f"integral {got['integral']!r} vs reference "
                   f"{want['integral']!r}, tolerance {tol:.3g}")
        elif not rel <= QUAD_ERR_GROWTH * rel_ref + QUAD_ERR_FLOOR:
            msg = f"quad_err/main {rel:.3g} vs reference {rel_ref:.3g}"
        else:
            continue
        failures.append(Failure(f"T={want['T']:g}", msg))
    return len(ref), failures


def check_afescan(rows: list[dict], cfit: dict, heights: list[float]
                  ) -> tuple[int, list[Failure]]:
    """Every afescan row needs ratio <= C_fit of its kind; each missing row
    fails too."""
    expected = AFESCAN_ROWS_PER_HEIGHT * len(heights)
    failures = []
    for i, r in enumerate(rows):
        c = cfit[r["kind"]]
        if not float(r["ratio"]) <= c:
            failures.append(Failure(
                f"afescan row {i}", f"{r['kind']} sigma={r['sigma']} t={r['t']} "
                f"split={r['split']} alpha={r['alpha_num']}/{r['alpha_den']} "
                f"lambda={r['lambda_num']}/{r['lambda_den']}: ratio "
                f"{float(r['ratio']):.4f} > C_fit {c:.4f}", in_known_gap(r, c)))
    failures += [Failure(f"afescan row {i}",
                         f"missing: afescan wrote {len(rows)} rows, expected "
                         f"{expected}") for i in range(len(rows), expected)]
    return max(expected, len(rows)), failures


def check_fecheck(rows: list[dict]) -> tuple[int, list[Failure]]:
    """Every fecheck row needs residual <= 1e-7; each missing row fails too."""
    failures = [Failure(f"fecheck row {i}",
                        f"sigma={r['sigma']} t={r['t']} "
                        f"alpha={r['alpha_num']}/{r['alpha_den']} "
                        f"lambda={r['lambda_num']}/{r['lambda_den']}: "
                        f"residual {r['residual']} > {FE_RESIDUAL_MAX:g}")
                for i, r in enumerate(rows)
                if not float(r["residual"]) <= FE_RESIDUAL_MAX]
    failures += [Failure(f"fecheck row {i}",
                         f"missing: fecheck wrote {len(rows)} rows, expected "
                         f"{FECHECK_ROWS}") for i in range(len(rows), FECHECK_ROWS)]
    return max(FECHECK_ROWS, len(rows)), failures


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


# ---------------------------------------------------------------------------
# Computed per-layer counts for the mean-square layer
# ---------------------------------------------------------------------------

T0 = 10.0  # lerchzeta.meansquare.T0: start of the split-sum grid


def grid_points(T: float, step: float) -> int:
    """Fine-grid points of a ladder to T (the rule mean_square_ladder
    documents: spacing <= step/2, interval count divisible by 4)."""
    return 4 * math.ceil((T - T0) / (2.0 * step) - 1e-9) + 1


def grid_terms(method: str, lam: str, T: float, step: float) -> int:
    """Terms the integrand sums over the fine grid.

    afe: floor(x) + 1 main terms and two dual sums of floor(y) (+1 when
    lam < 1) terms at each t, with the meanSquare split y = sqrt(log t),
    x = t / (2 pi y).  oracle: q components of max(2 ceil(T), 50) terms at
    every point, q the denominator of lam.
    """
    n = grid_points(T, step) - 1
    if method == "oracle":
        return (n + 1) * Fraction(lam).denominator * max(2 * math.ceil(T), 50)
    h = (T - T0) / n
    dual_extra = 0 if Fraction(lam) == 1 else 1
    total = 0
    for i in range(n + 1):
        t = T0 + h * i
        y = math.sqrt(math.log(t))
        x = t / (2.0 * math.pi * y)
        total += math.floor(x) + 1 + 2 * (math.floor(y) + dual_extra)
    return total


# ---------------------------------------------------------------------------
# Tail percentile of a timing
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest nearest-rank percentile that has at
    least ten samples above it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]
