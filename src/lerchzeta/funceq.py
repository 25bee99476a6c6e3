"""Numerical verification of the exact functional equations.

Both zeta families satisfy reflection identities connecting s with 1 - s:

* Lerch (0 < lam < 1):
    zl(s, a, lam) = G1(s) zl(1-s, lam, 1-a) + G2(s) zl(1-s, 1-lam, a)
  with G1, G2 the gamma_phase_product factors with phases
  e^{{(1-s)/2 - 2 a lam} pi i} and e^{{-(1-s)/2 + 2 a (1-lam)} pi i}.
  Argument order is fixed project-wide as (value, alpha-slot, lambda-slot).

* Hurwitz: the lam = 1 case is NOT the lam -> 1 limit of the above (the
  second alpha-slot would hit 0).  Its dual side is built from the n >= 1
  periodic sums F(b) = sum_{n>=1} e^(2 pi i n b) n^(s-1):

    zetaH(s, a) = Gamma(1-s)(2 pi)^(s-1) { e^{(1-s) pi i/2} F(1-a)
                                         + e^{-(1-s) pi i/2} F(a) }.
  In alpha/lambda-slot notation F(b) = e^{2 pi i b} zl(1-s, 1, b), which puts
  phases e^{{(1-s)/2 - 2a} pi i} and e^{{-(1-s)/2 + 2a} pi i} on the two
  zl values.  (Writing the duals as bare zl(1-s, 1, .) without the
  e^{+-2 pi i a} correction leaves an O(1) structured residual -- that
  variant fails the checks here by unit-modulus factors and is not used.)
  At a = 1 both duals collapse onto zeta(1-s) and the factor pair sums to
  chi(s).  The Hurwitz form is the Lerch form at lam = 1 with the second
  alpha-slot 1 - lam = 0 read as the full period 1, so the one function
  fe_rhs evaluates both.  Its phases are written here, not read from afe's
  kind record, so the check shares no equation with the split sums it
  checks; from afe it takes only the kind lookups and the parameter pairs.

Everything is validated numerically: both sides come from independent
routes (decomposition oracle vs Gamma-factor assembly), so a residual at the
1e-7 level or above would indicate a convention error, not noise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .afe import check_pair, split_kind
from .gammafns import chi
from .gammafns import gamma_phase_product as _gpp
from .oracles import hurwitz_euler_maclaurin, lerch_via_hurwitz
from .params import EvalResult, as_unit_fraction, check_s

__all__ = ["fe_rhs", "fe_residual_scan", "default_fe_grid", "ScanPoint",
           "ScanRecord"]

_ABS_FLOOR = 1e-300


def _complement(f: Fraction) -> Fraction:
    """1 - f as a lambda-slot value, with 0 standing for the full period 1."""
    c = 1 - f
    return Fraction(1) if c == 0 else c


def fe_rhs(s: complex, alpha, lam) -> EvalResult:
    """Right-hand side of the reflection identity at rational (alpha, lam):
    the Lerch form for 0 < lam < 1, the Hurwitz periodic-sum form for
    lam = 1 (see the module docstring).  Both dual values are rational-lam
    oracle calls at 1 - s, so the result is fully independent of the
    left-hand side."""
    s = check_s(s)
    alpha = as_unit_fraction(alpha, "alpha")
    lam = as_unit_fraction(lam, "lam")
    a, l = float(alpha), float(lam)
    b = 1.0 - l if lam < 1 else 1.0  # the second dual's alpha-slot
    d1 = lerch_via_hurwitz(1.0 - s, l, _complement(alpha))
    d2 = lerch_via_hurwitz(1.0 - s, b, alpha)
    f1 = _gpp(s, -0.5, 0.5 - 2.0 * a * l)
    f2 = _gpp(s, 0.5, -0.5 + 2.0 * a * b)
    value = f1 * d1.value + f2 * d2.value
    # each Gamma factor is good to 1e-12 relative, gammafns' target
    est = (abs(f1) * d1.error_estimate + abs(f2) * d2.error_estimate
           + 1e-12 * (abs(f1 * d1.value) + abs(f2 * d2.value))
           + 64.0 * 2.22e-16 * abs(value))
    return EvalResult(value, est,
                      d1.main_terms + d2.main_terms,
                      d1.dual_terms + d2.dual_terms,
                      d1.reliable and d2.reliable)


class ScanPoint(NamedTuple):
    s: complex
    alpha: Fraction
    lam: Fraction


class ScanRecord(NamedTuple):
    s: complex
    alpha: Fraction
    lam: Fraction
    residual: float
    reliable: bool


def fe_residual_scan(kind: str, grid: Sequence[ScanPoint]) -> list[ScanRecord]:
    """Relative residual |LHS - RHS| / (|LHS| + 1e-300) per grid point,
    reported worst-first.  Unreliable oracle points are flagged, not dropped.

    kind selects the identity: "lerch" and "hurwitz" check fe_rhs at each
    point's (alpha, lam); "riemann" checks zeta(s) = chi(s) zeta(1-s) with
    both zeta values from the oracle.  Pairs the kind does not take are
    refused first (check_pair)."""
    split_kind(kind)
    for pt in grid:
        check_pair(kind, pt.alpha, pt.lam)
    records = []
    for pt in grid:
        if kind == "riemann":
            lhs = hurwitz_euler_maclaurin(pt.s, 1.0)
            z1 = hurwitz_euler_maclaurin(1.0 - pt.s, 1.0)
            rhs_value = chi(pt.s) * z1.value
            reliable = lhs.reliable and z1.reliable
        else:
            lhs = lerch_via_hurwitz(pt.s, float(pt.alpha), pt.lam)
            rhs = fe_rhs(pt.s, pt.alpha, pt.lam)
            rhs_value, reliable = rhs.value, lhs.reliable and rhs.reliable
        residual = abs(lhs.value - rhs_value) / (abs(lhs.value) + _ABS_FLOOR)
        records.append(ScanRecord(pt.s, pt.alpha, pt.lam, residual, reliable))
    records.sort(key=lambda r: r.residual, reverse=True)
    return records


_GRID_T = (10.0, 25.0, 50.0)
_GRID_SIGMA = (0.25, 0.5, 0.75)


def default_fe_grid(kind: str) -> list[ScanPoint]:
    """The standard verification grid: t in {10, 25, 50}, sigma in
    {1/4, 1/2, 3/4}, and the kind's fecheck pairs, split_kind(kind).fe_pairs
    (its scan pairs without alpha = 1, except for riemann)."""
    pairs = split_kind(kind).fe_pairs
    return [ScanPoint(complex(sigma, t), a, l)
            for t in _GRID_T for sigma in _GRID_SIGMA for a, l in pairs]
