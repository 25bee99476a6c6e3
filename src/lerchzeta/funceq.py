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
from .gammafns import chi, factor_error_bound
from .gammafns import gamma_phase_product as _gpp
from .oracles import lerch_reference_table, lerch_via_hurwitz
from .params import EvalResult, as_unit_fraction, check_s

__all__ = ["fe_rhs", "fe_residual_scan", "default_fe_grid", "ScanPoint",
           "ScanRecord"]

_ABS_FLOOR = 1e-300


def _complement(f: Fraction) -> Fraction:
    """1 - f as a lambda-slot value, with 0 standing for the full period 1."""
    c = 1 - f
    return Fraction(1) if c == 0 else c


def _duals(alpha, lam) -> tuple[tuple, tuple]:
    """The two terms of the right-hand side at rational (alpha, lam): for
    each, the (alpha-slot, lambda-slot) pair of its dual value at 1 - s and
    the phase (a, b) of its Gamma factor (see the module docstring)."""
    alpha = as_unit_fraction(alpha, "alpha")
    lam = as_unit_fraction(lam, "lam")
    a, l = float(alpha), float(lam)
    b = 1.0 - l if lam < 1 else 1.0  # the second dual's alpha-slot
    return (((l, _complement(alpha)), (-0.5, 0.5 - 2.0 * a * l)),
            ((b, alpha), (0.5, -0.5 + 2.0 * a * b)))


def _assemble(s: complex, terms) -> EvalResult:
    """The right-hand side at s from its two (phase, dual value) terms: the
    sum of gamma_phase_product(s, *phase) times each dual, with an estimate
    that adds the duals' own, the factors' relative error at this height
    (gammafns.factor_error_bound) and the rounding of the sum."""
    (p1, d1), (p2, d2) = terms
    f1 = _gpp(s, *p1)
    f2 = _gpp(s, *p2)
    value = f1 * d1.value + f2 * d2.value
    est = (abs(f1) * d1.error_estimate + abs(f2) * d2.error_estimate
           + factor_error_bound(s.imag) * (abs(f1 * d1.value)
                                           + abs(f2 * d2.value))
           + 64.0 * 2.22e-16 * abs(value))
    return EvalResult(value, est,
                      d1.main_terms + d2.main_terms,
                      d1.dual_terms + d2.dual_terms,
                      d1.reliable and d2.reliable)


def fe_rhs(s: complex, alpha, lam) -> EvalResult:
    """Right-hand side of the reflection identity at rational (alpha, lam):
    the Lerch form for 0 < lam < 1, the Hurwitz periodic-sum form for
    lam = 1 (see the module docstring).  Both dual values are rational-lam
    oracle calls at 1 - s, so the result is fully independent of the
    left-hand side."""
    s = check_s(s)
    return _assemble(s, [(phase, lerch_via_hurwitz(1.0 - s, *pair))
                         for pair, phase in _duals(alpha, lam)])


def _oracle_values(requests) -> list[EvalResult]:
    """lerch_via_hurwitz(s, alpha, lam) for every (s, alpha, lam) of
    requests, bit for bit, from one lerch_reference_table per height: the
    requests at one height share its direct sums and continuation call."""
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
    refused first (check_pair).  The oracle values come from one
    lerch_reference_table per height t and one per height of 1 - s, equal
    bit for bit to one lerch_via_hurwitz call per value."""
    split_kind(kind)
    for pt in grid:
        check_pair(kind, pt.alpha, pt.lam)
    if kind == "riemann":
        lhs = _oracle_values([(pt.s, 1.0, 1) for pt in grid])
        duals = _oracle_values([(1.0 - pt.s, 1.0, 1) for pt in grid])
        rhs = [(chi(pt.s) * z1.value, z1.reliable)
               for pt, z1 in zip(grid, duals)]
    else:
        lhs = _oracle_values([(pt.s, float(pt.alpha), pt.lam) for pt in grid])
        plans = [_duals(pt.alpha, pt.lam) for pt in grid]
        duals = iter(_oracle_values([(1.0 - pt.s, *pair) for pt, plan
                                     in zip(grid, plans) for pair, _ in plan]))
        rhs = [(r.value, r.reliable) for r in (
            _assemble(pt.s, [(phase, next(duals)) for _, phase in plan])
            for pt, plan in zip(grid, plans))]
    records = []
    for pt, left, (rhs_value, rhs_reliable) in zip(grid, lhs, rhs):
        residual = abs(left.value - rhs_value) / (abs(left.value) + _ABS_FLOOR)
        records.append(ScanRecord(pt.s, pt.alpha, pt.lam, residual,
                                  left.reliable and rhs_reliable))
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
