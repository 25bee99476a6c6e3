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
  chi(s), the Riemann identity zeta(s) = chi(s) zeta(1-s), which the
  riemann kind checks as a right-hand side of one term.  The Hurwitz form
  is the Lerch form at lam = 1 with the second alpha-slot 1 - lam = 0 read
  as the full period 1, so the one function fe_rhs evaluates both.

fe_residual_scan checks all three identities on one path: a right-hand
side is a list of terms (_duals), each a factor times a dual value at
1 - s, summed by _assemble.  The phases are written here, not read from
afe's kind record, so the check shares no equation with the split sums it
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
from .oracles import lerch_reference_values
from .params import EvalResult, as_unit_fraction, check_s

__all__ = ["fe_rhs", "fe_residual_scan", "default_fe_grid", "ScanPoint",
           "ScanRecord"]

_ABS_FLOOR = 1e-300


def _duals(alpha, lam, kind: str | None = None) -> tuple[tuple, ...]:
    """The terms of the right-hand side at rational (alpha, lam): for each,
    the (alpha-slot, lambda-slot) pair of its dual value at 1 - s and its
    factor, the phase (a, b) of a gamma_phase_product or None for chi(s).
    The riemann kind's one term is chi(s) zeta(1 - s); otherwise the two
    terms are the Lerch form for lam < 1 and the Hurwitz form for lam = 1
    (see the module docstring)."""
    alpha = as_unit_fraction(alpha, "alpha")
    lam = as_unit_fraction(lam, "lam")
    if kind == "riemann":
        return (((1.0, lam), None),)
    a, l = float(alpha), float(lam)
    # the slots 1 - alpha and 1 - lam, a 0 standing for the full period 1
    b = 1.0 - l if lam < 1 else 1.0
    return (((l, 1 - alpha or Fraction(1)), (-0.5, 0.5 - 2.0 * a * l)),
            ((b, alpha), (0.5, -0.5 + 2.0 * a * b)))


def _assemble(s: complex, terms, duals) -> EvalResult:
    """The right-hand side at s from its terms (see _duals) and their dual
    values: the sum of each term's factor at s times its dual, with an
    estimate that adds the duals' own, the factors' relative error at this
    height (gammafns.factor_error_bound) and the rounding of the sum."""
    factors = [chi(s) if phase is None else _gpp(s, *phase)
               for _, phase in terms]
    products = [f * d.value for f, d in zip(factors, duals)]
    value = sum(products[1:], products[0])  # not from 0: keeps a -0.0 part
    est = (sum(abs(f) * d.error_estimate for f, d in zip(factors, duals))
           + factor_error_bound(s.imag) * sum(abs(p) for p in products)
           + 64.0 * 2.22e-16 * abs(value))
    return EvalResult(value, est, sum(d.main_terms for d in duals),
                      sum(d.dual_terms for d in duals),
                      all(d.reliable for d in duals))


def fe_rhs(s: complex, alpha, lam) -> EvalResult:
    """Right-hand side of the reflection identity at rational (alpha, lam):
    the Lerch form for 0 < lam < 1, the Hurwitz periodic-sum form for
    lam = 1 (see the module docstring).  Both dual values are rational-lam
    oracle values at 1 - s, from one lerch_reference_values call, so the
    result is fully independent of the left-hand side."""
    s = check_s(s)
    terms = _duals(alpha, lam)
    return _assemble(s, terms, lerch_reference_values(
        [(1.0 - s, *pair) for pair, _ in terms]))


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
    point's (alpha, lam), "riemann" zeta(s) = chi(s) zeta(1-s).  Pairs the
    kind does not take are refused first (check_pair).  One path serves all
    three: the left-hand sides come from one lerch_reference_values call,
    the duals of every right-hand side from another."""
    split_kind(kind)
    for pt in grid:
        check_pair(kind, pt.alpha, pt.lam)
    lhs = lerch_reference_values([(pt.s, float(pt.alpha), pt.lam)
                                  for pt in grid])
    plans = [_duals(pt.alpha, pt.lam, kind) for pt in grid]
    duals = iter(lerch_reference_values([(1.0 - pt.s, *pair) for pt, plan
                                         in zip(grid, plans)
                                         for pair, _ in plan]))
    records = []
    for pt, left, plan in zip(grid, lhs, plans):
        right = _assemble(pt.s, plan, [next(duals) for _ in plan])
        residual = abs(left.value - right.value) / (abs(left.value)
                                                    + _ABS_FLOOR)
        records.append(ScanRecord(pt.s, pt.alpha, pt.lam, residual,
                                  left.reliable and right.reliable))
    records.sort(key=lambda r: r.residual, reverse=True)
    return records


_GRID_T = (10.0, 25.0, 50.0)
_GRID_SIGMA = (0.25, 0.5, 0.75)


def default_fe_grid(kind: str) -> list[ScanPoint]:
    """The standard verification grid: t in {10, 25, 50}, sigma in
    {1/4, 1/2, 3/4}, and the kind's scan pairs, split_kind(kind).pairs,
    without alpha = 1 except for riemann, whose one pair it is."""
    return [ScanPoint(complex(sigma, t), a, l) for t in _GRID_T
            for sigma in _GRID_SIGMA for a, l in split_kind(kind).pairs
            if a < 1 or kind == "riemann"]
