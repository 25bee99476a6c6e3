"""Reflection-identity checks: both sides computed by independent routes."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lerchzeta import (DomainError, LerchParams, chi, fe_residual_scan, fe_rhs,
                       hurwitz_euler_maclaurin, lerch_direct,
                       lerch_via_hurwitz)
from lerchzeta import funceq, oracles
from lerchzeta.funceq import ScanPoint, default_fe_grid
from lerchzeta.params import POLE_TOL


def rel(a, b):
    return abs(a - b) / (abs(a) + 1e-300)


class TestFeLerch:
    def test_strip_point(self):
        s = complex(0.5, 30.0)
        lhs = lerch_via_hurwitz(s, 0.5, Fraction(1, 3)).value
        rhs = fe_rhs(s, Fraction(1, 2), Fraction(1, 3)).value
        assert rel(lhs, rhs) <= 1e-8

    def test_real_self_dual_point(self):
        # t = 0: the identity holds at any s; alpha = lam = 1/2 mirrors onto
        # the same parameter pair
        s = complex(0.5, 0.0)
        lhs = lerch_via_hurwitz(s, 0.5, Fraction(1, 2)).value
        rhs = fe_rhs(s, Fraction(1, 2), Fraction(1, 2)).value
        assert rel(lhs, rhs) <= 1e-10

    def test_outside_strip_against_direct_series(self):
        s = complex(2.0, 15.0)
        lhs = lerch_direct(s, LerchParams(0.75, 0.25), 300000)
        rhs = fe_rhs(s, Fraction(3, 4), Fraction(1, 4))
        assert abs(lhs.value - rhs.value) <= lhs.error_estimate + rhs.error_estimate

    def test_alpha_one_allowed(self):
        # lambda-slot 1 - alpha = 0 denotes the full period, same series as 1
        s = complex(0.5, 12.0)
        lhs = lerch_via_hurwitz(s, 1.0, Fraction(1, 3)).value
        rhs = fe_rhs(s, Fraction(1), Fraction(1, 3)).value
        assert rel(lhs, rhs) <= 1e-8

    def test_irrational_rejected(self):
        with pytest.raises(DomainError):
            fe_rhs(complex(0.5, 10.0), 1 / 3, Fraction(1, 2))


class TestFeHurwitz:
    def test_alpha_one_reduces_to_chi(self):
        s = complex(0.5, 30.0)
        rhs = fe_rhs(s, Fraction(1), Fraction(1)).value
        zeta_s = hurwitz_euler_maclaurin(s, 1.0).value
        assert rel(zeta_s, rhs) <= 1e-8
        assert rel(rhs, chi(s) * hurwitz_euler_maclaurin(1 - s, 1.0).value) \
            <= 1e-8

    def test_strip_point(self):
        s = complex(0.5, 25.0)
        lhs = lerch_via_hurwitz(s, 1 / 3, Fraction(1)).value
        rhs = fe_rhs(s, Fraction(1, 3), Fraction(1)).value
        assert rel(lhs, rhs) <= 1e-8

    def test_off_critical_line(self):
        s = complex(0.25, 40.0)
        lhs = lerch_via_hurwitz(s, 0.75, Fraction(1)).value
        rhs = fe_rhs(s, Fraction(3, 4), Fraction(1)).value
        assert rel(lhs, rhs) <= 1e-8


class TestFeRhs:
    """fe_rhs is the one right-hand side of both reflection forms: the
    Hurwitz periodic-sum form at lam = 1, the Lerch form below it."""

    @pytest.mark.parametrize("s", [complex(0.5, 25.0), complex(0.25, -30.0),
                                   complex(2.0, 10.0)])
    def test_matches_both_forms(self, s):
        for a in (Fraction(1, 4), Fraction(1, 3), Fraction(1)):
            for l in (Fraction(1), Fraction(1, 4), Fraction(1, 2),
                      Fraction(2, 3)):
                lhs = lerch_via_hurwitz(s, float(a), l).value
                assert rel(lhs, fe_rhs(s, a, l).value) <= 1e-8

    @pytest.mark.parametrize("alpha, lam", [
        (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 3), Fraction(1)),
        (Fraction(1), Fraction(1))])
    def test_one_table_per_call(self, alpha, lam, monkeypatch):
        # both duals sit at 1 - s, so one oracle table serves them
        real = oracles.lerch_reference_table
        tables = []

        def counting(*args):
            tables.append(args)
            return real(*args)

        monkeypatch.setattr(oracles, "lerch_reference_table", counting)
        fe_rhs(complex(0.5, 50.0), alpha, lam)
        assert len(tables) == 1


# a rational in (0, 1] with denominator at most 8
_RATIONAL = st.integers(1, 8).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q), st.just(q)))


class TestFeRhsEstimate:
    """|LHS - fe_rhs| stays within the two error estimates added together,
    the right-hand one counting the Gamma factors' own relative error."""

    @settings(max_examples=200, deadline=None)
    @given(alpha=_RATIONAL, lam=_RATIONAL, sigma=st.floats(-1.0, 2.0),
           t=st.floats(-300.0, 300.0))
    @example(alpha=Fraction(1, 4), lam=Fraction(1), sigma=0.4575662105593836,
             t=-31.08849446660406)
    @example(alpha=Fraction(1), lam=Fraction(1), sigma=0.5442299199301806,
             t=18.633025090969852)
    # next to the pole of Gamma(1 - s) at s = 1
    @example(alpha=Fraction(1), lam=Fraction(1), sigma=1.0, t=1e-9)
    def test_difference_within_the_estimates(self, alpha, lam, sigma, t):
        s = complex(sigma, t)
        # the poles: the oracle's at s = 1 and 1 - s = 1, Gamma(1 - s)'s at 2
        assume(min(abs(s - k) for k in (0, 1, 2)) > POLE_TOL)
        lhs = lerch_via_hurwitz(s, float(alpha), lam)
        rhs = fe_rhs(s, alpha, lam)
        assert abs(lhs.value - rhs.value) <= (lhs.error_estimate
                                              + rhs.error_estimate)


class TestResidualScan:
    def test_empty_grid(self):
        assert fe_residual_scan("lerch", []) == []

    def test_cardinality_and_sorting(self):
        grid = [ScanPoint(complex(0.5, t), Fraction(1, 2), Fraction(1, 2))
                for t in (10.0, 25.0, 50.0)]
        records = fe_residual_scan("lerch", grid)
        assert len(records) == 3
        assert records[0].residual >= records[1].residual >= records[2].residual

    def test_riemann_residual_is_against_chi_times_the_dual(self):
        grid = default_fe_grid("riemann")
        expected = {}
        for pt in grid:
            left = lerch_via_hurwitz(pt.s, 1.0, 1).value
            right = chi(pt.s) * lerch_via_hurwitz(1.0 - pt.s, 1.0, 1).value
            expected[pt.s] = abs(left - right) / (abs(left) + 1e-300)
        records = fe_residual_scan("riemann", grid)
        assert {r.s: r.residual.hex() for r in records} \
            == {s: v.hex() for s, v in expected.items()}

    def test_default_grids_meet_tolerance(self):
        for kind in ("lerch", "hurwitz", "riemann"):
            records = fe_residual_scan(kind, default_fe_grid(kind))
            assert max(r.residual for r in records) <= 1e-7

    @pytest.mark.parametrize("kind, alpha, lam, taker", [
        ("riemann", Fraction(1, 2), Fraction(1, 2), "lerch"),
        ("hurwitz", Fraction(1, 2), Fraction(1, 3), "lerch"),
        ("lerch", Fraction(1, 3), Fraction(1), "hurwitz")])
    def test_refuses_a_pair_the_kind_does_not_take(self, kind, alpha, lam,
                                                   taker, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("oracle called before the pair check")
        monkeypatch.setattr(funceq, "lerch_reference_values", no_oracle)
        grid = default_fe_grid(kind) + [ScanPoint(complex(0.5, 20.0), alpha,
                                                  lam)]
        with pytest.raises(DomainError, match=(
                f"no {kind!r} split sum at \\(alpha, lam\\) = "
                f"\\({alpha}, {lam}\\); the {taker!r} kind takes it")):
            fe_residual_scan(kind, grid)
