"""Reflection-identity checks: both sides computed by independent routes."""

from fractions import Fraction

import pytest

from lerchzeta import (DomainError, LerchParams, chi, fe_residual_scan, fe_rhs,
                       hurwitz_euler_maclaurin, lerch_direct,
                       lerch_via_hurwitz)
from lerchzeta.funceq import ScanPoint, default_fe_grid


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


class TestResidualScan:
    def test_empty_grid(self):
        assert fe_residual_scan("lerch", []) == []

    def test_cardinality_and_sorting(self):
        grid = [ScanPoint(complex(0.5, t), Fraction(1, 2), Fraction(1, 2))
                for t in (10.0, 25.0, 50.0)]
        records = fe_residual_scan("lerch", grid)
        assert len(records) == 3
        assert records[0].residual >= records[1].residual >= records[2].residual

    def test_default_grids_meet_tolerance(self):
        for kind in ("lerch", "hurwitz"):
            records = fe_residual_scan(kind, default_fe_grid(kind))
            assert max(r.residual for r in records) <= 1e-7
