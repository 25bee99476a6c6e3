"""Reference evaluators: direct series, Euler-Maclaurin, rational-lam
decomposition."""

import cmath
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import hurwitz_at_cutoff
from lerchzeta import (ConfigError, DomainError, LerchParams, PoleError, afe,
                       hurwitz_euler_maclaurin, lerch_direct, lerch_via_hurwitz,
                       mean_square_ladder, oracles)
from lerchzeta.meansquare import _BLOCK, _RESTART, T0, _oracle_integrand
from lerchzeta.oracles import (_em_tail, _hurwitz_table, lerch_reference_table,
                               lerch_reference_values, reference_cutoff)
from lerchzeta.params import MAX_TERMS, POLE_TOL, em_cutoff

PI2_OVER_6 = math.pi ** 2 / 6.0

# the literature value of the first zero ordinate, used as a landmark only
FIRST_ZERO_T = 14.134725

# a rational in (0, 1] with denominator at most 8
_RATIONAL = st.integers(1, 8).flatmap(
    lambda q: st.integers(1, q).map(lambda p: Fraction(p, q)))


class TestLerchDirect:
    def test_zeta_two(self):
        res = lerch_direct(2.0, LerchParams(1.0, 1.0), 10 ** 6)
        assert res.reliable
        assert abs(res.value - PI2_OVER_6) <= res.error_estimate

    def test_zeta_two_alpha_half(self):
        # zetaH(2, 1/2) = 4 sum 1/(2n+1)^2 = pi^2/2
        res = lerch_direct(2.0, LerchParams(0.5, 1.0), 10 ** 6)
        assert abs(res.value - math.pi ** 2 / 2.0) <= res.error_estimate

    def test_single_term(self):
        alpha = 0.37
        res = lerch_direct(complex(2.5, 3.0), LerchParams(alpha, 0.25), 1)
        assert res.value == cmath.exp(-complex(2.5, 3.0) * math.log(alpha))
        assert res.main_terms == 1

    def test_hurwitz_in_strip_rejected(self):
        with pytest.raises(DomainError):
            lerch_direct(complex(0.8, 5.0), LerchParams(1.0, 1.0), 100)

    def test_value_beyond_double_range_raises(self):
        # the n = 0 term (1e-5)^-800 overflows; it used to come back as
        # inf - inf j, marked reliable, after a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (0.5, 1.0):
                with pytest.raises(OverflowError,
                                   match=r"zl\(.* is beyond double range"):
                    lerch_direct(complex(800.0, 1.0), LerchParams(1e-5, lam),
                                 100)

    @pytest.mark.parametrize("terms", [MAX_TERMS + 1, 10 ** 9])
    def test_terms_beyond_max_terms_refused(self, terms):
        # refused before anything is allocated: 3e7 terms used to run for
        # seconds, and 1e9 for more than a minute
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="MAX_TERMS"):
                lerch_direct(2.0, LerchParams(1.0, 1.0), terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("terms", [1e5, 10.5, Fraction(7, 2), "100", True])
    def test_terms_not_an_integer_refused(self, terms):
        # refused before anything is allocated: a float used to end in a
        # TypeError from range() inside the direct sums, and True summed one
        # term and reported main_terms=True
        with pytest.raises(DomainError, match="terms"):
            lerch_direct(2.0, LerchParams(1.0, 1.0), terms)

    def test_numpy_integer_terms_accepted(self):
        assert lerch_direct(2.0, LerchParams(0.5, 0.25), np.int64(100)) \
            == lerch_direct(2.0, LerchParams(0.5, 0.25), 100)

    def test_strip_with_oscillation_unreliable(self):
        res = lerch_direct(complex(0.8, 5.0), LerchParams(1.0, 0.5), 20000)
        assert not res.reliable
        # the partial-summation bound still holds against a long-sum proxy
        ref = lerch_direct(complex(0.8, 5.0), LerchParams(1.0, 0.5), 4_000_000)
        assert abs(res.value - ref.value) <= res.error_estimate


class TestHurwitzEulerMaclaurin:
    def test_zeta_two(self):
        res = hurwitz_euler_maclaurin(2.0, 1.0)
        assert res.value.real == pytest.approx(PI2_OVER_6, abs=1e-12)
        assert res.reliable

    def test_zeta_zero_continuation(self):
        zeta_0 = hurwitz_euler_maclaurin(0.0, 1.0).value
        assert zeta_0.real == pytest.approx(-0.5, abs=1e-13)
        assert abs(zeta_0.imag) < 1e-13

    def test_first_zero_landmark(self):
        res = hurwitz_euler_maclaurin(complex(0.5, FIRST_ZERO_T), 1.0)
        assert abs(res.value) <= 5e-4
        # unreliable flag fires near zeros: the estimate dwarfs the value
        assert not res.reliable

    def test_pole(self):
        with pytest.raises(PoleError):
            hurwitz_euler_maclaurin(1.0, 0.5)

    def test_value_beyond_double_range_raises(self):
        # at sigma = 800 the n = 0 term (1/4)^-800 overflows; the sum used to
        # come back as nan (through the phases of lerch_via_hurwitz) and be
        # called reliable.  At sigma = -800 the continuation's power
        # (N + a)^(-s) overflows.  The error is the only report, and it
        # names the point: numpy warns of nothing.
        beyond = r"zetaH\(.* is beyond double range"
        for s in (complex(800.0, 1.0), complex(-800.0, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=beyond):
                    hurwitz_euler_maclaurin(s, 0.25)
                with pytest.raises(OverflowError, match=beyond):
                    lerch_via_hurwitz(s, 0.5, Fraction(1, 2))

    def test_leading_term_at_the_edge_of_double_range(self):
        # at a = 1/DBL_MAX the direct sum keeps a^(-1) finite while a ** -1
        # overflows; the floor then makes the estimate infinite, no error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = hurwitz_euler_maclaurin(complex(1.0, 10.0),
                                          1.0 / sys.float_info.max)
        assert cmath.isfinite(res.value) and not res.reliable

    @pytest.mark.parametrize("t", [0.0, 1.0, -7.5, 39.2, 40.0, 40.5, 333.3,
                                   -2000.0, 1e4 + 0.5])
    def test_default_cutoff_is_the_least_stable_one(self, t):
        # ceil(|t|) + 10, the least cutoff at which the corrections shrink
        # term by term, and at least 50; the value sums it
        assert em_cutoff(t) == max(math.ceil(abs(t)) + 10, 50)
        assert hurwitz_euler_maclaurin(complex(0.5, t), 0.5).main_terms \
            == em_cutoff(t)

    def test_cutoff_beyond_max_terms_is_refused(self):
        for q in (1, 64):
            with pytest.raises(ConfigError, match="MAX_TERMS"):
                em_cutoff(3e7 / q, q)

    @pytest.mark.parametrize("t", [0.0, 40.0, -333.3, 2000.0])
    @pytest.mark.parametrize("lams", [(), (1,), (Fraction(1, 2), 0.75),
                                      ("1/3", Fraction(5, 64), 1)])
    def test_reference_cutoff_is_em_cutoff_at_largest_denominator(self, t,
                                                                   lams):
        q = max((Fraction(lam).denominator for lam in lams), default=1)
        assert reference_cutoff(t, lams) == em_cutoff(t, q)

    @pytest.mark.parametrize("t, lams, error, match", [
        (math.nan, (1,), DomainError, "t must be finite"),
        (2e15, (1,), DomainError, "t must be finite"),
        (80.0, (Fraction(1, 65),), DomainError, "rational with denominator"),
        (80.0, (0.1,), DomainError, "rational with denominator"),
        (80.0, ("abc",), DomainError, "rational with denominator"),
        (80.0, (math.inf,), DomainError, "rational with denominator"),
        (80.0, (1.5,), DomainError, r"\(0, 1\]"),
        (3e7 / 64, (Fraction(1, 64),), ConfigError, "MAX_TERMS")])
    def test_reference_cutoff_refuses(self, t, lams, error, match):
        with pytest.raises(error, match=match):
            reference_cutoff(t, lams)

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            hurwitz_euler_maclaurin(2.0, 1.5)
        with pytest.raises(DomainError):
            hurwitz_euler_maclaurin(2.0, 0.0)

    def test_step_halving_bound_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = complex(rng.uniform(0, 1), rng.uniform(7, 500))
            alpha = rng.uniform(0.05, 1.0)
            base = hurwitz_euler_maclaurin(s, alpha)
            refined = hurwitz_at_cutoff(
                s, alpha, 2 * max(2 * math.ceil(abs(s.imag)), 50))
            assert abs(base.value - refined) <= base.error_estimate


class TestLerchViaHurwitz:
    def test_q_one_is_hurwitz_bit_for_bit(self):
        # at alpha = 1 the Hurwitz value is the Riemann zeta-function
        for s, alpha in ((complex(0.4, 33.0), 0.7),
                         (complex(0.5, 57.0), 1.0),
                         (complex(0.5, -120.5), 0.3),
                         (complex(2.0, 9.0), 1.0)):
            # EvalResult equality compares every field exactly
            assert lerch_via_hurwitz(s, alpha, Fraction(1)) \
                == hurwitz_euler_maclaurin(s, alpha)

    def test_half_lambda_regrouping_identity(self):
        # zl(s, a, 1/2) = 2^-s (zetaH(s, a/2) - zetaH(s, (1+a)/2)), exact algebra
        s = complex(0.6, 21.0)
        for alpha in (0.25, 1.0):
            lhs = lerch_via_hurwitz(s, alpha, Fraction(1, 2))
            rhs = (cmath.exp(-s * math.log(2.0))
                   * (hurwitz_euler_maclaurin(s, alpha / 2.0).value
                      - hurwitz_euler_maclaurin(s, (1.0 + alpha) / 2.0).value))
            assert lhs.value == pytest.approx(rhs, rel=1e-13)

    def test_matches_direct_series_at_sigma_two(self):
        s = complex(2.0, 9.0)
        for q in (2, 3, 5, 7, 8):
            for p in range(1, q + 1):
                if math.gcd(p, q) != 1:
                    continue
                for alpha in (0.25, 0.75, 1.0):
                    dec = lerch_via_hurwitz(s, alpha, Fraction(p, q))
                    direct = lerch_direct(s, LerchParams(alpha, p / q), 200000)
                    assert (abs(dec.value - direct.value)
                            <= dec.error_estimate + direct.error_estimate)

    def test_denominator_cap(self):
        with pytest.raises(DomainError):
            lerch_via_hurwitz(2.0, 0.5, Fraction(1, 65))

    def test_conjugation_symmetry(self):
        grid = [(complex(0.25, 13.0), 0.3, Fraction(1, 3)),
                (complex(0.5, 77.0), 1.0, Fraction(2, 5)),
                (complex(0.9, 250.0), 0.6, Fraction(5, 8))]
        for s, alpha, lam in grid:
            a = lerch_via_hurwitz(s, alpha, lam).value
            b = lerch_via_hurwitz(s.conjugate(), alpha, 1 - lam).value
            assert a.conjugate() == pytest.approx(b, rel=1e-10)
        # Hurwitz case: lam stays 1
        s = complex(0.5, 60.0)
        a = hurwitz_euler_maclaurin(s, 0.45).value
        b = hurwitz_euler_maclaurin(s.conjugate(), 0.45).value
        assert a.conjugate() == pytest.approx(b, rel=1e-12)


class TestReferenceTable:
    # q = 1, 2, 3 and 4; the shift 1/4 is shared by (1/4, 1), (1/2, 1/2)
    # and (1, 1/4), the shift 1/2 by (1/2, 1), (1, 1/2) and (1, 1/4)
    PAIRS = [(0.25, Fraction(1)), (0.5, Fraction(1)), (1.0, Fraction(1)),
             (0.5, Fraction(1, 2)), (1.0, Fraction(1, 2)),
             (1.0, Fraction(1, 4)), (0.75, Fraction(3, 4)),
             (Fraction(1, 3), Fraction(2, 3))]
    SIGMAS = (0.0, 0.25, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize("t", [-321.7, 2.5, 55.0, 480.3])
    def test_equals_point_by_point_evaluation(self, t):
        table = lerch_reference_table(t, self.SIGMAS, self.PAIRS)
        assert len(table) == len(self.SIGMAS) * len(self.PAIRS)
        for sigma in self.SIGMAS:
            for alpha, lam in self.PAIRS:
                # EvalResult equality compares every field exactly
                assert table[sigma, alpha, lam] \
                    == lerch_via_hurwitz(complex(sigma, t), alpha, lam)

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(-2e3, 2e3),
           sigmas=st.lists(st.floats(-3.0, 3.0).map(lambda v: v + 0.0),
                           min_size=1, max_size=6),
           pairs=st.lists(st.tuples(_RATIONAL, _RATIONAL), min_size=1,
                          max_size=4))
    # a^(-sigma) in the rounding floor once came from numpy's power, which
    # gave a (1, 1) exponent of -1 other last bits than a (3, 1) one
    @example(t=15.0, sigmas=[0.0, 1.0, 2.0],
             pairs=[(Fraction(1, 5), Fraction(1, 7))])
    def test_equals_one_point_calls(self, t, sigmas, pairs):
        # the continuation runs over every (sigma, shift) of the table at
        # once; each entry must still be its one-point call, bit for bit
        assume(all(abs(complex(sigma, t) - 1.0) > POLE_TOL
                   for sigma in sigmas))
        table = lerch_reference_table(t, sigmas, pairs)
        for sigma in sigmas:
            for alpha, lam in pairs:
                assert table[sigma, alpha, lam] \
                    == lerch_via_hurwitz(complex(sigma, t), alpha, lam)

    def test_equals_one_point_calls_past_one_chunk(self):
        # at t = 1.05e6 each component sums 1,050,010 terms, past one 2^20
        # chunk of the direct sums; the two pairs share the shift 1/2
        t = 1.05e6
        pairs = [(0.5, Fraction(1)), (1.0, Fraction(1, 2))]
        table = lerch_reference_table(t, (0.25, 0.75), pairs)
        assert len(table) == 4
        for (sigma, alpha, lam), result in table.items():
            assert result.main_terms > 1 << 20
            assert result == lerch_via_hurwitz(complex(sigma, t), alpha, lam)

    def test_no_sigmas_or_no_pairs_give_an_empty_table(self):
        pairs = [(0.5, Fraction(1, 2)), (1.0, Fraction(1))]
        assert lerch_reference_table(50.0, [], pairs) == {}
        assert lerch_reference_table(50.0, (0.5,), []) == {}

    def test_pole(self):
        with pytest.raises(PoleError):
            lerch_reference_table(0.0, (0.5, 1.0), [(0.5, Fraction(1, 2))])
        with pytest.raises(PoleError):
            lerch_reference_table(0.0, (1.0,), [(1.0, Fraction(1))])

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            lerch_reference_table(math.nan, (0.5,), [(0.5, Fraction(1, 2))])
        with pytest.raises(DomainError):
            lerch_reference_table(-2e15, (0.5,), [(0.5, Fraction(1, 2))])
        with pytest.raises(DomainError):
            lerch_reference_table(50.0, (0.5,), [(0.5, 0.123456789)])


def _bits(result):
    """Every field of an EvalResult, its floats by their bits (== would
    take 0.0 for -0.0)."""
    return (result.value.real.hex(), result.value.imag.hex(),
            result.error_estimate.hex(), result.main_terms, result.dual_terms,
            result.reliable)


class TestReferenceValues:
    # heights 55, -321.7, 0.0 and -0.0; the first request comes again
    REQUESTS = [(complex(0.5, 55.0), 0.5, Fraction(1, 2)),
                (complex(0.25, 0.0), 1.0, Fraction(1)),
                (complex(0.25, -0.0), 1.0, Fraction(1)),
                (complex(0.75, -321.7), Fraction(1, 3), Fraction(2, 3)),
                (complex(0.0, 55.0), 1.0, Fraction(1, 4)),
                (complex(0.5, 55.0), 0.5, Fraction(1, 2)),
                (complex(-1.0, -0.0), 0.5, Fraction(1, 2))]

    def test_one_table_per_height_in_request_order(self, monkeypatch):
        real = oracles.lerch_reference_table
        heights = []

        def counting(t, sigmas, pairs):
            heights.append(t.hex())
            return real(t, sigmas, pairs)

        monkeypatch.setattr(oracles, "lerch_reference_table", counting)
        got = lerch_reference_values(iter(self.REQUESTS))
        assert sorted(heights) == sorted({s.imag.hex()
                                          for s, _, _ in self.REQUESTS})
        monkeypatch.undo()
        assert [_bits(r) for r in got] \
            == [_bits(lerch_via_hurwitz(*req)) for req in self.REQUESTS]
        assert _bits(got[0]) == _bits(got[5])

    def test_no_requests(self):
        assert lerch_reference_values([]) == []


class TestOneCutoffRule:
    """Every caller takes the oracle's direct-sum length from
    reference_cutoff, so a height the oracle's rule refuses is refused by
    each of them (the CLI's afescan is checked in test_cli)."""

    def test_reference_table(self, oracle_refuses):
        oracle_refuses(300.0)
        with pytest.raises(ConfigError, match="refuses"):
            lerch_reference_table(300.0, (0.5,), [(0.5, Fraction(1, 2))])
        assert lerch_reference_table(80.0, (0.5,), [(0.5, Fraction(1, 2))])

    def test_scan_grid_refuses_at_the_call(self, oracle_refuses):
        # before any point is drawn, although t = 80's points come first
        oracle_refuses(300.0)
        with pytest.raises(ConfigError, match="refuses"):
            afe.scan_grid("lerch", [80.0, 300.0],
                          lambda t: [("balanced", afe.choose_split(t))])

    def test_mean_square_grid(self, oracle_refuses):
        oracle_refuses(300.0)
        with pytest.raises(ConfigError, match="refuses"):
            mean_square_ladder(300.0, 0.5, Fraction(1, 2), method="oracle")

    def test_mean_square_grid_restart_chunk(self, oracle_refuses):
        # the top height of the second restart chunk of a T = 500 ladder,
        # on the grid mean_square_ladder builds (the oracle's step 0.08)
        T, step = 500.0, 0.08
        h = (T - T0) / math.ceil((T - T0) / (step / 2.0))
        oracle_refuses(T0 + h * (2 * _RESTART - 1))
        with pytest.raises(ConfigError, match="refuses"):
            mean_square_ladder(T, 0.5, Fraction(1, 2), method="oracle")

    def test_mean_square_stub(self, oracle_refuses):
        # the [1, t0] stub's cutoff, on every route
        oracle_refuses(T0)
        with pytest.raises(ConfigError, match="refuses"):
            mean_square_ladder(40.0, 0.5, Fraction(1, 2), method="afe")


class TestCorrectionCount:
    """K = _BERNOULLI_TERMS corrections are enough: at em_cutoff(t) the K-th
    is below the rounding floor of _hurwitz_table, so the estimate, the
    larger of the two, is the floor.  The margin is smallest for t in
    [40, 300], where the cutoff is at or near its 50-term minimum: the K-th
    correction reached 0.055 of the floor at t = 87, sigma = 0."""

    SIGMAS = (0.0, 0.5, 1.0)
    SHIFTS = (1 / 64, 0.25, 1.0)

    def below_floor(self, t: float) -> bool:
        N = em_cutoff(t)
        _, estimates = _hurwitz_table(t, self.SIGMAS, self.SHIFTS, N)
        s = np.array([complex(sigma, t) for sigma in self.SIGMAS])[:, None]
        _, lasts = _em_tail(s, N + np.array(self.SHIFTS))
        # the estimate is max(last, floor): it exceeds the last correction
        # only where the floor does
        return bool((lasts < estimates).all())

    @pytest.mark.parametrize("t", [1.0, 10.0, 40.0, 87.0, 333.3, 500.0,
                                   1100.0, 2000.0, 2e4])
    def test_last_correction_below_the_floor(self, t):
        assert self.below_floor(t)

    def test_last_correction_below_the_floor_from_t_40_to_60(self):
        assert all(self.below_floor(t) for t in np.linspace(40.0, 60.0, 161))


class TestContinuationAgainstMpmath:
    """The one Euler-Maclaurin continuation, shared by the point table and
    the mean-square grid, against mpmath.zeta at 30 digits, a route that
    shares no code with it.  The reference is taken at the double alpha the
    oracle is given: at s = 1 + 1000i the derivative in alpha is about 1e4,
    so the 2e-17 between 1/3 and its double is visible against the
    estimate."""

    ALPHAS = (0.25, 1 / 3, 0.75, 0.5, 1.0)

    @staticmethod
    def zeta(s: complex, alpha: float) -> complex:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag),
                                       mpmath.mpf(alpha)))

    @pytest.mark.parametrize("s", [complex(0.5, 1.0), complex(0.5, 7.3),
                                   complex(0.0, 300.0), complex(1.0, 1000.0),
                                   complex(0.25, -640.0)])
    def test_point_within_error_estimate(self, s):
        for alpha in self.ALPHAS:
            res = hurwitz_euler_maclaurin(s, alpha)
            assert abs(res.value - self.zeta(s, alpha)) <= res.error_estimate

    @pytest.mark.parametrize("t", [40.0, 333.3, 2000.0, 1e4])
    def test_default_cutoff_within_error_estimate(self, t):
        # the least stable cutoff, down to small shifts: there the n = 0 term
        # a^(-s) outweighs the rest, and the rounding of its phase t log a is
        # not averaged away (1/4096 is a shift of lerch_via_hurwitz at
        # alpha = 1/64, lam = 1/64)
        for sigma in (0.0, 0.5, 1.0):
            s = complex(sigma, t)
            for alpha in (1 / 4096, 1 / 64, 1 / 16, 0.25, 1 / 3, 0.5, 1.0):
                res = hurwitz_euler_maclaurin(s, alpha)
                assert res.main_terms == math.ceil(t) + 10
                assert abs(res.value - self.zeta(s, alpha)) \
                    <= res.error_estimate

    @staticmethod
    def lerch(s: complex, alpha: float, lam: Fraction) -> complex:
        """zl(s, alpha, p/q) by the regrouping
        q^(-s) sum_r e(r p/q) zeta(s, (r + alpha)/q), at 30 digits."""
        mpmath = pytest.importorskip("mpmath")
        p, q = lam.numerator, lam.denominator
        with mpmath.workdps(30):
            s = mpmath.mpc(s.real, s.imag)
            return complex(mpmath.power(q, -s) * mpmath.fsum(
                mpmath.expjpi(mpmath.mpf(2 * r * p) / q)
                * mpmath.zeta(s, (r + mpmath.mpf(alpha)) / q)
                for r in range(q)))

    @pytest.mark.parametrize("t_start,h,lam", [
        (1.0, 9.0 / (_BLOCK + 2), Fraction(1)),
        (270.0, 0.01, Fraction(1)),
        (990.0, 0.01, Fraction(1)),
        (270.0, 0.01, Fraction(1, 2)),
        (990.0, 0.01, Fraction(1, 2)),
        (270.0, 0.01, Fraction(2, 3)),
        (990.0, 0.01, Fraction(2, 3))],
        ids=["stub", "270", "990", "270-half", "990-half", "270-two-thirds",
             "990-two-thirds"])
    def test_grid_integrand(self, t_start, h, lam):
        # for q > 1 the q components' continuations are one array, summed
        # with their phases over the component axis
        n = _BLOCK + 3
        for alpha in self.ALPHAS:
            got = _oracle_integrand(alpha, lam, t_start + h * (n - 1))(
                t_start, h, 0, n)
            for j in (0, _BLOCK - 1, _BLOCK, n - 1):
                want = self.lerch(complex(0.5, t_start + h * j), alpha, lam)
                assert abs(got[j] - want) <= 1e-11 * (1 + abs(want))
