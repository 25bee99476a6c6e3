"""Gamma, chi and the combined Gamma-phase factors."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lerchzeta import (PoleError, chi, gamma, gamma_phase_product, gammafns,
                       hurwitz_euler_maclaurin, log_gamma)
from lerchzeta.errors import DomainError
from lerchzeta.gammafns import factor_error_bound, log_gamma_error_bound
from lerchzeta.params import MAX_HEIGHT

TWO_PI = 2.0 * math.pi

# Gamma(0.5 + 10i) to 20 digits, computed once with mpmath at 30 digits.
GAMMA_HALF_PLUS_10I = complex(3.378724376234235797e-7, 1.6893698390389189112e-7)


class TestLogGamma:
    def test_at_one(self):
        lg = log_gamma(1.0)
        assert abs(lg.real) < 1e-14
        assert abs(lg.imag) < 1e-14

    def test_at_half(self):
        lg = log_gamma(0.5)
        assert lg.real == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
        assert lg.imag == pytest.approx(0.0, abs=1e-14)

    def test_at_five(self):
        assert cmath.exp(log_gamma(5.0)) == pytest.approx(24.0, rel=1e-13)

    # within POLE_TOL of a pole off the real axis too: the reflection's
    # log(1 - e^(2 pi i z)) would otherwise be log(0)
    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, complex(-3.0, 0.0),
                                   complex(0.0, 1e-170),
                                   complex(-2.0, -1e-16)])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_pole_tolerance(self):
        with pytest.raises(PoleError):
            log_gamma(-2.0 + 5e-15)
        log_gamma(-2.0 + 1e-12)  # off the pole: fine

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            log_gamma(complex(float("nan"), 1.0))
        with pytest.raises(DomainError):
            gamma_phase_product(complex(0.5, 2e15), 0.5, 0.0)

    def test_reflection_identity(self):
        # exp(logG(s) + logG(1-s)) sin(pi s)/pi = 1; |t| kept <= 50 so the
        # naive sin does not overflow.
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = complex(rng.uniform(-4, 4), rng.uniform(-50, 50))
            if abs(s.imag) < 1e-3 and abs(s.real - round(s.real)) < 1e-3:
                continue
            prod = (cmath.exp(log_gamma(s)) * cmath.exp(log_gamma(1.0 - s))
                    * cmath.sin(math.pi * s) / math.pi)
            assert prod == pytest.approx(1.0, rel=1e-10)

    def test_conjugation_exact(self):
        for s in [complex(0.3, 7.0), complex(-1.2, 33.3), complex(0.9, 400.0)]:
            assert gamma(s.conjugate()) == gamma(s).conjugate()

    def test_gamma_trivia(self):
        assert gamma(2.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_gamma_against_frozen_reference(self):
        assert gamma(complex(0.5, 10.0)) == pytest.approx(GAMMA_HALF_PLUS_10I,
                                                          rel=1e-12)

    def test_gamma_overflow(self):
        with pytest.raises(OverflowError):
            gamma(200.0)

    def test_arguments_stay_unreduced(self):
        # arg Gamma(1/2 + it) ~ t log t - t, far past 2 pi
        assert log_gamma(complex(0.5, 1000.0)).imag > TWO_PI
        lg = log_gamma(complex(0.5, 100.0))
        assert lg.imag > TWO_PI
        reduced = complex(lg.real, math.remainder(lg.imag, TWO_PI))
        assert cmath.exp(lg) == pytest.approx(cmath.exp(reduced), rel=1e-12)

    def test_underflow_is_silent_zero(self):
        # |Gamma(1/2 + 1000i)| = sqrt(pi / cosh(1000 pi)) ~ e^-1570
        assert gamma(complex(0.5, 1000.0)) == 0.0

    def test_overflow_raises(self):
        # an infinite log-modulus raises like a finite one out of range
        assert log_gamma(1e308).real == math.inf
        # at -1e308 log Gamma(1-s) (2 pi)^(s-1) is inf - inf, a NaN
        for call in (lambda: gamma(1e308), lambda: gamma(complex(1e308, 5.0)),
                     lambda: gamma_phase_product(-1e300, 0.5, 0.0),
                     lambda: gamma_phase_product(-1e308, 0.5, 0.0),
                     lambda: chi(-300.5)):
            with pytest.raises(OverflowError):
                call()


def _log_gamma_error(z, v=None):
    """|v - log Gamma(z)|, v = log_gamma(z) by default, against 40-digit
    mpmath, the imaginary parts compared modulo 2 pi (the reflection branch
    may add multiples)."""
    mpmath = pytest.importorskip("mpmath")
    v = log_gamma(z) if v is None else v
    with mpmath.workdps(40):
        ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        k = round((v.imag - float(ref.imag)) / TWO_PI)
        return float(abs(mpmath.mpc(v.real, v.imag) - ref
                         - 2j * mpmath.pi * k))


def _points(seed, lo, hi, sign, right, n=300):
    """n random z with lo <= |z| <= hi, sign(Im z) = sign, and Re z >= 1/2
    (right) or Re z < 1/2 (the reflection branch)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        z = cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, math.pi)) * sign
        if (z.real >= 0.5) == right:
            out.append(z)
    return out


class TestLogGammaAgainstMpmath:
    """log_gamma within its stated bound, log_gamma_error_bound, at |z|
    below, at and above the threshold under which the Stirling series'
    argument is shifted up, in the reflection branch and in both
    half-planes.  The regions follow
    gammafns._STIRLING_MIN, so each test also checks the series next to
    wherever the threshold sits."""

    # |z| from lo to hi times the threshold; Re z >= 1/2 or, if not right,
    # Re z < 1/2
    REGIONS = {"below": (0.0, 1.0, True), "at": (0.9, 1.1, True),
               "above": (1.0, 1.2, True), "reflection": (0.0, 3.0, False)}

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("region", list(REGIONS))
    def test_within_the_stated_bound(self, region, sign):
        lo, hi, right = self.REGIONS[region]
        m = gammafns._STIRLING_MIN
        seed = 2 * list(self.REGIONS).index(region) + (sign > 0)
        for z in _points(seed, m * lo, m * hi, sign, right):
            assert _log_gamma_error(z) <= log_gamma_error_bound(z), z

    def test_heights_from_a_tenth_to_ten_thousand(self):
        # sigma in [-1, 2], either sign of t: both branches and, at small
        # |t|, the shifted series
        rng = np.random.default_rng(7)
        for _ in range(300):
            t = 10.0 ** rng.uniform(-1.0, 4.0) * rng.choice([-1.0, 1.0])
            z = complex(rng.uniform(-1.0, 2.0), t)
            assert _log_gamma_error(z) <= log_gamma_error_bound(z), z

    def test_next_to_the_poles(self):
        # sin(pi z) is taken from z less its nearest integer, so it keeps
        # its digits from 1e-13 to 1/2 off the poles
        rng = np.random.default_rng(9)
        for _ in range(300):
            z = -float(rng.integers(0, 21)) + cmath.rect(
                10.0 ** rng.uniform(-13.0, -0.3), rng.uniform(-math.pi, math.pi))
            assert _log_gamma_error(z) <= log_gamma_error_bound(z), z

    def test_series_takes_arrays(self):
        # plain arithmetic, so a grid can take the series whole
        z = 0.5 - 1j * gammafns._STIRLING_MIN * np.geomspace(1.0, 200.0, 64)
        grid = gammafns._stirling(z, np.log(z))
        for zi, gi in zip(z.tolist(), grid.tolist()):
            assert _log_gamma_error(zi, gi) <= log_gamma_error_bound(zi), zi


class TestChi:
    def test_fixed_point(self):
        assert chi(complex(0.5, 0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_critical_line_modulus(self):
        for t in (20.0, 100.0, 1000.0):
            assert abs(chi(complex(0.5, t))) == pytest.approx(1.0, abs=1e-10)

    def test_chi_pair_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = complex(rng.uniform(0, 1), rng.uniform(-1000, 1000))
            prod = chi(s) * chi(1.0 - s)
            assert prod == pytest.approx(1.0, rel=1e-10)

    def test_ratio_oracle(self):
        # chi(s) = zeta(s)/zeta(1-s), both sides from the reference evaluator
        s = complex(0.3, 30.0)
        ratio = (hurwitz_euler_maclaurin(s, 1.0).value
                 / hurwitz_euler_maclaurin(1.0 - s, 1.0).value)
        assert chi(s) == pytest.approx(ratio, rel=1e-10)

    def test_even_integer_limit(self):
        # chi(2) = -2 pi^2, consistent with zeta(2)/zeta(-1)
        for s in (2.0, complex(2.0, 1e-170), complex(2.0, -1e-170)):
            assert chi(s) == pytest.approx(-2.0 * math.pi ** 2, rel=1e-15)
        ratio = (hurwitz_euler_maclaurin(2.0, 1.0).value
                 / hurwitz_euler_maclaurin(-1.0, 1.0).value)
        assert chi(2.0) == pytest.approx(ratio, rel=1e-10)

    # Next to an even integer the Gamma(1-s) pole and the zero of
    # sin(pi s/2) cancel; the reflection form used for Re s > 1 has neither,
    # so no digits are lost there.  Elsewhere the module's 1e-12 target holds.
    @pytest.mark.parametrize("s, rtol", [
        (complex(2.0, 1e-13), 1e-14), (complex(2.0, 1e-9), 1e-14),
        (complex(4.0, 1e-11), 1e-14), (complex(4.0, -1e-11), 1e-14),
        (complex(6.0, 1e-12), 1e-14), (complex(2.5, 30.0), 1e-12),
        (complex(1.0 + 1e-6, 40.0), 1e-12), (complex(3.25, -1000.0), 1e-12)])
    def test_right_of_the_strip_against_mpmath(self, s, rtol):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            z = mpmath.mpc(s.real, s.imag)
            ref = complex(2 ** z * mpmath.pi ** (z - 1)
                          * mpmath.sin(mpmath.pi * z / 2) * mpmath.gamma(1 - z))
        assert abs(chi(s) - ref) <= rtol * abs(ref)

    # Im s = +-5e-324 halves to 0 in s/2, where chi(s) ~ chi'(-2) (s + 2)
    # rounds to 0
    @pytest.mark.parametrize("s", [0.0, -2.0, complex(-4.0, 0.0), -300.0,
                                   complex(-2.0, 5e-324),
                                   complex(-2.0, -5e-324)])
    def test_zeros(self, s):
        assert chi(s) == 0.0

    # s/2 rounds to the zero m = Re s / 2 when Im s = +-5e-324; chi(s) ~
    # chi'(Re s) i Im s is then 0 to rounding for Re s >= -14 and not below,
    # where |chi'| passes 1/2.  mpmath.sinpi, as sin(pi s/2) at 50 digits
    # leaves a false real part from its rounded pi
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("re", [0, -2, -8, -14, -16, -100, -300])
    def test_half_the_smallest_height_against_mpmath(self, re, sign):
        mpmath = pytest.importorskip("mpmath")
        s = complex(re, sign * 5e-324)
        with mpmath.workdps(50):
            z = mpmath.mpc(s.real, s.imag)
            ref = complex(2 * mpmath.gamma(1 - z) * mpmath.sinpi(z / 2)
                          * (2 * mpmath.pi) ** (z - 1))
        assert (ref == 0.0) == (re >= -14)
        assert abs(chi(s) - ref) <= 1e-12 * abs(ref)

    # Next to a zero 1 - e^{i pi s} cancels; sin(pi f) of the offset f of
    # s/2 from its nearest integer does not.
    @pytest.mark.parametrize("s", [
        complex(-2.0, 1e-300), complex(-2.0, -1e-300), complex(0.0, 1e-300),
        complex(-6.0, 1e-200), complex(-4.0, 1e-8), complex(-2.3, -0.05),
        complex(-0.2, 0.1)])
    def test_next_to_the_zeros_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            z = mpmath.mpc(s.real, s.imag)
            ref = complex(2 * mpmath.gamma(1 - z) * mpmath.sinpi(z / 2)
                          * (2 * mpmath.pi) ** (z - 1))
        assert abs(chi(s) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("s", [1.0, 3.0, 5.0, complex(3.0, 1e-170)])
    def test_odd_integer_poles(self, s):
        with pytest.raises(PoleError):
            chi(s)

    def test_negative_t_conjugation(self):
        s = complex(0.3, 25.0)
        assert chi(s.conjugate()) == chi(s).conjugate()


class TestGammaPhaseProduct:
    def test_half_no_phase(self):
        v = gamma_phase_product(complex(0.5, 0.0), 0.0, 0.0)
        assert v == pytest.approx(math.sqrt(math.pi) / math.sqrt(TWO_PI), rel=1e-13)

    def test_cancellation_keeps_modulus_tame(self):
        # first Lerch dual factor at t = 50: log|Gamma(1-s)| ~ -pi t/2 and the
        # phase contributes +pi t/2; combined log-modulus stays small
        v = gamma_phase_product(complex(0.5, 50.0), -0.5, 0.5)
        assert abs(math.log(abs(v))) < 100.0

    def test_against_naive_product(self):
        # at small |t| the naive factor product is representable
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = complex(rng.uniform(0, 1), rng.uniform(-30, 30))
            coeff = rng.choice([-0.5, 0.0, 0.5])
            const = rng.uniform(-2, 2)
            naive = (gamma(1.0 - s) * TWO_PI ** (s - 1.0)
                     * cmath.exp(1j * math.pi * (coeff * s + const)))
            v = gamma_phase_product(s, coeff, const)
            assert v == pytest.approx(naive, rel=1e-10)

    def test_specific_naive_point(self):
        s = complex(0.5, 14.0)
        naive = gamma(1.0 - s) * TWO_PI ** (s - 1.0) * cmath.exp(1j * math.pi * s / 2.0)
        v = gamma_phase_product(s, 0.5, 0.0)
        assert v == pytest.approx(naive, rel=1e-10)

    def test_pole_propagates(self):
        for s in (2.0, complex(1.0, 1e-170), complex(3.0, -1e-15)):
            with pytest.raises(PoleError):
                gamma_phase_product(s, 0.5, 0.0)

    @pytest.mark.parametrize("t", [500.0, -500.0, 1e3, -1e3, 5e3, -5e3, 1e4,
                                   -1e4])
    def test_within_the_stated_bound_against_mpmath(self, t):
        # the phases fe_rhs takes, signed so that the phase cancels the
        # decay of Gamma(1-s) (the other sign underflows to 0)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(abs(t)))
        for _ in range(12):
            s = complex(rng.uniform(-1.0, 2.0), t + rng.uniform(-1.0, 1.0))
            coeff = -0.5 if t > 0 else 0.5
            const = rng.uniform(-1.0, 1.0)
            with mpmath.workdps(40):
                z = mpmath.mpc(s.real, s.imag)
                ref = complex(mpmath.gamma(1 - z) * (2 * mpmath.pi) ** (z - 1)
                              * mpmath.expjpi(coeff * z + const))
            v = gamma_phase_product(s, coeff, const)
            assert abs(v - ref) <= factor_error_bound(s.imag) * abs(ref)


def _bits(call):
    """float.hex of both parts of call(), or the exception class it raised."""
    try:
        v = call()
    except (PoleError, DomainError, OverflowError) as exc:
        return type(exc)
    return v.real.hex(), v.imag.hex()


def _fresh(s, a, b):
    gammafns._gamma_power.cache_clear()
    return _bits(lambda: gamma_phase_product(s, a, b))


# Real parts on both sides of 1/2 (Re s > 1/2 takes the reflection branch of
# log Gamma(1 - s)), integers included; heights of either sign and both zeros.
_SIGMA = st.one_of(st.floats(-3.0, 3.0), st.integers(-2, 3).map(float))
_HEIGHT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3000.0, 3000.0))
# The afe and funceq dual-factor phases, and arbitrary ones.
_PHASE = st.one_of(
    st.sampled_from([(-0.5, 0.5), (0.5, -0.5), (-0.5, 0.5 - 2.0 / 9.0),
                     (0.5, -0.5 + 4.0 / 9.0)]),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)))


class TestGammaPhaseMemo:
    """gamma_phase_product keeps log Gamma(1 - s) (2 pi)^(s - 1) of the last
    s; after any sequence of calls every result equals a cold evaluation."""

    @settings(max_examples=150, deadline=None)
    @given(pool=st.lists(st.builds(complex, _SIGMA, _HEIGHT), min_size=1,
                         max_size=3),
           calls=st.lists(st.tuples(st.integers(0, 2), _PHASE), min_size=1,
                          max_size=12))
    def test_any_sequence_equals_cold_evaluation(self, pool, calls):
        seq = [(pool[i % len(pool)], a, b) for i, (a, b) in calls]
        warm = [_bits(lambda: gamma_phase_product(s, a, b)) for s, a, b in seq]
        assert warm == [_fresh(s, a, b) for s, a, b in seq]

    @settings(max_examples=100, deadline=None)
    @given(s=st.builds(complex, _SIGMA, _HEIGHT), p1=_PHASE, p2=_PHASE)
    def test_same_s_two_phases(self, s, p1, p2):
        warm = [_bits(lambda: gamma_phase_product(s, *p)) for p in (p1, p2)]
        assert warm == [_fresh(s, *p1), _fresh(s, *p2)]

    @pytest.mark.parametrize("sigma", [0.5, 0.25, 0.75, 1.5, -1.25, 0.0, -0.0])
    def test_signed_zero_heights(self, sigma):
        # x + 0j and x - 0j are equal keys; each order must give cold bits
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            seq = [(complex(sigma, h), *p) for h in (first, second)
                   for p in ((-0.5, 0.5), (0.5, -0.5), (0.5, 0.0))]
            warm = [_bits(lambda: gamma_phase_product(*c)) for c in seq]
            assert warm == [_fresh(*c) for c in seq]

    def test_alternating_heights(self):
        seq = [(complex(0.5, t), *p) for t in (100.0, 100.5, 100.0, -100.0)
               for p in ((-0.5, 0.5), (0.5, -0.5))]
        warm = [_bits(lambda: gamma_phase_product(*c)) for c in seq]
        assert warm == [_fresh(*c) for c in seq]

    def test_checks_run_after_a_memo_hit(self):
        near = complex(2.0 + 1e-13, 0.0)  # 1e-13 clears POLE_TOL
        gamma_phase_product(near, 0.5, 0.0)
        gamma_phase_product(near, -0.5, 0.0)
        with pytest.raises(PoleError):
            gamma_phase_product(2.0, 0.5, 0.0)
        top = complex(0.5, MAX_HEIGHT)
        gamma_phase_product(top, 0.5, 0.0)
        gamma_phase_product(top, -0.5, 0.0)
        with pytest.raises(DomainError):
            gamma_phase_product(complex(0.5, math.nextafter(MAX_HEIGHT, math.inf)),
                                0.5, 0.0)
        with pytest.raises(DomainError):
            gamma_phase_product(complex(math.nan, MAX_HEIGHT), 0.5, 0.0)
