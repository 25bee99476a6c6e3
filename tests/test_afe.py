"""Split-sum evaluators, splits, envelopes, calibration plumbing."""

import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lerchzeta import (AfeSplit, ConfigError, DomainError, LerchParams,
                       afe_eval, afe_lerch, choose_split, error_envelope,
                       get_cfit, hurwitz_euler_maclaurin, lerch_via_hurwitz)
from lerchzeta import afe
from lerchzeta.afe import (CALIBRATED_T, DEFAULT_CFIT, CalibrationPoint,
                           default_calibration_grid, envelope_fit,
                           envelope_scan, kind_for, read_calibration,
                           split_kind, write_calibration)
from lerchzeta.funceq import default_fe_grid
from lerchzeta.params import MAX_HEIGHT

TWO_PI = 2.0 * math.pi


def oracle(s, alpha, lam):
    return lerch_via_hurwitz(s, alpha, lam).value


class TestChooseSplit:
    def test_balanced_boundary(self):
        sp = choose_split(TWO_PI)
        assert sp.x == pytest.approx(1.0) and sp.y == pytest.approx(1.0)

    def test_balanced_8pi(self):
        sp = choose_split(8.0 * math.pi)
        assert sp.x == pytest.approx(2.0, rel=1e-14)
        assert sp.y == pytest.approx(2.0, rel=1e-14)

    def test_meansquare_e4(self):
        t = math.exp(4.0)
        sp = choose_split(t, "meanSquare")
        assert sp.y == pytest.approx(2.0, rel=1e-14)
        assert sp.x == pytest.approx(t / (4.0 * math.pi), rel=1e-14)

    def test_small_t_rejected(self):
        with pytest.raises(DomainError):
            choose_split(1.0)
        with pytest.raises(DomainError):
            choose_split(7.0, "meanSquare")  # x would drop below 1

    def test_one_spelling_per_mode(self):
        # the CLI maps its --split meansquare; the function takes one name
        with pytest.raises(DomainError, match="unknown split mode"):
            choose_split(100.0, "meansquare")

    def test_heights_up_to_max_height(self):
        assert choose_split(-MAX_HEIGHT) == choose_split(MAX_HEIGHT)
        for t in (math.nextafter(MAX_HEIGHT, math.inf), math.inf, math.nan):
            with pytest.raises(DomainError):
                choose_split(t)

    @pytest.mark.parametrize("mode", ["balanced", "meanSquare"])
    def test_negative_t_same_split(self, mode):
        for t in (11.0, 80.0, 1234.5):
            assert choose_split(-t, mode) == choose_split(t, mode)

    def test_split_invariant_checked_at_use(self):
        sp = choose_split(100.0)
        with pytest.raises(DomainError):
            afe_eval("riemann", complex(0.5, 120.0), 1.0, 1.0, sp)

    def test_lengths_at_least_one(self):
        with pytest.raises(DomainError):
            AfeSplit(0.5, 30.0)

    def test_shape_builders_take_the_balanced_length(self, monkeypatch):
        # afescan's and the calibration grid's shapes come from one builder,
        # which scales the balanced split of choose_split, the one home of
        # its length, and names skewK the split with x = K xb
        real = afe.choose_split
        asked = []

        def marked(t, mode="balanced"):
            asked.append((t, mode))
            return AfeSplit(3.0, 3.0) if mode == "balanced" else real(t, mode)

        monkeypatch.setattr(afe, "choose_split", marked)
        scan = afe.split_shapes(80.0)
        assert [name for name, _ in scan] == ["balanced", "meanSquare",
                                              "skew2", "skew05"]
        assert scan[0][1] == AfeSplit(3.0, 3.0)
        assert (scan[2][1], scan[3][1]) == (AfeSplit(6.0, 1.5),
                                            AfeSplit(1.5, 6.0))
        assert asked == [(80.0, "balanced"), (80.0, "meanSquare")]
        built = afe.split_shapes(80.0, (("skew2", 0.5), ("skew1", 1.0)))
        assert built == [("skew2", AfeSplit(6.0, 1.5)),
                         ("skew1", AfeSplit(3.0, 3.0))]

    @pytest.mark.parametrize("t, shapes", [
        (1e9, afe._SCAN_SHAPES),  # meanSquare's x above MAX_TERMS
        (8.0, (("meanSquare", None),)),  # no F to name a height by
        (8.0, (("balanced", 1.0), ("meanSquare", None)))])  # above 2 pi
    def test_split_error_unchanged_unless_a_skew_is_too_short(self, t,
                                                               shapes):
        with pytest.raises(DomainError) as want:
            afe.choose_split(t, "meanSquare")
        with pytest.raises(DomainError) as got:
            afe.split_shapes(t, shapes)
        assert str(got.value) == str(want.value)

    def test_calibration_shapes_take_afescans_names(self):
        # skewK has x = K xb; a skew that would push a length below 1 is
        # left out at that height
        shapes = {}
        for pt in default_calibration_grid("lerch"):
            shapes.setdefault(pt.t, {})[pt.shape] = pt.split
        assert list(shapes[40.0]) == ["meanSquare", "skew2", "skew1",
                                      "skew0.5"]
        assert list(shapes[1100.0]) == ["meanSquare"] + [
            f"skew{k:g}" for k in (8, 4, 2, 1, 0.5, 0.25, 0.125)]
        for t, named in shapes.items():
            xb = choose_split(t).x
            assert named["skew2"] == AfeSplit(2.0 * xb, 0.5 * xb)
            assert named["meanSquare"] == choose_split(t, "meanSquare")


class TestErrorEnvelope:
    def test_balanced_half_lerch(self):
        t = 100.0
        sp = choose_split(t)
        env = error_envelope("lerch", complex(0.5, t), sp)
        expected = (t / TWO_PI) ** -0.25
        assert env.term1 == pytest.approx(expected, rel=1e-12)
        assert env.term2 == pytest.approx(expected, rel=1e-12)

    def test_sigma_one_lerch_term2(self):
        t = 250.0
        for y_factor in (0.5, 1.0, 2.0):
            xb = math.sqrt(t / TWO_PI)
            sp = AfeSplit(xb / y_factor, xb * y_factor)
            env = error_envelope("lerch", complex(1.0, t), sp)
            assert env.term2 == pytest.approx(t ** -0.5, rel=1e-12)

    def test_hurwitz_8pi(self):
        t = 8.0 * math.pi
        env = error_envelope("hurwitz", complex(0.5, t), AfeSplit(2.0, 2.0))
        assert env.term1 == pytest.approx(2.0 ** -0.5, rel=1e-12)
        assert env.term2 == pytest.approx(t ** 0.5 * 2.0 ** -0.5, rel=1e-12)


class TestAfeEval:
    """afe_eval is the one evaluator behind afe_lerch."""

    @pytest.mark.parametrize("t", [100.0, -100.0, 433.7, -433.7])
    def test_matches_public_evaluators(self, t):
        sp = choose_split(abs(t))
        for sigma in (0.0, 0.3, 1.0):
            s = complex(sigma, t)
            # lam = 0.3 is not its own mirror (1 - 0.3 != 0.3)
            for a, l in ((0.25, 0.75), (1 / 3, 0.3), (1.0, 0.5)):
                assert afe_eval("lerch", s, a, l, sp) \
                    == afe_lerch(s, LerchParams(a, l), sp)
                assert afe_eval("lerch", s, a, l, sp, c_fit=0.7) \
                    == afe_lerch(s, LerchParams(a, l), sp, c_fit=0.7)

    @pytest.mark.parametrize("kind, alpha, lam", [
        ("lerch", 0.5, 1.0), ("hurwitz", 0.5, 0.5), ("riemann", 1.0, 0.5),
        ("riemann", 0.5, 1.0), ("weird", 0.5, 0.5)])
    def test_rejects_parameters_outside_the_kind(self, kind, alpha, lam):
        with pytest.raises(DomainError):
            afe_eval(kind, complex(0.5, 100.0), alpha, lam, choose_split(100.0))

    @pytest.mark.parametrize("kind, alpha, lam, taker", [
        ("riemann", 0.5, 1.0, "hurwitz"), ("hurwitz", 0.5, 0.5, "lerch")])
    def test_refusal_names_the_kind_that_takes_the_pair(self, kind, alpha,
                                                        lam, taker):
        with pytest.raises(DomainError, match=f"the '{taker}' kind takes it"):
            afe_eval(kind, complex(0.5, 100.0), alpha, lam, choose_split(100.0))


def _memo_points(kind, t):
    """Points at one height: every sigma, pair and split, with the splits in
    order of a growing main sum, then of a growing dual sum."""
    pairs = {"lerch": ((0.25, 0.75), (1 / 3, 0.3), (1.0, 0.5)),
             "hurwitz": ((0.25, 1.0), (1 / 3, 1.0), (1.0, 1.0)),
             "riemann": ((1.0, 1.0),)}[kind]
    xb = math.sqrt(abs(t) / TWO_PI)
    splits = (AfeSplit(xb, xb), AfeSplit(4.0 * xb, xb / 4.0),
              AfeSplit(xb / 4.0, 4.0 * xb))
    return [(complex(sigma, t), a, l, sp) for sp in splits
            for sigma in (0.0, 0.5, 1.0) for a, l in pairs]


def _cold(kind, points):
    results = []
    for s, a, l, sp in points:
        afe._memo.clear()
        results.append(afe_eval(kind, s, a, l, sp))
    return results


class TestHeightMemo:
    """The one-height memo under afe_eval changes no bit of any result."""

    @pytest.mark.parametrize("kind", ["lerch", "hurwitz", "riemann"])
    @pytest.mark.parametrize("t", [300.0, -300.0])
    def test_warm_equals_cold(self, kind, t):
        points = _memo_points(kind, t)
        cold = _cold(kind, points)
        for order in (points, points[::-1]):
            afe._memo.clear()
            warm = [afe_eval(kind, *p) for p in order]
            assert warm == (cold if order is points else cold[::-1])

    @pytest.mark.parametrize("kind", ["lerch", "hurwitz", "riemann"])
    @pytest.mark.parametrize("t, other", [(300.0, 450.0), (-300.0, 450.0),
                                          (300.0, -300.0)])
    def test_other_height_in_between(self, kind, t, other):
        points, between = _memo_points(kind, t), _memo_points(kind, other)
        cold, cold_between = _cold(kind, points), _cold(kind, between)
        half = len(points) // 2
        afe._memo.clear()
        warm = [afe_eval(kind, *p) for p in points[:half]]
        assert [afe_eval(kind, *p) for p in between] == cold_between
        warm += [afe_eval(kind, *p) for p in points[half:]]
        assert warm == cold

    def test_holds_only_the_last_height(self):
        grid = [CalibrationPoint(sigma, t, a, l, choose_split(abs(t)))
                for t in (60.0, 90.0, -75.0) for sigma in (0.25, 1.0)
                for a, l in ((0.25, Fraction(1, 2)), (1.0, Fraction(3, 4)))]
        list(envelope_scan("lerch", grid))
        assert list(afe._memo) == [75.0]
        phases, terms = afe._memo[75.0]
        assert phases and terms
        assert all(abs(key[0]) == 75.0 for key in phases)
        assert all(abs(key[0].imag) == 75.0 for key in terms)

    def test_long_sums_are_not_kept(self, monkeypatch):
        # a balanced split at t = 1e11 has 126,157 terms a sum; keeping its
        # arrays held 10.1 MB until the next height
        t = 1e11
        s, sp = complex(0.5, t), choose_split(t)
        afe._memo.clear()
        tracemalloc.start()
        try:
            got = afe_eval("lerch", s, 0.25, 0.75, sp)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20
        phases, terms = afe._memo[t]
        assert not phases and not terms
        monkeypatch.setattr(afe, "_MEMO_TERMS", math.inf)
        afe._memo.clear()
        assert afe_eval("lerch", s, 0.25, 0.75, sp) == got
        assert afe._memo[t][1]
        afe._memo.clear()


class TestAfeLerch:
    def test_oracle_within_estimate(self):
        s = complex(0.5, 100.0)
        res = afe_lerch(s, LerchParams(1 / 3, 1 / 3), choose_split(100.0))
        assert abs(res.value - oracle(s, 1 / 3, Fraction(1, 3))) <= res.error_estimate

    def test_alpha_one_lerch_family(self):
        s = complex(0.5, 100.0)
        res = afe_lerch(s, LerchParams(1.0, 0.5), choose_split(100.0))
        assert abs(res.value - oracle(s, 1.0, Fraction(1, 2))) <= res.error_estimate

    def test_lambda_one_rejected(self):
        with pytest.raises(DomainError):
            afe_lerch(complex(0.5, 100.0), LerchParams(0.5, 1.0),
                      choose_split(100.0))

    def test_sigma_outside_strip_rejected(self):
        with pytest.raises(DomainError):
            afe_lerch(complex(1.5, 100.0), LerchParams(0.5, 0.5),
                      choose_split(100.0))

    def test_conjugation_mirror_exact(self):
        s = complex(0.3, 80.0)
        sp = choose_split(80.0)
        plus = afe_lerch(s, LerchParams(0.25, 0.75), sp)
        minus = afe_lerch(s.conjugate(), LerchParams(0.25, 0.25), sp)
        assert minus.value == plus.value.conjugate()
        assert minus.error_estimate == plus.error_estimate

    def test_term_counts(self):
        t = 123.0
        sp = choose_split(t)
        res = afe_lerch(complex(0.5, t), LerchParams(0.5, 0.5), sp)
        assert res.main_terms == math.floor(sp.x) + 1
        assert res.dual_terms == math.floor(sp.y) + 1
        assert res.main_terms + res.dual_terms <= sp.x + sp.y + 4


class TestAfeHurwitz:
    def test_oracle_within_estimate(self):
        s = complex(0.5, 200.0)
        res = afe_eval("hurwitz", s, 0.25, 1.0, choose_split(200.0))
        assert abs(res.value - oracle(s, 0.25, Fraction(1))) <= res.error_estimate

    def test_sigma_zero_endpoint(self):
        s = complex(0.0, 50.0)
        res = afe_eval("hurwitz", s, 0.5, 1.0, choose_split(50.0))
        assert abs(res.value - oracle(s, 0.5, Fraction(1))) <= res.error_estimate

    def test_alpha_one_equals_riemann(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = rng.uniform(TWO_PI + 0.1, 900.0)
            s = complex(rng.uniform(0, 1), t)
            sp = choose_split(t)
            h = afe_eval("hurwitz", s, 1.0, 1.0, sp).value
            r = afe_eval("riemann", s, 1.0, 1.0, sp).value
            assert abs(h - r) <= 1e-12 * max(1.0, abs(r))

    def test_dual_terms_start_at_one(self):
        t = 123.0
        sp = choose_split(t)
        res = afe_eval("hurwitz", complex(0.5, t), 0.5, 1.0, sp)
        assert res.dual_terms == math.floor(sp.y)


class TestAfeRiemann:
    def test_oracle_within_estimate(self):
        s = complex(0.5, 100.0)
        res = afe_eval("riemann", s, 1.0, 1.0, choose_split(100.0))
        assert (abs(res.value - hurwitz_euler_maclaurin(s, 1.0).value)
                <= res.error_estimate)

    def test_near_first_zero_cancellation(self):
        s = complex(0.5, 14.134725)
        res = afe_eval("riemann", s, 1.0, 1.0, choose_split(s.imag))
        assert abs(res.value) <= res.error_estimate

    def test_negative_t_mirror(self):
        s = complex(0.5, -100.0)
        sp = choose_split(100.0)
        res = afe_eval("riemann", s, 1.0, 1.0, sp)
        ref = hurwitz_euler_maclaurin(s, 1.0).value
        assert abs(res.value - ref) <= res.error_estimate


class TestSplitFreedom:
    def test_three_shapes_all_within_envelope(self):
        t = 200.0
        s = complex(0.5, t)
        xb = math.sqrt(t / TWO_PI)
        ref = oracle(s, 0.5, Fraction(1, 2))
        c_fit = get_cfit("lerch")
        for f in (0.5, 1.0, 2.0):
            sp = AfeSplit(xb / f, xb * f)
            res = afe_lerch(s, LerchParams(0.5, 0.5), sp, c_fit=c_fit)
            assert abs(res.value - ref) <= res.error_estimate


class TestReliability:
    """Split-sum results are reliable only inside the calibrated heights."""

    @pytest.mark.parametrize("t", [CALIBRATED_T[0], 100.0, CALIBRATED_T[1],
                                   -100.0])
    def test_inside_calibrated_range(self, t):
        s = complex(0.5, t)
        split = choose_split(t)
        assert afe_lerch(s, LerchParams(0.5, 0.5), split).reliable
        assert afe_eval("hurwitz", s, 0.5, 1.0, split).reliable
        assert afe_eval("riemann", s, 1.0, 1.0, split).reliable

    @pytest.mark.parametrize("t", [39.9, 1100.5, 1e7, -1e7])
    def test_outside_calibrated_range(self, t):
        s = complex(0.5, t)
        split = choose_split(t)
        assert not afe_lerch(s, LerchParams(0.5, 0.5), split).reliable
        assert not afe_eval("hurwitz", s, 0.5, 1.0, split).reliable
        assert not afe_eval("riemann", s, 1.0, 1.0, split).reliable


class TestKindPairs:
    def test_pairs_in_row_order(self):
        q, h, tq, one = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                         Fraction(1))
        assert split_kind("lerch").pairs == tuple(
            (a, l) for a in (q, h, tq, one) for l in (q, h, tq))
        assert split_kind("hurwitz").pairs == ((q, one), (h, one), (tq, one),
                                               (one, one))
        assert split_kind("riemann").pairs == ((one, one),)
        # the fecheck grid leaves out alpha = 1 except for riemann
        fe_pairs = {kind: list(dict.fromkeys((pt.alpha, pt.lam) for pt in
                                             default_fe_grid(kind)))
                    for kind in ("lerch", "hurwitz", "riemann")}
        for kind in ("lerch", "hurwitz"):
            assert fe_pairs[kind] == [(a, l) for a, l in split_kind(kind).pairs
                                      if a < 1]
        assert fe_pairs["riemann"] == [(one, one)]

    @pytest.mark.parametrize("kind", ["lerch", "hurwitz", "riemann"])
    def test_calibration_grid_uses_them(self, kind):
        grid = default_calibration_grid(kind)
        pairs = [(float(a), l) for a, l in split_kind(kind).pairs]
        assert [(pt.alpha, pt.lam) for pt in grid[:len(pairs)]] == pairs


# alpha and lam in (0, 1], with the boundary value 1 drawn often: it is
# where the kinds part
_UNIT = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
_SIGMA = st.floats(0.0, 1.0)
_T = st.floats(40.0, 1100.0)

# the rule each kind states, written out here independently of the record
_TAKES = {"lerch": lambda a, l: l < 1.0, "hurwitz": lambda a, l: l == 1.0,
          "riemann": lambda a, l: a == 1.0 and l == 1.0}


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class TestKindRule:
    """Which (alpha, lam) each kind takes, stated once in the kind record."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(afe.KINDS), alpha=_UNIT, lam=_UNIT,
           sigma=_SIGMA, t=_T)
    @example(kind="lerch", alpha=1.0, lam=5e-324, sigma=0.0, t=40.0)
    def test_afe_eval_refuses_exactly_what_the_record_refuses(
            self, kind, alpha, lam, sigma, t):
        assert split_kind(kind).takes(alpha, lam) == _TAKES[kind](alpha, lam)
        s, split = complex(sigma, t), choose_split(t)
        if _TAKES[kind](alpha, lam):
            try:
                afe_eval(kind, s, alpha, lam, split)
            except OverflowError:
                # only a shift near the bottom of the double range makes an
                # n = 0 term alpha^(-s) or lam^(s-1) overflow
                assert min(alpha, lam) < 1e-300
        else:
            with pytest.raises(DomainError, match=f"no {kind!r} split sum"):
                afe_eval(kind, s, alpha, lam, split)

    @settings(max_examples=200, deadline=None)
    @given(alpha=_UNIT, lam=_UNIT)
    def test_kind_for_picks_lerch_or_hurwitz(self, alpha, lam):
        assert kind_for(alpha, lam) == ("hurwitz" if lam == 1.0 else "lerch")

    def test_kind_for_refuses_parameters_outside_the_unit_interval(self):
        for alpha, lam in ((0.5, 0.0), (0.5, 1.5), (0.0, 0.5), (0.5, math.nan)):
            with pytest.raises(DomainError):
                kind_for(alpha, lam)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(afe.KINDS), alpha=_UNIT, lam=_UNIT,
           sigma=_SIGMA, t=_T)
    @example(kind="lerch", alpha=0.5, lam=1e-17, sigma=0.5, t=100.0)
    @example(kind="hurwitz", alpha=1e-320, lam=1.0, sigma=1.0, t=100.0)
    def test_conjugation_mirror_bit_for_bit(self, kind, alpha, lam, sigma, t):
        # conj(zl(s, a, lam)) = zl(conj(s), a, 1 - lam), with lam = 1 kept
        alpha = 1.0 if kind == "riemann" else alpha
        lam = lam if kind == "lerch" else 1.0
        assume(_TAKES[kind](alpha, lam))
        s, split = complex(sigma, t), choose_split(t)
        mirror = 1.0 if lam == 1.0 else 1.0 - lam
        if mirror == 1.0 != lam:
            # 1 - lam rounds to 1: no lerch pair to mirror to
            with pytest.raises(DomainError, match="too small to mirror"):
                afe_eval(kind, s.conjugate(), alpha, lam, split)
            return
        try:
            want = afe_eval(kind, s, alpha, mirror, split).value.conjugate()
        except OverflowError:
            # a value beyond double range is one on both sides of the mirror
            with pytest.raises(OverflowError):
                afe_eval(kind, s.conjugate(), alpha, lam, split)
            return
        got = afe_eval(kind, s.conjugate(), alpha, lam, split).value
        assert _bits(got) == _bits(want)


class TestEnvelopeFit:
    def test_empty_grid_is_zero(self):
        assert envelope_fit("lerch", []) == 0.0

    def test_fresh_calibration_matches_packaged_defaults(self, calibration):
        assert calibration == DEFAULT_CFIT

    def test_scan_matches_point_by_point_loop(self):
        # heights repeat out of order and sigmas interleave, so one height
        # is split into several runs
        grid = [CalibrationPoint(sig, t, a, l, choose_split(abs(t), mode))
                for t in (60.0, 90.0, 60.0, -90.0)
                for mode in ("balanced", "meanSquare")
                for sig in (1.0, 0.25)
                for a, l in ((0.25, Fraction(1, 2)), (1.0, Fraction(3, 4)))]
        got = list(envelope_scan("lerch", grid))
        assert [pt for pt, _, _ in got] == grid
        for pt, err, env in got:
            v = afe_lerch(pt.s, LerchParams(pt.alpha, float(pt.lam)),
                          pt.split).value
            assert err == abs(v - oracle(pt.s, pt.alpha, pt.lam))
            assert env == error_envelope("lerch", pt.s, pt.split).total

    def test_stability_across_heights(self):
        # the measured constant moves slowly with t: per-height fits on a
        # spread of heights stay within +-50% of their midpoint
        fits = []
        for t in (50.0, 150.0, 400.0):
            grid = [CalibrationPoint(sig, t, a, l, choose_split(t))
                    for sig in (0.0, 0.5, 1.0)
                    for a in (Fraction(1, 2), Fraction(1))
                    for l in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
            fits.append(envelope_fit("lerch", grid))
        mid = (max(fits) + min(fits)) / 2.0
        assert all(abs(f - mid) <= 0.5 * mid for f in fits)

    def test_riemann_measurement_is_order_one(self):
        grid = [CalibrationPoint(0.5, t, Fraction(1), Fraction(1),
                                 choose_split(t))
                for t in (50.0, 100.0, 200.0, 500.0)]
        c = envelope_fit("riemann", grid)
        assert 0.0 < c < 10.0

    def test_small_grid_nonnegative_finite(self):
        t = 90.0
        grid = [CalibrationPoint(0.5, t, Fraction(1, 2), Fraction(1, 2),
                                 choose_split(t))]
        c = envelope_fit("lerch", grid)
        assert 0.0 <= c < 10.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            envelope_fit("weird", [])


class TestCalibrationFile:
    def test_round_trip_exact(self, tmp_path):
        values = {"lerch": 2.2309988976348705, "hurwitz": 1 / 3,
                  "riemann": 1.2749107644931741}
        path = tmp_path / "cal.txt"
        write_calibration(str(path), values)
        back = read_calibration(str(path))
        assert back == values

    @pytest.mark.parametrize("constant", ["abc", "nan", "inf", "-5", "0"])
    def test_rejects_constant_that_is_not_finite_positive(self, tmp_path,
                                                          constant):
        path = tmp_path / "cal.txt"
        path.write_text(f"hurwitz = 0.5\nlerch = {constant}\n")
        with pytest.raises(ConfigError):
            read_calibration(str(path))

    def test_unknown_kind_names_the_file(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("weird = 0.5\n")
        with pytest.raises(DomainError, match=f"'weird'.* in {path}"):
            read_calibration(str(path))

    def test_unreadable_file_is_config_error(self, tmp_path):
        bad = tmp_path / "cal.txt"
        bad.write_bytes(b"lerch = 2.5 \xb5\n")
        for path in (tmp_path / "missing.txt", bad):
            with pytest.raises(ConfigError, match="calibration file"):
                read_calibration(str(path))

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cal.txt"
        write_calibration(str(path), {"lerch": 9.5})
        monkeypatch.setenv("LERCH_AFE_CALIBRATION", str(path))
        assert get_cfit("lerch") == 9.5
        assert get_cfit("hurwitz") > 0.0  # falls back to packaged default

    def test_every_call_reads_the_environment_and_the_file(self, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "cal.txt"
        write_calibration(str(path), {"lerch": 9.5})
        monkeypatch.setenv("LERCH_AFE_CALIBRATION", str(path))
        assert get_cfit("lerch") == 9.5
        monkeypatch.delenv("LERCH_AFE_CALIBRATION")
        assert get_cfit("lerch") == DEFAULT_CFIT["lerch"]
        monkeypatch.setenv("LERCH_AFE_CALIBRATION", str(path))
        write_calibration(str(path), {"lerch": 3.25, "riemann": 1.5})
        assert get_cfit("lerch") == 3.25
        assert get_cfit("riemann") == 1.5
        assert get_cfit("hurwitz") == DEFAULT_CFIT["hurwitz"]
