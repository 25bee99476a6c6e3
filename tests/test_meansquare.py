"""Mean-square integration machinery."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lerch_at_cutoff
from lerchzeta import (ConfigError, DomainError, afe_eval, error_envelope,
                       fit_residual_exponent, get_cfit, hurwitz_euler_maclaurin,
                       lerch_via_hurwitz, mean_square_ladder)
from lerchzeta.afe import choose_split
from lerchzeta.meansquare import (_BLOCK, _GREGORY8, _GREGORY10, _RESTART,
                                  _SPAN, STEPS, T0, _dirichlet,
                                  _oracle_integrand, _quadrature,
                                  _split_sum_integrand)
from lerchzeta.oracles import reference_cutoff
from lerchzeta.params import em_cutoff

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


class TestMeanSquareIntegral:
    def test_richardson_self_consistency(self):
        (r1,) = mean_square_ladder(50.0, Fraction(1), Fraction(1), step=0.04,
                                   checkpoints=[50.0])
        (r2,) = mean_square_ladder(50.0, Fraction(1), Fraction(1), step=0.02,
                                   checkpoints=[50.0])
        assert abs(r1.integral_value - r2.integral_value) \
            <= 2.0 * max(r1.quadrature_error_estimate, 1e-12)

    def test_main_term_value(self):
        (rec,) = mean_square_ladder(1000.0, Fraction(1), Fraction(1),
                                    step=0.05, checkpoints=[1000.0])
        assert rec.main_term == pytest.approx(1000.0 * math.log(1000.0 / TWO_PI),
                                              rel=1e-15)
        assert rec.main_term == pytest.approx(5069.9, abs=0.1)

    def test_integral_positive_and_reliable(self):
        (rec,) = mean_square_ladder(100.0, Fraction(1, 2), Fraction(1, 2),
                                    checkpoints=[100.0])
        assert rec.integral_value > 0.0
        assert rec.reliable
        assert rec.residual == rec.integral_value - rec.main_term

    def test_ladder_monotone(self):
        recs = mean_square_ladder(160.0, Fraction(1), Fraction(1, 2), step=0.05)
        Ts = [r.T for r in recs]
        assert Ts == sorted(Ts) and Ts[0] == pytest.approx(20.0)
        vals = [r.integral_value for r in recs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_same_ladder_twice_gives_same_bits(self):
        a = mean_square_ladder(80.0, Fraction(1, 2), Fraction(1), step=0.05)
        b = mean_square_ladder(80.0, Fraction(1, 2), Fraction(1), step=0.05)
        assert [r.integral_value for r in a] == [r.integral_value for r in b]
        assert [r.quadrature_error_estimate for r in a] \
            == [r.quadrature_error_estimate for r in b]

    def test_memory_does_not_grow_with_T(self):
        # the quadrature streams over the grid: T = 2000 has eight times the
        # points of T = 250 and must not need more memory
        peaks = []
        for T in (250.0, 2000.0):
            tracemalloc.start()
            try:
                mean_square_ladder(T, Fraction(1, 2), Fraction(1, 2),
                                   method="partialSum")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.5 * 2 ** 20

    def test_oracle_memory_grows_only_by_the_term_arrays(self):
        # the kernel's working set is one tile of terms at any T; only the
        # integrand's f and w (24 bytes a term over the q = 2 components)
        # grow with the cutoff.  Measured: 0.56 MiB of growth, 0.08 MiB of
        # it f and w and the rest a second tile that overlaps the first.  A
        # cache of 64 rotations a term would add 3.4 MiB.
        peaks, terms = [], []
        for T in (250.0, 2000.0):
            tracemalloc.start()
            try:
                mean_square_ladder(T, Fraction(1, 2), Fraction(1, 2),
                                   method="oracle")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            terms.append(2 * em_cutoff(T))
        assert peaks[1] - peaks[0] < 24 * (terms[1] - terms[0]) + 0.75 * 2 ** 20

    def test_oracle_grid_that_rounds_past_T(self):
        # at T = 506 and step 0.06 the last grid point is 506 + 1 ulp, whose
        # ceil would ask one more term than the arrays sized at T hold; the
        # record reports the T asked for
        T, step = 506.0, 0.06
        nf = math.ceil((T - T0) / (step / 2.0))
        assert T0 + nf * ((T - T0) / nf) > T
        (rec,) = mean_square_ladder(T, 0.5, Fraction(1, 2), step=step,
                                    method="oracle", checkpoints=[T])
        assert rec.T == T and rec.reliable

    def test_step_cap(self):
        with pytest.raises(ConfigError):
            mean_square_ladder(100.0, Fraction(1), Fraction(1), step=0.2,
                               checkpoints=[100.0])

    @pytest.mark.parametrize("method,step", [("afe", 0.06),
                                             ("partialSum", 0.06),
                                             ("oracle", 0.09)])
    def test_step_cap_per_route(self, method, step):
        # Simpson on the split sums stops at 0.05, the oracle's rule at 0.08
        with pytest.raises(ConfigError, match=f"{method} route"):
            mean_square_ladder(100.0, Fraction(1), Fraction(1), step=step,
                               method=method, checkpoints=[100.0])

    @pytest.mark.parametrize("method", ["afe", "oracle", "partialSum"])
    def test_step_default_per_route(self, method):
        (rec,) = mean_square_ladder(40.0, Fraction(1), Fraction(1),
                                    method=method, checkpoints=[40.0])
        assert rec.step == STEPS[method][0] == (0.08 if method == "oracle"
                                                else 0.02)

    def test_small_T_rejected(self):
        with pytest.raises(DomainError):
            mean_square_ladder(15.0, Fraction(1), Fraction(1),
                               checkpoints=[15.0])

    def test_empty_checkpoints_rejected(self):
        with pytest.raises(DomainError, match="checkpoints"):
            mean_square_ladder(40.0, Fraction(1, 2), Fraction(1, 2),
                               checkpoints=[])

    def test_one_record_per_snapped_checkpoint(self):
        # 20 and 20.001 snap to the same grid point (spacing 0.025)
        recs = mean_square_ladder(40.0, 0.5, 0.5, step=0.05,
                                  checkpoints=[20.0, 20.001, 40.0, 20.0])
        assert [r.T for r in recs] == [20.0, 40.0]

    def test_irrational_lambda_rejected(self):
        with pytest.raises(DomainError):
            mean_square_ladder(100.0, 0.5, 1 / 3, checkpoints=[100.0])

    def test_method_consistency_afe_vs_oracle(self):
        # same grid, both integrands; difference bounded by the integrated
        # envelope budget plus both quadrature estimates
        T, step = 250.0, 0.02
        nf = 4 * math.ceil((T - T0) / (2.0 * step))
        h = (T - T0) / nf
        ts = T0 + h * np.arange(nf + 1)
        v_afe = _split_sum_integrand(0.5, 0.5, T, partial=False)(T0, h, 0, nf + 1)
        v_orc = _oracle_integrand(0.5, Fraction(1, 2), T)(T0, h, 0, nf + 1)
        c = get_cfit("lerch")
        ia = io_ = budget = 0.0
        w = np.ones(nf + 1)
        w[1:-1:2], w[2:-2:2] = 4.0, 2.0
        for i, t in enumerate(ts):
            va, vo = v_afe[i], v_orc[i]
            env = error_envelope("lerch", complex(0.5, t),
                                 choose_split(t, "meanSquare")).total
            ia += w[i] * abs(va) ** 2
            io_ += w[i] * abs(vo) ** 2
            budget += w[i] * (abs(va) + abs(vo)) * c * env
        ia, io_, budget = (h / 3.0) * ia, (h / 3.0) * io_, (h / 3.0) * budget
        assert abs(ia - io_) <= budget


def _bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n (B_1 = -1/2), from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m))
                 / (m + 1))
    return b


def _gregory(f: np.ndarray, h: float, rule) -> float:
    """The corrected trapezoid rule on the whole array f."""
    den, nums = rule
    c = np.array(nums) / den
    m = len(c)
    return h * (f.sum() - 0.5 * (f[0] + f[-1])
                + c @ f[:m] + c @ f[::-1][:m])


class TestGregoryRule:
    """The trapezoid rule with Gregory end corrections, the oracle route's
    quadrature."""

    @pytest.mark.parametrize("rule", [_GREGORY10, _GREGORY8],
                             ids=["G10", "G8"])
    def test_weights_solve_the_moment_conditions(self, rule):
        # sum_j c_j j^d = B_(d+1) / (d+1) for odd d, 0 for even d, d < m:
        # exact for polynomials of degree < m
        den, nums = rule
        c = [Fraction(n, den) for n in nums]
        b = _bernoulli(len(c))
        for d in range(len(c)):
            want = b[d + 1] / (d + 1) if d % 2 else Fraction(0)
            assert sum(cj * Fraction(j) ** d for j, cj in enumerate(c)) == want

    # No subnormal coefficients: a subnormal has no relative precision, so
    # no relative check can hold there (coef = [0.0, 5e-324] makes the
    # expected 5e-324/2 round to 0.0 while the rule returns 5e-324).
    @settings(max_examples=60, deadline=None)
    @given(coef=st.lists(st.floats(0.0, 1.0, allow_subnormal=False),
                         min_size=1, max_size=10),
           n=st.integers(20, 5000))
    def test_polynomials_of_degree_9_are_exact(self, coef, n):
        # p(x) = sum_k coef[k] x^k >= 0 on [0, 1], the integrand |sqrt(p)|^2
        def values(t_start, h, lo, hi):
            return np.sqrt(np.polynomial.polynomial.polyval(
                t_start + h * np.arange(lo, hi), coef))

        ((got, _),) = _quadrature(values, 0.0, 1.0 / n, [n], smooth=True)
        want = sum(c / (k + 1) for k, c in enumerate(coef))
        assert abs(got - want) <= 1e-12 * want

    def test_streamed_equals_the_rule_on_the_whole_array(self):
        # checkpoints whose end windows straddle a restart chunk and a span
        # (one integrand call) boundary, besides one inside the first chunk
        t_start, h = 3.0, 0.01

        def values(t_start, h, lo, hi):
            t = t_start + h * np.arange(lo, hi)
            return np.exp(3j * t) * (2.0 + np.sin(0.7 * t))

        idxs = [25, _RESTART + 3, _SPAN + 5, _SPAN + _RESTART + 100]
        got = _quadrature(values, t_start, h, idxs, smooth=True)
        for k, (value, est) in zip(idxs, got):
            f = np.abs(values(t_start, h, 0, k + 1)) ** 2
            g10, g8 = _gregory(f, h, _GREGORY10), _gregory(f, h, _GREGORY8)
            assert abs(value - g10) <= 1e-14 * g10
            # the estimate's floor is the rule's rounding, eps G10 sqrt(k + 1)
            want = max(abs(g10 - g8), EPS * g10 * math.sqrt(k + 1))
            assert abs(est - want) <= 1e-14 * g10

    def test_estimate_is_never_below_the_rounding(self):
        # at spacing 0.01 G10 and G8 agree to every bit of their totals, so
        # |G10 - G8| alone reads 0.0 at every checkpoint
        for rec in mean_square_ladder(2000.0, 1, 1, step=0.02, method="oracle",
                                      checkpoints=[250, 500, 1000, 2000]):
            assert 0.0 < rec.quadrature_error_estimate <= 1e-12 * rec.main_term

    @pytest.mark.parametrize("alpha,lam", [(Fraction(1, 2), Fraction(1, 2)),
                                           (Fraction(1), Fraction(1))])
    def test_estimate_covers_the_error(self, alpha, lam):
        # against G10 at a quarter of the spacing; T = 125 is grid index
        # 2875, an odd one (measured: the estimate is 26-137 times the error)
        checkpoints = [125.0, 250.0, 500.0, 2000.0]
        coarse = mean_square_ladder(2000.0, alpha, lam, method="oracle",
                                    checkpoints=checkpoints)
        fine = mean_square_ladder(2000.0, alpha, lam, step=0.02,
                                  method="oracle", checkpoints=checkpoints)
        assert round((125.0 - T0) / (coarse[0].step / 2.0)) == 2875
        for c, f in zip(coarse, fine):
            assert c.T == f.T
            assert abs(c.integral_value - f.integral_value) \
                <= c.quadrature_error_estimate


def _x_step(m: float) -> float:
    """The t at which the meanSquare x(t) = t / (2 pi sqrt(log t)) equals m."""
    lo, hi = 20.0, 1e5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid / (TWO_PI * math.sqrt(math.log(mid))) < m \
            else (lo, mid)
    return lo


class TestGridKernel:
    """The block phase-rotation kernel against direct per-point sums."""

    rng = np.random.default_rng(20_17)
    W = rng.normal(size=60) + 1j * rng.normal(size=60)
    F = np.log(np.arange(60) + 0.3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("lo", [0, 3 * _BLOCK])
    def test_matches_direct_sums_at_block_edges(self, lo, sign):
        t_start, h = 97.0, 0.013
        n = 2 * _BLOCK + 7                      # the last block is partial
        j = np.arange(n)
        # the term count steps inside every block
        counts = 30 + (j >= _BLOCK // 2) + (j >= _BLOCK + 1) + 5 * (j >= n - 3)
        f = sign * self.F
        got = _dirichlet(self.W, f, t_start, h, lo, lo + n, counts)
        for i in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, n - 1):
            t = t_start + h * (lo + i)
            c = counts[i]
            want = (self.W[:c] * np.exp(-1j * t * f[:c])).sum()
            assert got[i] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))
        full = _dirichlet(self.W, f, t_start, h, lo, lo + n)
        t = t_start + h * (lo + n - 1)
        want = (self.W * np.exp(-1j * t * f)).sum()
        assert full[-1] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))

    def test_full_chunk_of_oracle_terms_at_t_2000(self):
        # a span of one full restart chunk and a block past it, so the
        # longest chains of products (the last point of the chunk) and the
        # restart at the next chunk are both checked; 2,000 oracle-like terms
        mpmath = pytest.importorskip("mpmath")
        t_start, h, lo = 1959.0, 0.01, _RESTART   # t from 1999.96 to 2042
        n = _RESTART + _BLOCK + 1
        f = np.log(np.arange(2000) + 0.25)
        w = np.exp(-0.5 * f) * np.exp(2j * math.pi * np.arange(2000) / 3)
        got = _dirichlet(w, f, t_start, h, lo, lo + n)
        for i in [*range(0, n, 97), _RESTART - 1, _RESTART, n - 1]:
            t = t_start + h * (lo + i)
            want = (w * np.exp(-1j * t * f)).sum()
            assert got[i] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))
        i = _RESTART - 1
        with mpmath.workdps(30):
            t = mpmath.mpf(t_start) + mpmath.mpf(h) * (lo + i)
            want = complex(mpmath.fsum(
                mpmath.mpc(wn) * mpmath.expj(-t * mpmath.mpf(fn))
                for wn, fn in zip(w.tolist(), f.tolist())))
        assert got[i] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))

    @pytest.mark.parametrize("with_counts", [False, True],
                             ids=["every-term", "counts"])
    def test_span_equals_one_call_per_restart_chunk(self, with_counts):
        # a call over two and a half restart chunks shares each tile's
        # rotations across them, and must give every bit that one call per
        # restart chunk gives; the counts step across a tile boundary and
        # differ between the chunks, so the chunks stop at different tiles
        assert _SPAN >= 2 * _RESTART
        lo, n = 3 * _RESTART, 2 * _RESTART + _RESTART // 2 + 5
        f = np.log(np.arange(1300) + 0.5)
        w = np.exp(-0.5 * f) * np.exp(2j * math.pi * np.arange(1300) / 4)
        j = np.arange(n)
        counts = (200 + j // 10) if with_counts else None
        got = _dirichlet(w, f, 731.0, 0.005, lo, lo + n, counts)
        want = np.concatenate([
            _dirichlet(w, f, 731.0, 0.005, lo + c0, lo + min(c0 + _RESTART, n),
                       None if counts is None
                       else counts[c0:c0 + _RESTART])
            for c0 in range(0, n, _RESTART)])
        assert got.tobytes() == want.tobytes()

    def test_one_point_grid(self):
        t = 1234.5
        (got,) = _dirichlet(self.W, self.F, t, 0.0, 0, 1, np.array([37]))
        want = (self.W[:37] * np.exp(-1j * t * self.F[:37])).sum()
        assert got == pytest.approx(want, abs=1e-10 * (1 + abs(want)))

    @pytest.mark.parametrize("t_step", [_x_step(20.0), math.exp(4.0),
                                        _x_step(103.0)],
                             ids=["floor-x-steps", "floor-y-steps",
                                  "floor-x-steps-near-1777"])
    @pytest.mark.parametrize("alpha,lam", [(0.5, 0.5), (0.75, 0.25), (1.0, 1.0),
                                           (1 / 3, 1.0)])
    def test_split_sum_integrand_matches_afe(self, t_step, alpha, lam):
        h = 0.01
        t_start = t_step - (1.5 * _BLOCK + 0.5) * h   # steps inside block 1
        lo, hi = 0, 3 * _BLOCK
        got = _split_sum_integrand(alpha, lam, t_start + h * hi, False)(
            t_start, h, lo, hi)
        partial = _split_sum_integrand(alpha, lam, t_start + h * hi, True)(
            t_start, h, lo, hi)
        for j in range(lo, hi):
            t = t_start + h * j
            s, split = complex(0.5, t), choose_split(t, "meanSquare")
            kind = "hurwitz" if lam == 1.0 else "lerch"
            want = afe_eval(kind, s, alpha, lam, split).value
            assert got[j] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))
            n = np.arange(math.floor(split.x) + 1)
            direct = (np.exp(2j * math.pi * lam * n)
                      * (n + alpha) ** (-s)).sum()
            assert partial[j] == pytest.approx(direct,
                                               abs=1e-10 * (1 + abs(direct)))

    def test_partial_sum_drops_bounded_remainder(self):
        # the partialSum integrand at one point: the bare main sum, whose
        # dropped remainder (the dual sums) is O(1)-class for a < 1
        t = 100.0
        (v_ps,) = _split_sum_integrand(0.5, 0.5, t, True)(t, 0.0, 0, 1)
        v_orc = lerch_via_hurwitz(complex(0.5, t), 0.5, Fraction(1, 2)).value
        assert abs(v_ps - v_orc) <= 5.0

    @pytest.mark.parametrize("t_start", [1.0, 270.0], ids=["stub", "ladder"])
    @pytest.mark.parametrize("alpha,lam", [(0.5, Fraction(1, 2)),
                                           (1.0, Fraction(1)),
                                           (0.25, Fraction(2, 3))])
    def test_oracle_integrand_matches_lerch_via_hurwitz(self, t_start, alpha,
                                                        lam):
        # one restart chunk: every point sums the rule's cutoff at its top
        h = 0.01
        n = _BLOCK + 3
        top = t_start + h * (n - 1)
        cutoff = reference_cutoff(top, (lam,))
        got = _oracle_integrand(alpha, lam, top)(t_start, h, 0, n)
        for j in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, n - 1):
            want = lerch_at_cutoff(complex(0.5, t_start + h * j), alpha, lam,
                                   cutoff)
            assert got[j] == pytest.approx(want, abs=1e-11 * (1 + abs(want)))

    @pytest.mark.parametrize("t", [57.0, 270.0, 990.0])
    @pytest.mark.parametrize("alpha,lam", [(0.5, Fraction(1, 2)),
                                           (1.0, Fraction(1)),
                                           (0.25, Fraction(2, 3)),
                                           (0.5, Fraction(1, 64))])
    def test_one_point_grid_is_lerch_via_hurwitz(self, t, alpha, lam):
        # a one-point chunk takes the point oracle's own cutoff at t
        (got,) = _oracle_integrand(alpha, lam, t)(t, 0.0, 0, 1)
        want = lerch_via_hurwitz(complex(0.5, t), alpha, lam).value
        assert abs(got - want) <= 1e-11 * (1 + abs(want))

    def test_restart_chunks_with_different_cutoffs(self):
        # two and a half restart chunks from t = 10, whose cutoffs are 225,
        # 430 and 532: in each chunk the direct sums and the tails meet at
        # the same N (a mismatch is off by O(1)), and the values match the
        # reference at the rule's cutoff at that chunk's largest t
        t_start, h = T0, 0.05
        n = 2 * _RESTART + _RESTART // 2
        lam = Fraction(1, 2)
        got = _oracle_integrand(0.5, lam, t_start + h * (n - 1))(
            t_start, h, 0, n)
        for c0 in range(0, n, _RESTART):
            c1 = min(c0 + _RESTART, n)
            cutoff = reference_cutoff(t_start + h * (c1 - 1), (lam,))
            for j in (c0, c1 - 1):
                want = lerch_at_cutoff(complex(0.5, t_start + h * j), 0.5,
                                       lam, cutoff)
                assert got[j] == pytest.approx(want,
                                               abs=1e-11 * (1 + abs(want)))


class TestCriticalLineValue:
    """The value the mean square integrates, at one point of the line."""

    def test_riemann_case_is_zeta(self):
        # the oracle integrand at (alpha, lam) = (1, 1), with the cutoff
        # mean_square_ladder uses, is zeta(1/2 + i t)
        t = 57.0
        (v,) = _oracle_integrand(1.0, Fraction(1), t)(t, 0.0, 0, 1)
        want = hurwitz_euler_maclaurin(complex(0.5, t), 1.0).value
        assert v == pytest.approx(want, abs=1e-11 * (1 + abs(want)))


class TestExponentFit:
    def test_synthetic_half_recovered(self):
        Ts = [250.0, 500.0, 1000.0, 2000.0]
        resid = [3.7 * T * math.log(T) ** 0.5 for T in Ts]
        fit = fit_residual_exponent(Ts, resid)
        assert fit.exponent == pytest.approx(0.5, abs=0.02)
        assert fit.constant == pytest.approx(3.7, rel=1e-6)
        assert not fit.degenerate

    def test_synthetic_three_quarters(self):
        Ts = [250.0, 500.0, 1000.0, 2000.0]
        resid = [0.9 * T * math.log(T) ** 0.75 for T in Ts]
        fit = fit_residual_exponent(Ts, resid)
        assert fit.exponent == pytest.approx(0.75, abs=0.02)

    def test_degenerate_flagged(self):
        Ts = [250.0, 500.0, 1000.0, 2000.0]
        fit = fit_residual_exponent(Ts, [1e-9] * 4, [1e-6] * 4)
        assert fit.degenerate
