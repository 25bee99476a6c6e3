"""Command-line surface: flags, exit codes, output determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import pytest

import lerchzeta
from lerchzeta import (AfeSplit, afe_eval, choose_split, error_envelope,
                       fe_residual_scan, lerch_via_hurwitz, mean_square_ladder)
from lerchzeta.afe import reload_calibration
from lerchzeta.cli import main
from lerchzeta.funceq import ScanPoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_afe_run(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                           "--alpha", "1/2", "--lambda", "1/2", "--method", "afe")
        assert code == 0
        assert "reliable = True" in out
        assert "error_estimate" in out

    def test_oracle_zeta_two(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "2", "--t", "0",
                           "--alpha", "1", "--lambda", "1", "--method", "oracle")
        assert code == 0
        assert "1.64493406" in out

    def test_fe_method(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "25",
                           "--alpha", "1/3", "--lambda", "1", "--method", "fe")
        assert code == 0

    def test_below_2pi_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "1",
                           "--method", "afe", "--split", "balanced")
        assert code == 2
        assert "error:" in err

    def test_lambda_one_uses_hurwitz_form(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "50",
                           "--alpha", "1/4", "--lambda", "1", "--method", "afe")
        assert code == 0

    def test_irrational_alpha_warns(self, capsys):
        code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "50",
                           "--alpha", "0.123456789", "--lambda", "1/2",
                           "--method", "afe")
        assert code == 0
        assert "warning" in err

    def test_irrational_lambda_oracle_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "50",
                           "--alpha", "1/2", "--lambda", "0.123456789",
                           "--method", "oracle")
        assert code == 2

    def test_custom_split(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                           "--alpha", "1/2", "--lambda", "1/2",
                           "--split", "y=2")
        assert code == 0

    @pytest.mark.parametrize("split", ["x=abc", "y=0", "x=0"])
    def test_unparsable_split_exits_2(self, capsys, split):
        code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                           "--alpha", "1/2", "--lambda", "1/2",
                           "--split", split)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("constant", ["abc", "nan", "-5"])
    def test_bad_calibration_file_exits_2(self, capsys, tmp_path, monkeypatch,
                                          constant):
        path = tmp_path / "cal.txt"
        path.write_text(f"lerch = {constant}\n")
        monkeypatch.setenv("LERCH_AFE_CALIBRATION", str(path))
        reload_calibration()
        try:
            code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                               "--alpha", "1/2", "--lambda", "1/2", "--strict")
        finally:
            monkeypatch.delenv("LERCH_AFE_CALIBRATION")
            reload_calibration()
        assert code == 2
        assert "error:" in err and "calibration" in err

    @pytest.mark.parametrize("content", [None, b"lerch = 2.5 \xb5\n"])
    def test_unreadable_calibration_file_exits_2(self, capsys, tmp_path,
                                                 monkeypatch, content):
        path = tmp_path / "cal.txt"
        if content is not None:
            path.write_bytes(content)
        monkeypatch.setenv("LERCH_AFE_CALIBRATION", str(path))
        reload_calibration()
        try:
            code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                               "--alpha", "1/2", "--lambda", "1/2")
        finally:
            monkeypatch.delenv("LERCH_AFE_CALIBRATION")
            reload_calibration()
        assert code == 2
        assert "error:" in err and str(path) in err
        assert "Traceback" not in err

    def test_meansquare_split_at_negative_t(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "-100",
                           "--alpha", "1/2", "--lambda", "1/2",
                           "--split", "meansquare", "--format", "json")
        assert code == 0
        res = afe_eval("lerch", complex(0.5, -100.0), 0.5, 0.5,
                       choose_split(100.0, "meanSquare"))
        assert json.loads(out)["re"] == res.value.real

    def test_afe_strict_outside_calibrated_heights_exits_3(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "1e7",
                           "--alpha", "1/2", "--lambda", "1/2", "--method",
                           "afe", "--strict")
        assert code == 3
        assert "reliable = False" in out

    def test_strict_unreliable_exits_3(self, capsys):
        # near the first zeta zero the oracle flags its value unreliable
        code, _, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "14.134725",
                         "--alpha", "1", "--lambda", "1", "--method", "oracle",
                         "--strict")
        assert code == 3

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                           "--alpha", "1/2", "--lambda", "1/2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["reliable"] is True

    @pytest.mark.parametrize("flags", [["--out", "x.txt"], ["--no-meta"]],
                             ids=["out", "no-meta"])
    def test_takes_no_out_or_no_meta(self, capsys, tmp_path, monkeypatch,
                                     flags):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                             *flags)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []


class TestFecheck:
    def test_deterministic_csv(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, err1 = run(capsys, "fecheck", "--kind", "hurwitz",
                             "--no-meta", "--out", str(p1))
        code2, _, _ = run(capsys, "fecheck", "--kind", "hurwitz",
                          "--no-meta", "--out", str(p2))
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert "max_residual" in err1

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "fecheck", "--kind", "riemann", "--out",
                           str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_meta_line_present_by_default(self, capsys, tmp_path):
        p = tmp_path / "a.csv"
        run(capsys, "fecheck", "--kind", "riemann", "--out", str(p))
        assert p.read_text().startswith("# lerchzeta fecheck ")

    def test_json_mirror(self, capsys):
        code, out, _ = run(capsys, "fecheck", "--kind", "riemann",
                           "--format", "json", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 9
        assert all(r["residual"] <= 1e-7 for r in doc["records"])


class TestMeansquare:
    def test_ladder_csv(self, capsys, tmp_path):
        p = tmp_path / "ms.csv"
        code, _, err = run(capsys, "meansquare", "--T", "160", "--alpha", "1/2",
                           "--lambda", "1/2", "--step", "0.05",
                           "--no-meta", "--out", str(p))
        assert code == 0
        lines = p.read_text().splitlines()
        assert lines[0].startswith("T,alpha,lambda,")
        assert len(lines) == 5  # header + ladder {20, 40, 80, 160}
        assert "exponent" in err

    def test_irrational_lambda_exits_2(self, capsys):
        code, _, err = run(capsys, "meansquare", "--T", "100",
                           "--alpha", "1/2", "--lambda", "0.1234567891")
        assert code == 2
        assert "rational" in err


    @pytest.mark.parametrize("flags, bad", [
        (("--T", "nan"), "got nan"), (("--T", "inf"), "got inf"),
        (("--T", "100", "--checkpoints", "nan"), "got [nan]")])
    def test_non_finite_input_exits_2(self, capsys, flags, bad):
        code, _, err = run(capsys, "meansquare", *flags, "--alpha", "1/2",
                           "--lambda", "1/2")
        assert code == 2
        assert "error:" in err and bad in err


def _afescan_rows_point_by_point(t):
    """The afescan rows at one height from a plain per-row loop."""
    xb = math.sqrt(t / (2.0 * math.pi))
    splits = [("balanced", AfeSplit(xb, xb)),
              ("meanSquare", choose_split(t, "meanSquare")),
              ("skew2", AfeSplit(2.0 * xb, 0.5 * xb)),
              ("skew05", AfeSplit(0.5 * xb, 2.0 * xb))]
    fracs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    alphas = fracs + (Fraction(1),)
    pairs = {"lerch": [(a, l) for a in alphas for l in fracs],
             "hurwitz": [(a, Fraction(1)) for a in alphas],
             "riemann": [(Fraction(1), Fraction(1))]}
    rows = []
    for kind in ("lerch", "hurwitz", "riemann"):
        for sigma in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = complex(sigma, t)
            for name, split in splits:
                for a, l in pairs[kind]:
                    res = afe_eval(kind, s, float(a), float(l), split)
                    err = abs(res.value - lerch_via_hurwitz(s, float(a), l).value)
                    env = error_envelope(kind, s, split).total
                    rows.append({
                        "kind": kind, "sigma": sigma, "t": t, "split": name,
                        "x": split.x, "y": split.y,
                        "alpha_num": a.numerator, "alpha_den": a.denominator,
                        "lambda_num": l.numerator, "lambda_den": l.denominator,
                        "abs_err": err, "envelope": env, "ratio": err / env})
    return rows


def _no_scan(*args):
    pytest.fail("the scan ran although --out cannot be written")


class TestAfescan:
    def test_rows_equal_point_by_point_loop(self, capsys):
        code, out, _ = run(capsys, "afescan", "--kind", "all", "--t", "80",
                           "--no-meta", "--format", "json")
        assert code == 0
        assert json.loads(out)["records"] == _afescan_rows_point_by_point(80.0)

    def test_single_height_csv(self, capsys, tmp_path):
        p = tmp_path / "scan.csv"
        code, _, err = run(capsys, "afescan", "--kind", "riemann",
                           "--t", "80", "--no-meta", "--out", str(p))
        assert code == 0
        lines = p.read_text().splitlines()
        assert lines[0].startswith("kind,sigma,t,split,")
        assert len(lines) == 1 + 5 * 4  # sigmas x splits
        assert "max ratio" in err and "C_fit" in err

    def test_negative_height_within_envelope(self, capsys):
        code, out, _ = run(capsys, "afescan", "--kind", "all", "--t", "-80",
                           "--no-meta", "--format", "json")
        assert code == 0
        rows = json.loads(out)["records"]
        assert len(rows) == 5 * 4 * 17
        assert all(r["ratio"] <= lerchzeta.get_cfit(r["kind"]) for r in rows)

    def test_strict_passes_within_envelope(self, capsys, tmp_path):
        code, _, _ = run(capsys, "afescan", "--kind", "riemann", "--t", "80",
                         "--strict", "--no-meta", "--out",
                         str(tmp_path / "s.csv"))
        assert code == 0

    def test_missing_out_dir_exits_2_before_any_row(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(lerchzeta.afe, "envelope_scan", _no_scan)
        code, out, err = run(capsys, "afescan", "--t", "80", "--out",
                             str(tmp_path / "missing" / "dir" / "a.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "missing").exists()


class TestCalibrate:
    def test_writes_file(self, capsys, tmp_path):
        p = tmp_path / "cal.txt"
        code, out, _ = run(capsys, "calibrate", "--kind", "hurwitz",
                           "--out", str(p))
        assert code == 0
        text = p.read_text()
        assert "hurwitz = " in text
        value = float(out.split("=")[1])
        assert 0.0 < value < 10.0


    @pytest.mark.parametrize("flag", ["--strict", "--no-meta", "--format=csv"])
    def test_takes_only_kind_and_out(self, capsys, flag):
        assert run(capsys, "calibrate", "--kind", "riemann", "--out", "-",
                   flag)[0] == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "calibrate", "--kind", "hurwitz", "--out",
                           str(tmp_path / "missing" / "c.txt"))
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_missing_out_dir_exits_2_before_any_constant(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(lerchzeta.afe, "envelope_scan", _no_scan)
        code, out, err = run(capsys, "calibrate", "--kind", "all", "--out",
                             str(tmp_path / "missing" / "dir" / "c.txt"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestCsv:
    def test_meansquare_columns_and_values(self, capsys):
        recs = mean_square_ladder(80.0, Fraction(1), Fraction(1), step=0.05)
        code, out, _ = run(capsys, "meansquare", "--T", "80", "--alpha", "1",
                           "--lambda", "1", "--step", "0.05", "--no-meta")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "T,alpha,lambda,integral,main_term,residual,quad_err,method,step"
        assert len(lines) == 1 + len(recs)
        first = lines[1].split(",")
        assert float(first[0]) == recs[0].T
        assert first[7] == "afe"

    def test_fecheck_shape(self, capsys):
        records = fe_residual_scan(
            "hurwitz", [ScanPoint(complex(0.5, 10.0), Fraction(1, 4), Fraction(1))])
        code, out, _ = run(capsys, "fecheck", "--kind", "hurwitz")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# lerchzeta fecheck ")
        assert lines[1] == "sigma,t,alpha_num,alpha_den,lambda_num,lambda_den,residual"
        (fields,) = [f for f in (line.split(",") for line in lines[2:])
                     if f[:4] == ["0.5", "10", "1", "4"]]
        assert len(fields) == 7
        assert fields[2:6] == ["1", "4", "1", "1"]
        assert float(fields[6]) == records[0].residual

    @pytest.mark.parametrize("argv", [
        ("fecheck", "--kind", "riemann"),
        ("afescan", "--kind", "hurwitz", "--t", "80"),
        ("meansquare", "--T", "40", "--alpha", "1/3", "--lambda", "1/2",
         "--step", "0.05")], ids=["fecheck", "afescan", "meansquare"])
    def test_csv_mirrors_json(self, capsys, argv):
        _, csv_out, _ = run(capsys, *argv, "--no-meta")
        _, json_out, _ = run(capsys, *argv, "--no-meta", "--format", "json")
        records = json.loads(json_out)["records"]
        header, *lines = csv_out.splitlines()
        cols = header.split(",")
        assert len(lines) == len(records)
        for line, rec in zip(lines, records):
            assert cols == [k for k in rec if k != "reliable"]
            assert line.split(",") == [
                "%.17g" % v if isinstance(v, float) else str(v)
                for v in (rec[c] for c in cols)]


class TestHeightBound:
    @pytest.mark.parametrize("argv", [
        ("eval", "--sigma", "0.5", "--t", "1e300"),
        ("eval", "--sigma", "0.5", "--t", "1e300", "--method", "oracle"),
        ("eval", "--sigma", "0.5", "--t", "1e300", "--method", "fe"),
        ("eval", "--sigma", "0.5", "--t=-2e15", "--method", "oracle"),
        ("afescan", "--t", "1e300"),
        ("meansquare", "--T", "1e300"),
        ("meansquare", "--T", "1e300", "--method", "oracle"),
        ("meansquare", "--T", "2e15", "--method", "partialSum")],
        ids=["eval-afe", "eval-oracle", "eval-fe", "eval-oracle-below",
             "afescan", "meansquare-afe", "meansquare-oracle",
             "meansquare-partialSum"])
    def test_beyond_max_height_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "1e+15" in err


class TestTermBound:
    """A sum longer than params.MAX_TERMS, a mean-square grid with more
    points, or an oracle integrand with more terms over all q components
    exits 2 before anything is allocated.  Before the bound, the oracle at
    t = 1e9 did not return and the meanSquare split at t = 1e12 asked numpy
    for 226 GiB; before the grid and component bounds, step 1e-9 (2e10
    points) and T = 1e7 at q = 64 (6.4e8 logs, 5.1 GB) ran past 20 s."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--sigma", "0.5", "--t", "1e9", "--method", "oracle"),
        ("eval", "--sigma", "0.5", "--t", "1e9", "--method", "fe"),
        ("eval", "--sigma", "0.5", "--t", "1e12", "--split", "meansquare"),
        ("eval", "--sigma", "0.5", "--t", "1e12", "--split", "x=1e9"),
        ("meansquare", "--T", "1e12"),
        ("meansquare", "--T", "1e9", "--method", "oracle"),
        ("meansquare", "--T", "20", "--step", "1e-9"),
        ("meansquare", "--T", "1e7", "--method", "oracle", "--lambda",
         "1/64"),
        # 1.6e7 grid points pass; 64 x 400,010 terms per point do not
        ("meansquare", "--T", "4e5", "--step", "0.05", "--method", "oracle",
         "--lambda", "1/64")],
        ids=["eval-oracle", "eval-fe", "eval-meansquare-split",
             "eval-given-split", "meansquare-afe", "meansquare-oracle",
             "meansquare-grid", "meansquare-grid-q64",
             "meansquare-oracle-components"])
    def test_beyond_max_terms_exits_2(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "MAX_TERMS" in err
        assert peak < 1 << 20


class TestNonFiniteValue:
    """A value beyond double range is an error, not a printed nan."""

    @pytest.mark.parametrize("argv", [
        ("--sigma=800", "--method", "oracle", "--strict"),
        ("--sigma=-1e308", "--method", "fe"),
        ("--sigma=-800", "--method", "oracle"),
        ("--sigma=800", "--method", "fe")],
        ids=["oracle", "fe", "oracle-continuation", "fe-continuation"])
    def test_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv, "--t", "1", "--alpha",
                             "1/2", "--lambda", "1/2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "zetaH(" in err and "beyond double range" in err

    @pytest.mark.parametrize("kind, lam", [("lerch", 0.5), ("hurwitz", 1.0)])
    def test_split_sum_raises(self, kind, lam):
        # at sigma = 1 the n = 0 term 1/alpha of the main sum overflows; the
        # sum used to come back as inf - inf i and be called reliable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=rf"{kind} split sum at "
                               r"s = \(1\+100j\).* beyond double range"):
                afe_eval(kind, complex(1.0, 100.0), 1e-320, lam,
                         choose_split(100.0))

    def test_split_sum_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--sigma", "1", "--t", "100",
                             "--alpha", "1e-320", "--lambda", "1/2")
        assert code == 2 and out == ""
        # the first line warns that alpha is irrational
        assert err.splitlines()[-1].startswith("error: lerch split sum")
        assert "beyond double range" in err


    @pytest.mark.parametrize("alpha, method", [
        ("1e-320", "afe"), ("1e-320", "partialSum"), ("5e-324", "oracle")])
    def test_mean_square_exits_2(self, capsys, alpha, method):
        # at 1e-320 the integrand's n = 0 term is finite but its square is
        # not; at 5e-324 the oracle's shift alpha/2 rounds to 0.  Both used
        # to print nan integrals and exit 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "meansquare", "--T", "20", "--alpha",
                                 alpha, "--lambda", "1/2", "--method", method,
                                 "--no-meta")
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            f"error: {method} mean square at (alpha, lam) = "
            f"({float(alpha)}, 0.5) is beyond double range")

    def test_zero_shift_oracle_exits_2_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--method", "oracle",
                                 "--sigma", "0.5", "--t", "20", "--alpha",
                                 "5e-324", "--lambda", "1/2")
        assert code == 2 and out == ""
        assert "zetaH((0.5+20j), 0) is beyond double range" in err


class TestBadFlags:
    def test_unknown_method(self, capsys):
        assert run(capsys, "eval", "--sigma", "0.5", "--t", "10",
                   "--method", "bogus")[0] == 2

    def test_alpha_out_of_range(self, capsys):
        assert run(capsys, "eval", "--sigma", "0.5", "--t", "10",
                   "--alpha", "3/2")[0] == 2


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lerchzeta.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "lerchzeta", "eval", "--sigma", "0.5",
         "--t", "100", "--alpha", "3/2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
