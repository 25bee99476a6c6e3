"""Command-line surface: flags, exit codes, output determinism."""

import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from itertools import islice

import pytest

import lerchzeta
from lerchzeta import (AfeSplit, afe_eval, choose_split, error_envelope,
                       fe_residual_scan, lerch_via_hurwitz, mean_square_ladder)
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
        # the library's refusal, naming its rule
        assert "rational" in err and "64" in err

    def test_irrational_alpha_fe_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--sigma", "0.5", "--t", "50",
                             "--alpha", "0.123456789", "--lambda", "1/2",
                             "--method", "fe")
        assert code == 2 and out == ""
        assert err.startswith("error: alpha") and len(err.splitlines()) == 1
        assert "rational" in err and "64" in err

    def test_custom_split(self, capsys):
        code, out, _ = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                           "--alpha", "1/2", "--lambda", "1/2",
                           "--split", "y=2")
        assert code == 0

    @pytest.mark.parametrize("split", ["x=abc", "y=0", "x=0", "x=2,bogus",
                                       "x=2,x=3"])
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
        code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                           "--alpha", "1/2", "--lambda", "1/2", "--strict")
        assert code == 2
        assert "error:" in err and "calibration" in err

    @pytest.mark.parametrize("content", [None, b"lerch = 2.5 \xb5\n"])
    def test_unreadable_calibration_file_exits_2(self, capsys, tmp_path,
                                                 monkeypatch, content):
        path = tmp_path / "cal.txt"
        if content is not None:
            path.write_bytes(content)
        monkeypatch.setenv("LERCH_AFE_CALIBRATION", str(path))
        code, _, err = run(capsys, "eval", "--sigma", "0.5", "--t", "100",
                           "--alpha", "1/2", "--lambda", "1/2")
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

    def test_split_length_below_one_exits_2(self, capsys, tmp_path):
        # below t = 8 pi, xb < 2, so skew2 and skew05 each have a length
        # xb/2 < 1; no shape is dropped, so the height is refused before
        # any row
        p = tmp_path / "F"
        code, out, err = run(capsys, "afescan", "--kind", "riemann",
                             "--t", "20", "--out", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: split lengths must both lie in [1,")
        assert len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("t", ["20", "-25.1"])
    def test_split_length_error_names_shape_and_lowest_height(self, capsys,
                                                              t):
        # the first shape built too short is skew2 (x = 2 xb, y = xb/2);
        # every shape is built from |t| = 8 pi on
        code, _, err = run(capsys, "afescan", "--kind", "riemann", "--t", t)
        assert code == 2
        assert err.endswith(f"; shape skew2 at t = {t}: every shape needs "
                            "|t| >= 8 pi = 25.13\n")

    def test_lowest_height_with_every_shape(self, capsys, tmp_path):
        p = tmp_path / "F"
        code, _, _ = run(capsys, "afescan", "--kind", "riemann",
                         "--t", "25.2", "--no-meta", "--out", str(p))
        assert code == 0
        rows = p.read_text().splitlines()[1:]
        assert len(rows) == 5 * 4  # sigmas x splits
        assert min(float(r.split(",")[4]) for r in rows) >= 1.0

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

    @pytest.mark.parametrize("heights", [("80", "5"), ("80", "3e7"),
                                         ("80", "120", "5")],
                             ids=["split", "terms", "split-third"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_bad_later_height_exits_2_before_any_row(self, capsys, tmp_path,
                                                     heights, to_file):
        # t = 5 is below 2 pi, where splits start; t = 3e7 has a cutoff above
        # MAX_TERMS.  The rows of t = 80 come first, yet none is written.
        # envelope_scan reads one height ahead, so without the checks a bad
        # split at the second height still raises before any row; at the
        # third it raises after the first height's rows.
        argv = [a for t in heights for a in ("--t", t)]
        out = ("--out", str(tmp_path / "a.csv")) if to_file else ()
        code, stdout, err = run(capsys, "afescan", *argv, *out)
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_height_the_oracle_refuses_exits_2_before_any_row(
            self, capsys, tmp_path, oracle_refuses, to_file):
        # afescan checks heights with the oracle's own rule, not a copy
        oracle_refuses(300.0)
        out = ("--out", str(tmp_path / "a.csv")) if to_file else ()
        code, stdout, err = run(capsys, "afescan", "--t", "80", "--t", "300",
                                *out)
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []


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

    def test_meansquare_oracle_default_step(self, capsys):
        # without --step the oracle route takes its own default, 0.08
        recs = mean_square_ladder(80.0, Fraction(1, 2), Fraction(1, 2),
                                  method="oracle")
        code, out, _ = run(capsys, "meansquare", "--T", "80", "--alpha",
                           "1/2", "--lambda", "1/2", "--method", "oracle",
                           "--no-meta", "--format", "json")
        assert code == 0
        rows = json.loads(out)["records"]
        assert [r["step"] for r in rows] == [0.08] * len(recs)
        assert [(r["T"], r["integral"], r["quad_err"]) for r in rows] \
            == [(r.T, r.integral_value, r.quadrature_error_estimate)
                for r in recs]

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


def _buffered(rows, meta, fmt):
    """A table as the writer once built it, whole, from a list of rows."""
    if fmt == "json":
        doc = {"records": rows}
        if meta:
            doc["meta"] = meta
        return json.dumps(doc, indent=2) + "\n"
    cols = [c for c in rows[0] if c != "reliable"]
    line = ",".join(f"%({c}).17g" if isinstance(rows[0][c], float)
                    else f"%({c})s" for c in cols) + "\n"
    return ((f"# {meta}\n" if meta else "") + ",".join(cols) + "\n"
            + "".join(line % row for row in rows))


def _scan_failing_after(rows, exc):
    """afe.envelope_scan, raising exc after its first ``rows`` rows."""
    real = lerchzeta.afe.envelope_scan

    def scan(kind, grid):
        yield from islice(real(kind, grid), rows)
        raise exc
    return scan


class TestStreamingWriter:
    """_emit writes each row as it arrives; the bytes are those of the whole
    table built at once, and an --out file appears only on success."""

    @pytest.mark.parametrize("argv", [
        ("afescan", "--kind", "all", "--t", "80"),
        ("fecheck",),
        ("meansquare", "--T", "40", "--alpha", "1/3", "--lambda", "1/2",
         "--step", "0.05")], ids=["afescan", "fecheck", "meansquare"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("meta", [False, True], ids=["no-meta", "meta"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_equals_buffered_reference(self, capsys, tmp_path, monkeypatch,
                                       argv, fmt, meta, to_file):
        stamp = "2000-01-02T03:04:05+0000"
        monkeypatch.setattr(lerchzeta.cli.time, "strftime", lambda _: stamp)
        real_emit = lerchzeta.cli._emit
        seen = []

        def spy(args, rows):
            def tee():
                for row in rows:
                    seen.append(row)
                    yield row
            real_emit(args, tee())

        monkeypatch.setattr(lerchzeta.cli, "_emit", spy)
        path = tmp_path / "table"
        flags = (("--format", fmt) + (() if meta else ("--no-meta",))
                 + (("--out", str(path)) if to_file else ()))
        code, out, _ = run(capsys, *argv, *flags)
        assert code == 0
        text = path.read_text() if to_file else out
        assert seen
        assert text == _buffered(seen, f"lerchzeta {argv[0]} {stamp}"
                                 if meta else None, fmt)
        assert os.listdir(tmp_path) == (["table"] if to_file else [])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("existing", [None, b"an earlier table\n", "-",
                                          "symlink"],
                             ids=["new", "existing", "stdout", "symlink"])
    def test_failure_mid_table_leaves_no_file(self, capsys, tmp_path,
                                              monkeypatch, fmt, existing):
        """A failed --out run leaves no file, or the earlier one untouched.
        stdout and a symlink's target cannot be taken back: they are
        written through, so the rows before the failure stay there (the
        earlier contents of the target are gone, the link is kept), and
        only the exit code and the error line mark the table as cut."""
        scan = _scan_failing_after(25, OverflowError("injected after 25 rows"))
        monkeypatch.setattr(lerchzeta.afe, "envelope_scan", scan)
        path = tmp_path / "scan.out"
        target = tmp_path / "target"
        if isinstance(existing, bytes):
            path.write_bytes(existing)
        elif existing == "symlink":
            target.write_bytes(b"an earlier table\n")
            path.symlink_to(target)
        code, out, err = run(capsys, "afescan", "--t", "80", "--t", "120",
                             "--no-meta", "--format", fmt, "--out",
                             "-" if existing == "-" else str(path))
        assert code == 2
        assert err == "error: injected after 25 rows\n"
        if existing in ("-", "symlink"):
            if existing == "-":
                assert os.listdir(tmp_path) == []
            else:
                assert out == ""
                assert sorted(os.listdir(tmp_path)) == ["scan.out", "target"]
                assert os.readlink(path) == str(target)
                out = target.read_text()
            if fmt == "csv":
                assert out.startswith("kind,sigma,t,split,")
                assert out.count("\n") == 1 + 25
            else:
                assert out.startswith('{\n  "records": [')
                assert out.count('"kind"') == 25 and not out.endswith("}\n")
            return
        assert out == ""
        if existing is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["scan.out"]
            assert path.read_bytes() == existing

    def test_interrupt_mid_table_leaves_no_temporary(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(lerchzeta.afe, "envelope_scan",
                            _scan_failing_after(3, KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            main(["afescan", "--t", "80", "--out", str(tmp_path / "a.csv")])
        assert os.listdir(tmp_path) == []

    def test_afescan_memory_does_not_grow_with_heights(self, capsys,
                                                       tmp_path):
        """tracemalloc peaks of a riemann afescan over 4 and over 32 heights
        in [40, 200], both ending at t = 200, so each height's oracle
        table peaks the same.  With the whole table held as row dicts and
        CSV text, the 28 more heights (560 rows) cost 455-465 kB; streamed,
        6-27 kB."""
        path = str(tmp_path / "scan.csv")

        def peak(n):
            argv = ["afescan", "--kind", "riemann", "--no-meta", "--out", path]
            for k in range(n):
                argv += ["--t", repr(40.0 + 160.0 * k / (n - 1))]
            tracemalloc.start()
            try:
                code = main(argv)
                result = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return result

        peak(2)  # first-call set-up stays out of the comparison
        growth = peak(32) - peak(4)
        capsys.readouterr()
        assert growth < 128 * 1024


_TABLE = ("afescan", "--kind", "riemann", "--t", "80", "--no-meta")


def _table(capsys):
    code, out, _ = run(capsys, *_TABLE)
    assert code == 0 and out
    return out


class TestOutTargets:
    """--out moves a finished table onto a plain file, and writes through
    any other target instead of replacing what the path stands for."""

    def test_symlink_updates_its_target(self, capsys, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run(capsys, *_TABLE, "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == _table(capsys)
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_dangling_symlink_makes_its_target(self, capsys, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "target.csv")
        assert run(capsys, *_TABLE, "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert (tmp_path / "target.csv").read_text() == _table(capsys)

    def test_fifo_is_written_not_replaced(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(open(fifo, encoding="ascii").read()),
            daemon=True)
        reader.start()
        try:
            code = run(capsys, *_TABLE, "--out", str(fifo))[0]
        finally:
            reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got == [_table(capsys)]
        assert os.listdir(tmp_path) == ["pipe"]

    def test_hard_link_is_written_in_place(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("old\n")
        os.link(first, second)
        assert run(capsys, *_TABLE, "--out", str(first))[0] == 0
        assert os.path.samefile(first, second)
        assert second.read_text() == _table(capsys)

    def test_plain_file_keeps_its_mode(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        assert run(capsys, *_TABLE, "--out", str(path))[0] == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == _table(capsys)

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root may write into a read-only directory")
    def test_writable_file_in_read_only_directory(self, capsys, tmp_path):
        folder = tmp_path / "ro"
        folder.mkdir()
        path = folder / "scan.csv"
        path.write_text("old\n")
        folder.chmod(0o555)
        try:
            assert run(capsys, *_TABLE, "--out", str(path))[0] == 0
        finally:
            folder.chmod(0o755)
        assert path.read_text() == _table(capsys)

    @pytest.mark.parametrize("path", [os.devnull, "/dev/stdout", "/dev/fd/1"])
    def test_devices_and_fd_links_are_never_replaced(self, path):
        # only asks where a table would go; nothing is written
        assert not lerchzeta.cli._replaceable(path)

    def test_new_and_plain_files_are_replaced(self, tmp_path):
        path = tmp_path / "scan.csv"
        assert lerchzeta.cli._replaceable(str(path))
        path.write_text("old\n")
        assert lerchzeta.cli._replaceable(str(path))

    @pytest.mark.parametrize("path", ["", "nodir/", "."],
                             ids=["empty", "slash", "directory"])
    @pytest.mark.parametrize("argv, work", [
        (("afescan", "--t", "80"), "afe.envelope_scan"),
        (("fecheck",), "funceq.fe_residual_scan"),
        (("meansquare", "--T", "500"), "meansquare.mean_square_ladder"),
        (("calibrate", "--kind", "riemann"), "afe.envelope_fit")],
        ids=["afescan", "fecheck", "meansquare", "calibrate"])
    def test_path_naming_no_file_exits_2_before_any_work(
            self, capsys, tmp_path, monkeypatch, argv, work, path):
        def no_work(*args, **kwargs):
            pytest.fail("the command ran although --out names no file")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(f"lerchzeta.{work}", no_work)
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []


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
    points, or an oracle value or integrand with more terms over all q
    components exits 2 before anything is allocated.  Before the bound, the
    oracle at t = 1e9 did not return and the meanSquare split at t = 1e12
    asked numpy for 226 GiB; before the grid and component bounds, step 1e-9
    (2e10 points) and T = 1e7 at q = 64 (6.4e8 logs, 5.1 GB) ran past 20 s,
    and the point oracle at t = 1e6, q = 64 took 4-5 s to return an
    unreliable value."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--sigma", "0.5", "--t", "1e9", "--method", "oracle"),
        ("eval", "--sigma", "0.5", "--t", "1e9", "--method", "fe"),
        # 64 x 1,000,010 terms: the one cutoff passes, its q copies do not
        ("eval", "--sigma", "0.5", "--t", "1e6", "--method", "oracle",
         "--lambda", "1/64"),
        # the dual zl(1 - s, 1/2, 63/64) has q = 64
        ("eval", "--sigma", "0.5", "--t", "1e6", "--method", "fe",
         "--alpha", "1/64", "--lambda", "1/2"),
        ("eval", "--sigma", "0.5", "--t", "1e12", "--split", "meansquare"),
        ("eval", "--sigma", "0.5", "--t", "1e12", "--split", "x=1e9"),
        ("meansquare", "--T", "1e12"),
        ("meansquare", "--T", "1e9", "--method", "oracle"),
        ("meansquare", "--T", "20", "--step", "1e-9"),
        # 20,000,001 points: one past the bound, printed in full
        ("meansquare", "--T", "20", "--step", "1e-6"),
        ("meansquare", "--T", "20", "--method", "oracle", "--step", "1e-6"),
        # 2e301 points (a 302-digit count), and a count that overflows to inf
        ("meansquare", "--T", "20", "--step", "1e-300"),
        ("meansquare", "--T", "20", "--step", "5e-324"),
        ("meansquare", "--T", "1e7", "--method", "oracle", "--lambda",
         "1/64"),
        # 1.6e7 grid points pass; 64 x 400,010 terms per point do not
        ("meansquare", "--T", "4e5", "--step", "0.05", "--method", "oracle",
         "--lambda", "1/64")],
        ids=["eval-oracle", "eval-fe", "eval-oracle-components",
             "eval-fe-components", "eval-meansquare-split",
             "eval-given-split", "meansquare-afe", "meansquare-oracle",
             "meansquare-grid", "meansquare-grid-one-past",
             "meansquare-oracle-grid-one-past",
             "meansquare-grid-tiny-step",
             "meansquare-grid-infinite", "meansquare-grid-q64",
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
        assert "MAX_TERMS" in err and len(err) < 200
        assert peak < 1 << 20
        if argv[-2:] == ("--step", "1e-6"):
            assert "got 20000001 for" in err


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
        # the shift alpha/2 rounds to 0; the message names alpha too
        assert "zetaH((0.5+20j), 0) is beyond double range" in err
        assert "5e-324" in err


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
