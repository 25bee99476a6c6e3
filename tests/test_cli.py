"""Command-line surface: flags, exit codes, output determinism."""

import json

import pytest

from lerchzeta.afe import reload_calibration
from lerchzeta.cli import main


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


class TestAfescan:
    def test_single_height_csv(self, capsys, tmp_path):
        p = tmp_path / "scan.csv"
        code, _, err = run(capsys, "afescan", "--kind", "riemann",
                           "--t", "80", "--no-meta", "--out", str(p))
        assert code == 0
        lines = p.read_text().splitlines()
        assert lines[0].startswith("kind,sigma,t,split,")
        assert len(lines) == 1 + 5 * 4  # sigmas x splits
        assert "max ratio" in err and "C_fit" in err

    def test_strict_passes_within_envelope(self, capsys, tmp_path):
        code, _, _ = run(capsys, "afescan", "--kind", "riemann", "--t", "80",
                         "--strict", "--no-meta", "--out",
                         str(tmp_path / "s.csv"))
        assert code == 0


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


class TestBadFlags:
    def test_unknown_method(self, capsys):
        assert run(capsys, "eval", "--sigma", "0.5", "--t", "10",
                   "--method", "bogus")[0] == 2

    def test_alpha_out_of_range(self, capsys):
        assert run(capsys, "eval", "--sigma", "0.5", "--t", "10",
                   "--alpha", "3/2")[0] == 2
