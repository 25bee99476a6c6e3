"""The benchmark's own tests, at a tiny size.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

import json
import os
import sys
import time

import pytest

import run
import workloads as wl

sys.path.insert(0, os.path.join(run.ROOT, "src"))

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY = {
    "ms-afe": dict(wl.ladder("afe", "1/2", "1/2"), T=40.0, checkpoints=[20.0, 40.0]),
    "ms-oracle": dict(wl.ladder("oracle", "1/3", "1/2"), T=40.0,
                      checkpoints=[20.0, 40.0]),
    "scan": {"workload": "scan", "heights": [60.0]},
}


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory):
    """Reference records for the tiny ladders, from one run of each."""
    workdir = str(tmp_path_factory.mktemp("refs"))
    ladders = {}
    for name in ("ms-afe", "ms-oracle"):
        result, _, error = run.spawn(dict(TINY[name], trace=False,
                                          workdir=workdir), workdir)
        assert result is not None, error
        ladders[wl.ref_key(TINY[name])] = result["output"]["records"]
    return {"ladders": ladders}


def test_harness_reports_the_metrics_benchmark_json_names():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_appears_for_every_workload(workload, trace, tiny_refs,
                                                 monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    summary = run.measure(TINY[workload], 0.0, trace, tiny_refs)
    kind = "per_layer" if trace else "end_to_end"
    assert list(summary["metrics"]) == [m["name"] for m in BENCHMARK[kind]]
    for m in summary["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert summary["failed"] == 0
    if trace:
        values = {k: m["value"] for k, m in summary["metrics"].items()}
        if workload == "ms-afe":
            assert values["gammafns.calls"] == 2 * values["meansquare.points"]
        elif workload == "ms-oracle":
            assert values["gammafns.calls"] == 0
            assert values["meansquare.points"] > 0
        else:
            assert values["afe.calls"] == wl.AFESCAN_ROWS_PER_HEIGHT
            assert values["cli.bytes_out"] > 0


# ---------------------------------------------------------------------------
# Each check fails on a deliberately perturbed value
# ---------------------------------------------------------------------------

REF = [{"T": 250.0, "integral": 1000.0, "main_term": 900.0, "quad_err": 0.05,
        "step": 0.02}]


def test_ladder_check_passes_within_tolerance():
    assert wl.check_ladder([dict(REF[0], integral=1000.09)], REF) == (1, [])


def test_ladder_check_fails_on_integral_shifted_past_tolerance():
    n, failures = wl.check_ladder([dict(REF[0], integral=1000.11)], REF)
    assert n == 1 and len(failures) == 1
    assert not failures[0].known_gap


def test_ladder_check_fails_on_coarser_quadrature():
    n, failures = wl.check_ladder([dict(REF[0], quad_err=0.07)], REF)
    assert len(failures) == 1 and "quad_err" in failures[0].message


def test_ladder_check_fails_on_missing_or_moved_checkpoint():
    assert len(wl.check_ladder([], REF)[1]) == 1
    assert len(wl.check_ladder([dict(REF[0], T=250.02)], REF)[1]) == 1


def test_run_counts_a_failing_output_once_however_many_jobs(monkeypatch):
    """attempted and failed depend on the inputs, not on how many jobs fit
    into the run's time."""
    spec = dict(TINY["ms-afe"], checkpoints=[250.0])
    refs = {"ladders": {wl.ref_key(spec): REF}}
    calls = []

    def fake_spawn(job, workdir):
        calls.append(job)
        time.sleep(0.002)
        shifted = dict(REF[0], integral=1000.11)
        return ({"ready": 0.0, "wall_s": 1.0, "peak_rss_mb": 1.0,
                 "environment": {}, "output": {"records": [shifted]}},
                0.1, "")

    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    monkeypatch.setattr(run, "spawn", fake_spawn)
    summary = run.measure(spec, 0.05, False, refs)
    assert summary["jobs_checked"] == len(calls) - 1 > 2
    assert (summary["attempted"], summary["failed"]) == (1, 1)
    assert summary["failures"][0]["jobs"] == summary["jobs_checked"]


CFIT = {"lerch": 2.0, "hurwitz": 0.5, "riemann": 1.25}


def _afescan_row(kind, ratio, sigma="0.5", split="balanced"):
    return {"kind": kind, "sigma": sigma, "t": "60", "split": split,
            "alpha_num": "1", "alpha_den": "1", "lambda_num": "1",
            "lambda_den": "1", "ratio": repr(ratio)}


def test_afescan_check_fails_on_ratio_above_cfit():
    rows = [_afescan_row("lerch", 1.9)] * (wl.AFESCAN_ROWS_PER_HEIGHT - 1)
    assert wl.check_afescan(rows + [_afescan_row("lerch", 1.9)], CFIT,
                            [60.0]) == (wl.AFESCAN_ROWS_PER_HEIGHT, [])
    n, failures = wl.check_afescan(rows + [_afescan_row("hurwitz", 0.51)],
                                   CFIT, [60.0])
    assert n == wl.AFESCAN_ROWS_PER_HEIGHT and len(failures) == 1
    assert not failures[0].known_gap


def test_afescan_known_gap_still_counts_as_failure():
    rows = [_afescan_row("riemann", 1.25 * 1.02, "1", "skew2"),
            _afescan_row("riemann", 1.25 * 1.2, "1", "skew2"),
            _afescan_row("riemann", float("nan"), "1", "skew2")]
    _, failures = wl.check_afescan(rows, CFIT, [])
    assert [f.known_gap for f in failures] == [True, False, False]


def test_afescan_check_fails_on_missing_rows():
    n, failures = wl.check_afescan([_afescan_row("lerch", 1.0)], CFIT, [60.0])
    assert n == wl.AFESCAN_ROWS_PER_HEIGHT
    assert len(failures) == wl.AFESCAN_ROWS_PER_HEIGHT - 1


def test_fecheck_check_fails_on_residual_above_bound():
    row = {"sigma": "0.5", "t": "10", "alpha_num": "1", "alpha_den": "2",
           "lambda_num": "1", "lambda_den": "2", "residual": "1e-12"}
    rows = [row] * (wl.FECHECK_ROWS - 1)
    assert wl.check_fecheck(rows + [row]) == (wl.FECHECK_ROWS, [])
    n, failures = wl.check_fecheck(rows + [dict(row, residual="2e-7")])
    assert n == wl.FECHECK_ROWS and len(failures) == 1
    assert len(wl.check_fecheck(rows)[1]) == 1


# ---------------------------------------------------------------------------
# Inputs come from the seed alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_reproduces_inputs_bit_for_bit(workload):
    assert json.dumps(wl.make_inputs(workload, 7)) \
        == json.dumps(wl.make_inputs(workload, 7))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_different_seeds_change_inputs(workload):
    draws = {json.dumps(wl.make_inputs(workload, seed)) for seed in range(12)}
    if workload == "scan":
        assert len(draws) == 12
    else:  # six pairs in the pool, so some seeds share a draw
        assert len(draws) > 2


def test_scan_heights_cover_the_calibrated_range_one_per_stratum():
    heights = wl.make_inputs("scan", 3)["heights"]
    lo, hi = wl.SCAN_RANGE
    width = (hi - lo) / wl.SCAN_HEIGHTS
    assert [int((h - lo) // width) for h in heights] == list(range(wl.SCAN_HEIGHTS))


def test_every_ladder_draw_has_a_reference():
    with open(run.REFS, encoding="utf-8") as fh:
        refs = json.load(fh)
    assert sorted(refs["ladders"]) == sorted(wl.ref_key(s) for s in wl.all_ladders())


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_rebinds_every_alias_and_restores_them():
    import lerchzeta
    from lerchzeta import funceq, gammafns, meansquare
    from tracer import Tracer

    original = gammafns.gamma_phase_product
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = gammafns.gamma_phase_product
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert funceq._gpp is wrapped
        assert meansquare.gamma_phase_product is wrapped
        assert lerchzeta.gamma_phase_product is wrapped
        lerchzeta.afe_lerch(complex(0.5, 50.0), lerchzeta.LerchParams(0.5, 0.5),
                            lerchzeta.choose_split(50.0))
    finally:
        tracer.uninstall()
    assert funceq._gpp is original and lerchzeta.gamma_phase_product is original
    summary = tracer.summary(1.0)
    assert summary["afe"]["calls"] == 1
    assert summary["gammafns"]["calls"] == 2
    assert summary["afe"]["self_s"] + summary["gammafns"]["self_s"] \
        == pytest.approx(summary["afe"]["span_s"])
