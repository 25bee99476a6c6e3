"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC.json RESULT.json

The first statements import lerchzeta from the checkout's ``src`` and load
the calibration table, and the monotonic clock reading right after that ends
the set-up interval the parent started before spawning this process.  A spec
with ``"setup_only": true`` stops there.  Otherwise the job runs once (under
the outside-in tracer when ``"trace"`` is set) and its outputs, timings, peak
RSS and environment go to RESULT.json.  Run by perfbench/run.py.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import lerchzeta  # noqa: E402

lerchzeta.get_cfit("lerch")
READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import lerchzeta.cli  # noqa: E402


def run_ladder(spec: dict) -> dict:
    kwargs = {} if spec["method"] == "afe" else {"method": spec["method"]}
    records = lerchzeta.mean_square_ladder(
        spec["T"], Fraction(spec["alpha"]), Fraction(spec["lam"]),
        checkpoints=spec["checkpoints"], **kwargs)
    return {"records": [{"T": r.T, "integral": r.integral_value,
                         "main_term": r.main_term,
                         "quad_err": r.quadrature_error_estimate,
                         "step": r.step} for r in records]}


def run_scan(spec: dict) -> dict:
    afescan = os.path.join(spec["workdir"], "afescan.csv")
    fecheck = os.path.join(spec["workdir"], "fecheck.csv")
    argv = ["afescan", "--kind", "all", "--no-meta", "--out", afescan]
    for t in spec["heights"]:
        argv += ["--t", repr(t)]
    # the CLI's summary lines stay out of this process's stderr, which the
    # harness reports when a job fails
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [lerchzeta.cli.main(argv),
                 lerchzeta.cli.main(["fecheck", "--no-meta", "--out", fecheck])]
    return {"exit_codes": codes, "afescan_csv": afescan,
            "fecheck_csv": fecheck}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "lerchzeta": lerchzeta.__version__,
            "calibration_source": os.environ.get(
                lerchzeta.afe.ENV_CALIBRATION) or "packaged defaults",
            "cfit": {k: lerchzeta.get_cfit(k) for k in lerchzeta.afe.KINDS}}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"ready": READY}
    if not spec.get("setup_only"):
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        run = run_scan if spec["workload"] == "scan" else run_ladder
        t0 = time.perf_counter()
        result["output"] = run(spec)
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary(result["wall_s"])
            tracer.save(spec["spans_path"])
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        result["environment"] = environment()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
