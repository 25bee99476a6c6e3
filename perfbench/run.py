#!/usr/bin/env python3
"""The lerchzeta benchmark.

    python3 perfbench/run.py --workload ms-afe --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--workload all`` runs ms-afe, ms-oracle
and scan one after another.  Every job runs in a fresh interpreter
(perfbench/job.py), one at a time, with one BLAS/OpenMP thread and the
packaged calibration constants; jobs repeat until ``--seconds`` would be
overrun.  Every output of every job is checked (workloads.py).

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
``--trace 1`` alternates untraced jobs with jobs under the outside-in tracer
(tracer.py) and reports the per-layer metrics, including the tracer's
overhead.  A table with sample counts, the failed share and, for the
ladders, quad_err_rel is printed first; the last line of standard output is
the JSON result.  A JSON file with the samples, failures and the environment
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs.json")
JOB = os.path.join(HERE, "job.py")

SETUP_SPAWNS = 8
JOB_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("gammafns.calls", "count"), ("gammafns.self_s", "s"),
    ("gammafns.call_us_p50", "us"), ("gammafns.call_us_p99", "us"),
    ("oracles.calls", "count"), ("oracles.terms", "count"),
    ("oracles.self_s", "s"), ("oracles.terms_per_s", "1/s"),
    ("oracles.reliable_frac", "1"),
    ("afe.calls", "count"), ("afe.terms", "count"), ("afe.self_s", "s"),
    ("afe.call_us_p50", "us"), ("afe.call_us_p99", "us"),
    ("meansquare.points", "count"), ("meansquare.terms", "count"),
    ("meansquare.self_s", "s"), ("meansquare.point_us", "us"),
    ("meansquare.terms_per_s", "1/s"),
    ("funceq.calls", "count"), ("funceq.self_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_out", "B"),
    ("bench.self_s", "s"), ("trace.overhead_frac", "1"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LERCH_AFE_CALIBRATION", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(spec: dict, workdir: str) -> tuple[dict | None, float, str]:
    """Run one job process.  Returns (its result or None, set-up seconds,
    error text)."""
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, JOB, spec_path, result_path],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, 0.0, f"job exceeded {JOB_TIMEOUT_S:g} s"
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, 0.0, (f"job exited {proc.returncode}: "
                           + proc.stderr.strip()[-2000:])
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - t0, ""


def expected_outputs(spec: dict, refs: dict) -> list[str]:
    """The Failure.output names of everything one job's checks cover."""
    if spec["workload"] == "scan":
        rows = wl.AFESCAN_ROWS_PER_HEIGHT * len(spec["heights"])
        return ([f"{cmd} exit code" for cmd in ("afescan", "fecheck")]
                + [f"afescan row {i}" for i in range(rows)]
                + [f"fecheck row {i}" for i in range(wl.FECHECK_ROWS)])
    return [f"T={want['T']:g}" for want in refs["ladders"][wl.ref_key(spec)]]


def check_job(spec: dict, result: dict | None, error: str,
              refs: dict) -> tuple[int, list[wl.Failure], dict]:
    """(outputs checked, failures, extra facts) for one job.  A job that
    crashed fails every output it should have produced."""
    if result is None:
        expected = expected_outputs(spec, refs)
        return len(expected), [wl.Failure(o, error) for o in expected], {}
    if spec["workload"] == "scan":
        out = result["output"]
        failures = [wl.Failure(f"{cmd} exit code", f"cli exit code {code}")
                    for cmd, code in zip(("afescan", "fecheck"),
                                         out["exit_codes"]) if code != 0]
        cfit = result["environment"]["cfit"]
        attempted, facts = len(out["exit_codes"]), {"bytes_out": 0}
        for path, check in (
                (out["afescan_csv"],
                 lambda rows: wl.check_afescan(rows, cfit, spec["heights"])),
                (out["fecheck_csv"], wl.check_fecheck)):
            rows = wl.read_csv(path) if os.path.exists(path) else []
            if rows:
                facts["bytes_out"] += os.path.getsize(path)
            n, bad = check(rows)
            attempted += n
            failures += bad
        return attempted, failures, facts
    records = result["output"]["records"]
    n, failures = wl.check_ladder(records, refs["ladders"][wl.ref_key(spec)])
    return n, failures, {"quad_err_rel": wl.quad_err_rel(records)}


def layer_metrics(spec: dict, result: dict, facts: dict) -> dict:
    """Per-layer values of one traced job."""
    tr = result["trace"]
    g, o, a, m = tr["gammafns"], tr["oracles"], tr["afe"], tr["meansquare"]
    if spec["workload"] == "scan":
        points = terms = 0
    else:
        last = result["output"]["records"][-1]
        points = wl.grid_points(last["T"], last["step"])
        terms = wl.grid_terms(spec["method"], spec["lam"], last["T"],
                              last["step"])

    def ratio(x, y):
        return x / y if y else 0.0

    return {
        "gammafns.calls": g["calls"], "gammafns.self_s": g["self_s"],
        "gammafns.call_us_p50": g["call_us_p50"],
        "gammafns.call_us_p99": g["call_us_p99"],
        "oracles.calls": o["calls"], "oracles.terms": o["main_terms"],
        "oracles.self_s": o["self_s"],
        "oracles.terms_per_s": ratio(o["main_terms"], o["self_s"]),
        "oracles.reliable_frac": ratio(o["reliable"], o["calls"]),
        "afe.calls": a["calls"],
        "afe.terms": a["main_terms"] + 2 * a["dual_terms"],
        "afe.self_s": a["self_s"],
        "afe.call_us_p50": a["call_us_p50"],
        "afe.call_us_p99": a["call_us_p99"],
        "meansquare.points": points, "meansquare.terms": terms,
        "meansquare.self_s": m["self_s"],
        "meansquare.point_us": ratio(m["span_s"] * 1e6, points),
        "meansquare.terms_per_s": ratio(terms, m["self_s"]),
        "funceq.calls": tr["funceq"]["calls"],
        "funceq.self_s": tr["funceq"]["self_s"],
        "cli.self_s": tr["cli"]["self_s"],
        "cli.bytes_out": facts.get("bytes_out", 0),
        "bench.self_s": tr["bench_self_s"],
    }


def measure(spec: dict, seconds: float, trace: bool, refs: dict) -> dict:
    """Run jobs of one workload for about ``seconds`` and summarise them."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        spec = dict(spec, workdir=workdir,
                    spans_path=os.path.join(OUT, f"spans-{spec['workload']}.npz"))
        start = time.monotonic()
        setups, errors = [], []
        for _ in range(SETUP_SPAWNS):
            result, setup_s, error = spawn(dict(spec, setup_only=True), workdir)
            if result is None:
                errors.append(error)
            else:
                setups.append(setup_s)
        # Every job of a run repeats the same inputs, so attempted and failed
        # count distinct outputs: a run's counts depend on its seed, not on
        # how many jobs fitted into it.  An output that failed in any job
        # counts as failed.
        jobs = []
        attempted, checked, failing, fail_jobs = 0, 0, {}, {}
        while True:
            traced = trace and len(jobs) % 2 == 1
            t0 = time.monotonic()
            result, setup_s, error = spawn(dict(spec, trace=traced), workdir)
            n, bad, facts = check_job(spec, result, error, refs)
            attempted, checked = max(attempted, n), checked + 1
            for f in bad:
                if f.output not in failing or failing[f.output].known_gap:
                    failing[f.output] = f
                fail_jobs[f.output] = fail_jobs.get(f.output, 0) + 1
            if result is None:
                errors.append(error)
                break
            setups.append(setup_s)
            jobs.append({"traced": traced, "wall_s": result["wall_s"],
                         "peak_rss_mb": result["peak_rss_mb"],
                         "facts": facts,
                         "layers": (layer_metrics(spec, result, facts)
                                    if traced else None)})
            environment = result["environment"]
            now = time.monotonic()
            if (len(jobs) >= (2 if trace else 1)
                    and now - start + (now - t0) > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {"spec": {k: v for k, v in spec.items()
                        if k not in ("workdir", "spans_path")},
               "attempted": attempted, "failed": len(failing),
               "unexpected_failed": sum(not f.known_gap
                                        for f in failing.values()),
               "failures": [dict(f._asdict(), jobs=fail_jobs[o])
                            for o, f in failing.items()],
               "jobs_checked": checked, "errors": errors,
               "jobs": jobs, "setup_samples": setups}
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    if not plain or not setups or (trace and not traced):
        return summary
    summary["environment"] = environment
    walls = [j["wall_s"] for j in plain]
    summary["samples"] = {"wall_s": walls, "setup_s": setups,
                          "peak_rss_mb": [j["peak_rss_mb"] for j in plain]}
    if "quad_err_rel" in plain[0]["facts"]:
        summary["quad_err_rel"] = plain[0]["facts"]["quad_err_rel"]
    if trace:
        layers = {name: statistics.median([j["layers"][name] for j in traced])
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (
            statistics.median([j["wall_s"] for j in traced]) / statistics.median(walls) - 1.0)
        summary["metrics"] = {name: {"value": layers[name], "unit": unit}
                              for name, unit in PER_LAYER}
    else:
        summary["metrics"] = {name: {"value": statistics.median(summary["samples"][name]),
                                     "unit": unit}
                              for name, unit in END_TO_END}
    return summary


# ---------------------------------------------------------------------------
# Environment record and report
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def report(workload: str, seed: int, summary: dict) -> None:
    spec = summary["spec"]
    if workload == "scan":
        inputs = (f"{len(spec['heights'])} heights in "
                  f"[{min(spec['heights'])}, {max(spec['heights'])}]")
    else:
        inputs = (f"method={spec['method']} alpha={spec['alpha']} "
                  f"lam={spec['lam']} T={spec['T']:g}")
    plain = sum(1 for j in summary["jobs"] if not j["traced"])
    print(f"== {workload}  seed {seed}  {inputs}")
    print(f"   {plain} untraced + {len(summary['jobs']) - plain} traced jobs, "
          f"{len(summary['setup_samples'])} set-up samples, "
          "one fresh process per job")
    print(f"   {'metric':<24}{'median':>14}  {'tail':<22}{'n':>5}  unit")
    for name, unit in END_TO_END:
        values = summary.get("samples", {}).get(name, [])
        if not values:
            continue
        t = wl.tail(values)
        tail = f"p{t[0]:.0f} {t[1]:.6g}" if t else "none (n < 11)"
        print(f"   {name:<24}{statistics.median(values):>14.6g}  {tail:<22}"
              f"{len(values):>5}  {unit}")
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"   {'fail_frac':<24}{frac:>14.6g}  {'':<22}"
          f"{summary['attempted']:>5}  1 (outputs checked)")
    if "quad_err_rel" in summary:
        print(f"   {'quad_err_rel':<24}{summary['quad_err_rel']:>14.6g}  "
              f"{'gated against refs.json':<22}{1:>5}  1")
    if any(j["traced"] for j in summary["jobs"]):
        for name, unit in PER_LAYER:
            print(f"   {name:<24}{summary['metrics'][name]['value']:>14.6g}  "
                  f"{'median of traced jobs':<22}{len(summary['jobs']) - plain:>5}"
                  f"  {unit}")
    for f in summary["failures"][:20]:
        print(f"   FAIL{' (known gap)' if f['known_gap'] else ''} "
              f"{f['output']}: {f['message']} (in {f['jobs']} of "
              f"{summary['jobs_checked']} jobs)")
    if len(summary["failures"]) > 20:
        print(f"   ... {len(summary['failures']) - 20} more failures")
    for line in summary["errors"][:5]:
        print(f"   ERROR {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lerchzeta", "__init__.py")):
        print(f"error: no lerchzeta sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(REFS, encoding="utf-8") as fh:
        refs = json.load(fh)

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    host = {"commit": git_commit(), "seed": args.seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "refs_commit": refs["commit"]}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary = measure(wl.make_inputs(name, args.seed), args.seconds,
                          bool(args.trace), refs)
        report(name, args.seed, summary)
        if "metrics" not in summary:
            print(f"error: {name}: no job completed", file=sys.stderr)
            return 1
        summary["host"] = host
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(
            OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        env = summary["environment"]
        print(f"   commit {host['commit'][:12]}  nproc {host['nproc']}  "
              f"cpu {host['cpu']}  python {env['python']}  numpy "
              f"{env['numpy']}  calibration {env['calibration_source']}")
        print(f"   result file {os.path.relpath(path, ROOT)}")
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["correct"] &= summary["unexpected_failed"] == 0
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in summary["metrics"].items():
            combined["metrics"][prefix + metric] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
