"""Write the CLI outputs that a byte-identity check compares, one file each.

Run from the root of a checkout, with OUTDIR a directory that does not exist
yet:

    python3 tools/snapshot.py OUTDIR

Each command runs as `python -m lerchzeta` on that checkout's src/, in
OUTDIR, with one BLAS/OpenMP thread and LERCH_AFE_CALIBRATION unset.  Its
stdout goes to NAME.out, its stderr to NAME.err and its exit code to
NAME.code; the --out files of calibrate and of a refused afescan (which
leaves none) land in OUTDIR too.  Tables are written with --no-meta, so no
timestamp differs.  The afescan heights are those of the benchmark's scan
workload at seeds 1-3 (perfbench/workloads.py).

The checkout is the working directory, not this file's, so the script also
snapshots a tree older than itself.  To compare a change with its parent:

    git archive PARENT | tar -x -C /tmp/parent
    (cd /tmp/parent && python3 /path/to/tools/snapshot.py /tmp/snap-parent)
    python3 tools/snapshot.py /tmp/snap-change
    diff -r /tmp/snap-parent /tmp/snap-change

An empty diff means every listed output, message and exit code is unchanged.
"""

from __future__ import annotations

import os
import subprocess
import sys

SEEDS = (1, 2, 3)
PAIRS = (("1/3", "1/2"), ("1", "1"))


def commands(root: str) -> list[tuple[str, list[str]]]:
    """(name, CLI argv) for every output of the snapshot."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    from workloads import make_inputs

    cmds = []
    for seed in SEEDS:
        heights = make_inputs("scan", seed)["heights"]
        cmds.append((f"afescan-seed{seed}",
                     ["afescan", "--kind", "all", "--no-meta"]
                     + [f"--t={t!r}" for t in heights]))
    cmds += [
        ("afescan-default-json",
         ["afescan", "--kind", "all", "--no-meta", "--format", "json"]),
        # below t = 8 pi a skew has a length xb/2 < 1: exit 2, no file
        ("afescan-t20", ["afescan", "--kind", "riemann", "--no-meta",
                         "--t=20", "--out", "afescan-t20.csv"]),
        ("calibrate", ["calibrate", "--kind", "all", "--out", "calibrate.txt"]),
        ("fecheck-csv", ["fecheck", "--no-meta"]),
        ("fecheck-json", ["fecheck", "--no-meta", "--format", "json"]),
        ("meansquare-afe", ["meansquare", "--no-meta", "--T", "2000",
                            "--alpha", "1/2", "--lambda", "1/2"]),
        # the hurwitz-kind split sums, whose dual sums start at index 1
        ("meansquare-afe-q1", ["meansquare", "--no-meta", "--T", "2000",
                               "--alpha", "1", "--lambda", "1"]),
        ("meansquare-oracle", ["meansquare", "--no-meta", "--T", "500",
                               "--alpha", "1/3", "--lambda", "1/2",
                               "--method", "oracle"]),
        # the oracle grid at q = 1 (Hurwitz) and at an odd q
        ("meansquare-oracle-q1", ["meansquare", "--no-meta", "--T", "500",
                                  "--alpha", "1/3", "--lambda", "1",
                                  "--method", "oracle"]),
        ("meansquare-oracle-q3", ["meansquare", "--no-meta", "--T", "500",
                                  "--alpha", "1/4", "--lambda", "2/3",
                                  "--method", "oracle"]),
        # spacing 0.01, where |G10 - G8| alone reads 0.0
        ("meansquare-oracle-step002",
         ["meansquare", "--no-meta", "--T", "2000", "--alpha", "1",
          "--lambda", "1", "--method", "oracle", "--step", "0.02"]
         + [f"--checkpoints={c}" for c in (250, 500, 1000, 2000)]),
        ("meansquare-partialsum", ["meansquare", "--no-meta", "--T", "500",
                                   "--alpha", "1/2", "--lambda", "1/2",
                                   "--method", "partialSum"]),
    ]
    for method in ("afe", "oracle", "fe"):
        for t in ("50", "-50", "333.3"):
            for alpha, lam in PAIRS:
                cmds.append((f"eval-{method}-t{t}-a{alpha}-l{lam}"
                             .replace("/", "_"),
                             ["eval", "--format", "json", "--sigma", "0.5",
                              f"--t={t}", "--alpha", alpha, "--lambda", lam,
                              "--method", method]))
    # a sum longer than any the split sums keep between calls
    cmds.append(("eval-afe-t1e11",
                 ["eval", "--format", "json", "--sigma", "0.5", "--t=1e11",
                  "--alpha", "1/3", "--lambda", "1/2", "--method", "afe"]))
    return cmds


def main(outdir: str) -> int:
    root = os.getcwd()
    os.makedirs(outdir)
    env = {k: v for k, v in os.environ.items() if k != "LERCH_AFE_CALIBRATION"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, argv in commands(root):
        with open(os.path.join(outdir, name + ".out"), "wb") as out, \
                open(os.path.join(outdir, name + ".err"), "wb") as err:
            code = subprocess.call([sys.executable, "-m", "lerchzeta", *argv],
                                   cwd=outdir, env=env, stdout=out, stderr=err)
        with open(os.path.join(outdir, name + ".code"), "w") as fh:
            fh.write(f"{code}\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(main(sys.argv[1]))
