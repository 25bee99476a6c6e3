#!/usr/bin/env python3
"""Write perfbench/refs.json: the reference ladder records that the ms-afe
and ms-oracle checks compare against.

    python3 perfbench/make_refs.py

Runs every ladder either workload can draw (workloads.all_ladders), each in
a fresh job process exactly as the benchmark runs it, and records the commit
and environment it ran at.  Regenerate only at a commit whose ladder values
are trusted: the benchmark's ladder check is only as good as this file.
"""

import json
import os
import sys
import tempfile

import workloads as wl
from run import OUT, REFS, git_commit, spawn


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    ladders, environment = {}, None
    with tempfile.TemporaryDirectory(prefix="refs-", dir=OUT) as workdir:
        for spec in wl.all_ladders():
            result, _, error = spawn(dict(spec, trace=False, workdir=workdir),
                                     workdir)
            if result is None:
                print(f"error: {wl.ref_key(spec)}: {error}", file=sys.stderr)
                return 1
            ladders[wl.ref_key(spec)] = result["output"]["records"]
            environment = result["environment"]
            print(f"{wl.ref_key(spec)}: {result['wall_s']:.2f} s",
                  file=sys.stderr)
    doc = {"commit": git_commit(), "environment": environment,
           "ladders": ladders}
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
