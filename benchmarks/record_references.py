"""Record the reference outputs that the benchmark's output gate checks.

    python3 benchmarks/record_references.py

Run from the root of a qnr checkout at the commit whose outputs define
"correct".  Runs one session of every workload per master seed, in the
benchmark's child environment (one BLAS thread), and replaces ``references.json`` next
to this file, so that its ``recorded_with`` describes every entry.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from run import REFERENCES, environment, session
from workloads import ABS_TOL, REFERENCE_SEEDS, REL_TOL, WORKLOADS


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    root = Path.cwd()
    refs = {"workloads": {}}
    work = root / ".bench_run" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in WORKLOADS:
            per_seed = {}
            for seed in range(REFERENCE_SEEDS):
                s = session(root, WORKLOADS[name], seed, work, f"{name}-{seed}",
                            deadline=time.monotonic() + 120)
                if s["problems"]:
                    print(f"{name} seed {seed}: {s['problems']}", file=sys.stderr)
                    return 1
                per_seed[str(seed)] = s["outputs"]
                print(f"{name} seed {seed}: {s['wall_s']:.2f} s", file=sys.stderr)
            refs["workloads"][name] = per_seed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs["recorded_with"] = environment(root)
    refs["recorded_with"]["versions"] = s["versions"]
    refs["tolerance"] = {"rel": REL_TOL, "abs": ABS_TOL}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
