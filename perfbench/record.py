"""Record the reference outputs of every benchmark unit.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout. For each workload (all by default) and
each scenario seed of the pool, runs the unit with one worker and stores
its CSVs, gzipped, under `perfbench/reference/<workload>/seed<k>/`, with
the number of realizations per seed in `realizations.json`. The references
in the repository were recorded before any optimisation; re-record only
when an output is meant to change, and say why.
"""

import gzip
import json
import os
import shutil
import sys
import tempfile
import time

import run


def record(ctx):
    """Write the reference outputs of every pool seed of ctx's workload."""
    counts = {}
    ctx.tmp = tempfile.mkdtemp(prefix=".perfbench_out_", dir=ctx.root)
    try:
        for seed in run.POOL:
            ctx.started = time.monotonic()  # one deadline per unit
            timings, out = ctx.unit(seed)
            dest = os.path.join(ctx.ref, f"seed{seed}")
            os.makedirs(dest, exist_ok=True)
            for name in ctx.workload.outputs:
                with open(os.path.join(out, name), "rb") as src, \
                        gzip.GzipFile(os.path.join(dest, name + ".gz"), "wb",
                                      mtime=0) as dst:
                    shutil.copyfileobj(src, dst)
            counts[str(seed)] = timings["realizations"]
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    with open(os.path.join(ctx.ref, "realizations.json"), "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    for name in argv or sorted(run.WORKLOADS):
        record(run.Context(os.getcwd(), name))
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
