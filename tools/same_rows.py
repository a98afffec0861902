"""Compare the CSV files of the benchmark workloads from two checkouts.

    python3 tools/same_rows.py PARENT CHANGE [--seeds 1-6] [--workers 1,2]
        [--workloads ber_mc,cdf_asm]

PARENT and CHANGE are the roots of two checkouts. For every workload of
the parent's `perfbench/run.py` (its WORKLOADS map: the CLI command and
the CSV files it writes), or only those named by --workloads, every
seed and every worker count, runs

    python3 -m lifisim.cli COMMAND --config perfbench/workloads/W.yaml \\
        --seed S --out DIR --workers N

from each root, with that root's `src/` first on PYTHONPATH, one run at
a time. Then prints, per CSV file, whether its data rows match and,
separately, whether its `#` header lines match (the scenario hash among
them). Exits 1 when a run fails, a file is missing on either side, or
any rows or headers differ; 0 when every file matches.

Uses the standard library only; nothing under perfbench/ is changed.
"""

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import parse_seeds


def workloads(root):
    """{name: (command, outputs)} from root's perfbench/run.py."""
    bench = os.path.join(root, "perfbench")
    sys.path.insert(0, bench)     # run.py imports its neighbours
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(bench, "run.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return {name: (w.command, list(w.outputs))
            for name, w in module.WORKLOADS.items()}


def run_cli(root, command, workload, seed, workers, out):
    """Run one workload's command from root; True when it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    config = os.path.join(root, "perfbench", "workloads", workload + ".yaml")
    proc = subprocess.run(
        [sys.executable, "-m", "lifisim.cli", command, "--config", config,
         "--seed", str(seed), "--out", out, "--workers", str(workers)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode == 0


def split_csv(path):
    """(header lines, data lines) of a CSV file, or None if it is missing."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        lines = f.read().splitlines()
    return ([ln for ln in lines if ln.startswith("#")],
            [ln for ln in lines if not ln.startswith("#")])


def compare(parent, change):
    """(rows match, headers match) of two split_csv results."""
    if parent is None or change is None:
        return False, False
    return parent[1] == change[1], parent[0] == change[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", default="1-6")
    ap.add_argument("--workers", default="1,2")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated workload names (default: all)")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seeds = parse_seeds(args.seeds)
    workers = parse_seeds(args.workers)

    chosen = workloads(roots["parent"])
    if args.workloads is not None:
        names = args.workloads.split(",")
        unknown = sorted(set(names) - set(chosen))
        if unknown:
            ap.error(f"unknown workloads: {', '.join(unknown)} "
                     f"(known: {', '.join(chosen)})")
        chosen = {name: chosen[name] for name in names}

    files = differ = 0
    tmp = tempfile.mkdtemp(prefix="same_rows_")
    try:
        for name, (command, outputs) in chosen.items():
            for seed in seeds:
                for n in workers:
                    out, ok = {}, True
                    for side, root in roots.items():
                        out[side] = os.path.join(tmp, f"{name}_{seed}_{n}",
                                                 side)
                        ok &= run_cli(root, command, name, seed, n,
                                      out[side])
                    for csv in outputs:
                        rows, headers = compare(
                            *(split_csv(os.path.join(out[side], csv))
                              for side in roots))
                        files += 1
                        differ += not (ok and rows and headers)
                        print(f"{name} seed {seed} workers {n} {csv}: "
                              + ("" if ok else "run failed, ")
                              + f"rows {'same' if rows else 'DIFFER'}, "
                              f"headers {'same' if headers else 'DIFFER'}",
                              flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{files - differ} of {files} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
