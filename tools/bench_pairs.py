"""Alternating parent/change pairs of the lifisim benchmark.

    python3 tools/bench_pairs.py PARENT CHANGE --workload orwp_blocked \\
        --seeds 1501-1510 [--seconds 22] [--trace 0] [--json BENCH_N.json]

PARENT and CHANGE are the roots of two checkouts. For each seed, runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
once from each root, the parent first on even pair numbers and the change
first on odd ones, one run at a time, and reads the JSON object that
run.py prints last and the environment it prints before it. Prints each
pair, then per end-to-end metric of the parent's BENCHMARK.json: each
side's quartiles, the pairs the change wins, and whether the gain rule
holds: the change is better in at least 9 of every 10 pairs, and its
median beats the parent's by more than the parent's interquartile range.
With --json, the series is added to that file under its workload,
together with the command and the seeds.

Uses the standard library only; nothing under perfbench/ is changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(spec):
    """Seeds from "1,3,5-8": single values and inclusive ranges."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metric, better):
    """Quartiles, wins and the gain rule of one metric over the pairs.

    pairs is a list of {"parent": metrics, "change": metrics} with plain
    numbers per metric name; better is "higher" or "lower".
    """
    sign = 1.0 if better == "higher" else -1.0
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (cq[1] - pq[1])
    return {"pairs": len(pairs), "parent_q1_median_q3": list(pq),
            "change_q1_median_q3": list(cq), "change_better_pairs": wins,
            "median_ratio": cq[1] / pq[1] if pq[1] else None,
            "gain_rule_holds": bool(10 * wins >= 9 * len(pairs)
                                    and gap > pq[2] - pq[0])}


def run_once(root, workload, seed, seconds, trace):
    """The metrics and status run.py reports from one checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: run.py printed no result (exit "
                         f"{proc.returncode})")
    env = None
    if len(lines) > 1 and lines[-2].startswith("env "):
        env = json.loads(lines[-2][len("env "):])
    return {"metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "correct": out.get("correct"), "failed": out.get("failed"),
            "attempted": out.get("attempted"), "environment": env}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"])
                   for m in json.load(f)["end_to_end"]]

    pairs, env = [], None
    for i, seed in enumerate(seeds):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": sides[0]}
        for side in sides:
            run = run_once(roots[side], args.workload, seed, args.seconds,
                           args.trace)
            env = env or run["environment"]
            pair[side] = {name: run["metrics"][name] for name, _ in metrics}
            pair[side + "_status"] = {k: run[k] for k in
                                      ("correct", "attempted", "failed")}
        pairs.append(pair)
        print(f"seed {seed} ({pair['first']} first): " + "  ".join(
            f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
            for name, _ in metrics), flush=True)

    summary = {}
    for name, better in metrics:
        s = summary[f"{args.workload}.{name}"] = summarize(pairs, name,
                                                           better)
        print(f"{args.workload}.{name} ({better} is better): parent "
              + "/".join(f"{v:.4g}" for v in s["parent_q1_median_q3"])
              + ", change "
              + "/".join(f"{v:.4g}" for v in s["change_q1_median_q3"])
              + f", change better in {s['change_better_pairs']}"
              f"/{s['pairs']}, gain rule "
              + ("holds" if s["gain_rule_holds"] else "does not hold"))

    if args.json:
        record = {}
        if os.path.exists(args.json):
            with open(args.json) as f:
                record = json.load(f)
        record.setdefault("series", {})[args.workload] = {
            "command": "python3 tools/bench_pairs.py PARENT CHANGE "
                       f"--workload {args.workload} --seeds {args.seeds} "
                       f"--seconds {args.seconds:g} --trace {args.trace}",
            "seeds": seeds, "environment": env, "pairs": pairs,
            "summary": summary}
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
