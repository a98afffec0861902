"""The lifisim benchmark: four CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the `lifisim` package is imported from
`src/` there, and nothing outside the checkout is read or written.

Each workload is a YAML scenario in `perfbench/workloads/` plus a CLI
command. A *unit* is one `lifisim <command> --seed k` run in a fresh
interpreter (`perfbench/unit.py`), for a scenario seed k from a pool of
eight whose outputs were recorded in `perfbench/reference/`. `--seed`
picks the order in which the pool is visited, so the same seed gives the
same inputs. Every output row is checked against its reference row with
the tolerances in `check.py`; `attempted` counts the rows expected and
`failed` the rows missing or out of tolerance, so fail_frac is
failed / attempted.

`--trace 0` first runs SETUP_PROBES set-up-only units, which stop at
their first realization, then full units with one worker for about
`--seconds` (at least two), and prints:

* `real_per_s`: realizations / (unit wall time - unit set-up), summed over
  the full units. A `ber_mc` realization is one orientation draw with its
  whole SNR sweep;
* `setup_s`: the least, over probes and full units, of the time from the
  unit's start to its first realization: importing lifisim, loading the
  scenario, `ChannelBuilder(...)` and the task or trajectory generation.
  The least, because on a shared machine noise only adds to it;
* `peak_rss_mb`: the median over full units of the unit's peak resident
  memory.

`--trace 1` runs the first unit of the order once untraced, twice traced
(`tracer.py`) and once with `--workers 2`. The first traced run gives the
per-layer metrics `<module>.<function>.<stat>`: `calls`, `self_s`,
`p50_us` and `tail_us`, the 11th-largest duration (10 samples beyond it;
the largest when there are 10 or fewer), plus the layer self times and
counters. `real_per_s_w2` is realizations / (wall - import) of the
`--workers 2` run, whose pool start and per-worker set-up are timed as a
user pays them; its rows must equal the one-worker rows bit for bit. The
run fails when a count differs between the two traced runs, or when the
named functions (all traced ones but the entry points `tracer.ROOTS`)
and the import account for less than 90% of the traced wall time
(`trace.layer_coverage`).

A one-worker unit must call `ChannelBuilder.realize` once per reference
realization, and a probe must reach it: `setup_s` ends at that call, so a
program that realizes by another path stops the run instead of moving
set-up time into `real_per_s`.

Threading is left as the user's environment sets it: no `*_NUM_THREADS`
variable is set, and the environment is printed on the line before the
result.
"""

import argparse
import collections
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import check
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
POOL = list(range(1, 7))
#: Every unit of a run has finished by then, or the run fails.
RUN_DEADLINE_S = 170.0
COVERAGE_TOL = 0.10
SETUP_PROBES = 4


#: A CLI command, the CSVs it writes and why the workload is in the set.
Workload = collections.namedtuple("Workload", "command outputs why")


WORKLOADS = {
    "cdf_asm": Workload(
        "cdf-map", ["cdf_map.csv"],
        "headline coverage survey: adaptive source count, so the "
        "required-SNR search and the channel dominate"),
    "orwp_blocked": Workload(
        "orwp-run", ["orwp_run.csv"],
        "walking users among 5 extra blockers: one search per realization, "
        "so the channel and its slab tests dominate"),
    "uplink_ee": Workload(
        "uplink-ee", ["uplink_ber.csv", "uplink_ee.csv"],
        "uplink, LOS only, fixed SNR points: rate bounds and the MI "
        "estimate, no search and barely any radiosity"),
    "ber_mc": Workload(
        "ber-sweep", ["ber_sweep.csv"],
        "Monte Carlo BER on a 1760-element mesh: MC detection and a large "
        "radiosity set-up dominate"),
}

END_TO_END = [
    ("real_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

#: Traced functions reported with all four stats.
FUNCTIONS = [
    "blockage.place_blockers", "blockage.segments_blocked",
    "channel.los_gain_matrix", "channel.nlos_gain",
    "channel.RadiositySolver.solve", "geometry.element_world_pose",
    "orientation.sample_static_orientation",
    "adaptive.asm_select_downlink", "adaptive.required_snr",
    "adaptive.led_selection_uplink", "sm.build_constellation",
    "sm.union_bound_ber", "sm.qfunc", "sm.monte_carlo_ber",
    "rates.lower_bound_l1", "rates.lower_bound_l2", "rates.mi_monte_carlo",
    "harness.ChannelBuilder.realize",
    "channel.RadiositySolver.__init__", "orientation.orwp_generate",
    "harness.ChannelBuilder.__init__", "harness.write_csv",
    "config.load_scenario",
]
#: Counters that must repeat exactly between two traced runs of a unit.
REPEATED = ["harness.ChannelBuilder.realize.calls",
            "adaptive.required_snr.calls", "adaptive.evals_per_search",
            "sm.qfunc.elems", "blockage.segment_tests", "sm.mc_symbols",
            "rates.mi_samples"]


def _per_layer():
    out = []
    for fn in FUNCTIONS:
        out += [(fn + ".calls", "count", "lower"),
                (fn + ".self_s", "s", "lower"),
                (fn + ".p50_us", "us", "lower"),
                (fn + ".tail_us", "us", "lower")]
    out += [
        ("blockage.segment_tests", "count", "lower"),
        ("blockage.blocked_frac", "fraction", "lower"),
        ("channel.mesh_elements", "count", "lower"),
        ("adaptive.evals_per_search", "count/call", "lower"),
        ("adaptive.feasible_frac", "fraction", "higher"),
        ("sm.qfunc.elems", "count", "lower"),
        ("sm.mc_symbols", "count", "lower"),
        ("rates.mi_samples", "count", "lower"),
        ("harness.tasks", "count", "higher"),
        ("harness.csv_bytes", "B", "lower"),
    ]
    out += [(f"layer.{layer}.self_s", "s", "lower")
            for layer in tracer.LAYERS]
    out += [("trace.overhead_frac", "fraction", "lower"),
            ("trace.layer_coverage", "fraction", "higher"),
            ("real_per_s_w2", "1/s", "higher"),
            ("fail_frac", "fraction", "lower")]
    return out


PER_LAYER = _per_layer()


class RunError(RuntimeError):
    """A unit could not run; the benchmark cannot give a result."""


class Context:
    """Where one run reads its inputs and writes its unit outputs."""

    def __init__(self, root, workload, spec_dir=None, ref_dir=None):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.src = os.path.join(root, "src")
        self.spec = os.path.join(spec_dir or os.path.join(HERE, "workloads"),
                                 workload + ".yaml")
        self.ref = os.path.join(ref_dir or os.path.join(HERE, "reference"),
                                workload)
        self.started = time.monotonic()
        self.tmp = None

    def unit(self, seed, workers=1, trace=False, setup_only=False):
        """Run one unit: (timings, output directory).

        Timings are None when lifisim failed; its rows then count as
        missing. The unit runs in its own process group, so that a unit
        past the run's deadline is killed together with its workers.
        """
        out = tempfile.mkdtemp(prefix=f"s{seed}w{workers}_", dir=self.tmp)
        argv = [self.workload.command, "--config", self.spec,
                "--seed", str(seed), "--out", out, "--workers", str(workers)]
        spec = {"src": self.src, "argv": argv, "trace": trace,
                "setup_only": setup_only}
        left = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise RunError("run deadline passed")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "unit.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=self.root, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError(f"unit seed={seed} passed the run deadline")
        if proc.returncode != 0:
            sys.stderr.write(stderr[-4000:])
            return None, out
        return json.loads(stdout.splitlines()[-1]), out

    def expected_rows(self, seed):
        return sum(len(check.read_table(self._ref_file(seed, f))[1])
                   for f in self.workload.outputs)

    def failed_rows(self, seed, out):
        """Rows of a unit's outputs outside the reference tolerance."""
        failed = 0
        for name in self.workload.outputs:
            ref = check.read_table(self._ref_file(seed, name))[1]
            path = os.path.join(out, name)
            new = check.read_table(path)[1] if os.path.exists(path) else []
            failed += check.count_failed(name, ref, new)
        return failed

    def mismatched_rows(self, out_a, out_b):
        """Rows of two runs of one unit that are not bit-identical."""
        n = 0
        for name in self.workload.outputs:
            lines = [check.data_lines(os.path.join(o, name))
                     if os.path.exists(os.path.join(o, name)) else []
                     for o in (out_a, out_b)]
            n += check.count_mismatched_lines(*lines)
        return n

    def realizations(self, seed):
        with open(os.path.join(self.ref, "realizations.json")) as fh:
            return json.load(fh)[str(seed)]

    def _ref_file(self, seed, name):
        return os.path.join(self.ref, f"seed{seed}", name + ".gz")


def unit_order(seed):
    """The pool of unit seeds in the order run `seed` visits them."""
    return random.Random(seed).sample(POOL, len(POOL))


def tail(values):
    """The 11th-largest value (10 beyond it), or the largest of <= 10."""
    s = sorted(values)
    return s[-11] if len(s) > 10 else s[-1]


def check_realized(ctx, seed, timings, want=None):
    """Fail the run unless a one-worker unit called ChannelBuilder.realize
    `want` times, by default the reference count: set-up is timed to the
    first call."""
    want = ctx.realizations(seed) if want is None else want
    if timings["realizations"] != want:
        raise RunError(f"unit seed={seed} called ChannelBuilder.realize "
                       f"{timings['realizations']} times, not {want}")


def measure(ctx, seed, seconds):
    """End-to-end run: set-up probes, then one-worker units for about
    `seconds` (two or more).

    Another unit starts while the run would end nearer to `seconds` with
    it than without it, judged by the mean unit duration so far.
    """
    order = unit_order(seed)
    setups = []
    for i in range(SETUP_PROBES):
        s = order[i % len(order)]
        probe = ctx.unit(s, setup_only=True)[0]
        if probe is None:
            raise RunError(f"set-up of unit seed={s} failed")
        check_realized(ctx, s, probe, want=1)
        setups.append(probe["setup_s"])
    units = []
    t0 = time.monotonic()
    while True:
        s = order[len(units) % len(order)]
        units.append((s, *ctx.unit(s)))
        if units[-1][1] is not None:
            check_realized(ctx, s, units[-1][1])
        elapsed = time.monotonic() - t0
        if elapsed > RUN_DEADLINE_S / 2:
            break
        if len(units) >= 2 and elapsed + elapsed / len(units) / 2 > seconds:
            break
    attempted = sum(ctx.expected_rows(s) for s, _, _ in units)
    failed = sum(ctx.failed_rows(s, out) for s, _, out in units)
    ok = [(s, r) for s, r, _ in units if r is not None]
    if not ok:
        raise RunError("every unit failed")
    done = sum(ctx.realizations(s) for s, _ in ok)
    busy = sum(r["wall_s"] - r["setup_s"] for _, r in ok)
    metrics = {
        "real_per_s": done / busy,
        "setup_s": min(setups + [r["setup_s"] for _, r in ok]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for _, r in ok),
    }
    return attempted, failed, [], metrics


def _ratio(a, b):
    return a / b if b else 0.0


def _counts(trace, realizations):
    """Counters of a trace record, keyed by metric name."""
    c = trace["counts"]
    calls = {f"{k}.calls": len(v) for k, v in trace["durations"].items()}
    searches = calls.get("adaptive.required_snr.calls", 0)
    out = {k: c.get(k, 0) for k in (
        "blockage.segment_tests", "channel.mesh_elements", "sm.qfunc.elems",
        "sm.mc_symbols", "rates.mi_samples", "harness.csv_bytes")}
    out.update(calls)
    out["adaptive.evals_per_search"] = _ratio(
        c.get("adaptive.search_evals", 0), searches)
    out["adaptive.feasible_frac"] = _ratio(c.get("adaptive.feasible", 0),
                                           searches)
    out["blockage.blocked_frac"] = _ratio(c.get("blockage.blocked", 0),
                                          c.get("blockage.segments", 0))
    out["harness.tasks"] = realizations
    return out


def measure_traced(ctx, seed):
    """Per-layer run: one unit untraced, traced twice, and with 2 workers."""
    s = unit_order(seed)[0]
    plain, out = ctx.unit(s)
    traced = [ctx.unit(s, trace=True) for _ in range(2)]
    pooled, out_w2 = ctx.unit(s, workers=2)
    if None in (plain, pooled, *(r for r, _ in traced)):
        raise RunError(f"unit seed={s} failed")
    for r in [plain] + [r for r, _ in traced]:
        check_realized(ctx, s, r)
    n_rows = ctx.expected_rows(s)
    attempted = 4 * n_rows
    failed = sum(ctx.failed_rows(s, o) for o in [out] + [o for _, o in traced])
    failed += min(ctx.mismatched_rows(out, out_w2), n_rows)

    n = ctx.realizations(s)
    first, again = (r["trace"] for r, _ in traced)
    values = _counts(first, n)
    repeat = _counts(again, n)
    problems = [f"count {k} differs between two traced runs: "
                f"{values.get(k, 0)} != {repeat.get(k, 0)}"
                for k in REPEATED if values.get(k, 0) != repeat.get(k, 0)]
    coverage = first["covered_s"] / traced[0][0]["wall_s"]
    if coverage < 1.0 - COVERAGE_TOL:
        problems.append(f"the named layers cover {coverage:.3f} of the "
                        f"traced wall time")
    if first["missing"]:
        print("not traced, the program has no " + ", ".join(first["missing"]),
              file=sys.stderr)

    for fn in FUNCTIONS:
        d = first["durations"].get(fn, [])
        values[fn + ".calls"] = len(d)
        values[fn + ".self_s"] = first["self_s"].get(fn, 0.0)
        values[fn + ".p50_us"] = statistics.median(d) * 1e6 if d else 0.0
        values[fn + ".tail_us"] = tail(d) * 1e6 if d else 0.0
    for layer, v in first["layers"].items():
        values[f"layer.{layer}.self_s"] = v
    traced_wall = statistics.mean(r["wall_s"] for r, _ in traced)
    values["trace.overhead_frac"] = (traced_wall / plain["wall_s"]) - 1.0
    values["trace.layer_coverage"] = coverage
    values["real_per_s_w2"] = n / (pooled["wall_s"] - pooled["import_s"])
    values["fail_frac"] = failed / attempted
    return attempted, failed, problems, values


def environment():
    """What the result depends on besides the code: cores, versions, BLAS."""
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def run(ctx, seed, seconds, trace):
    """The result object of one run; unit outputs are removed after."""
    ctx.tmp = tempfile.mkdtemp(prefix=".perfbench_out_", dir=ctx.root)
    try:
        if trace:
            attempted, failed, problems, values = measure_traced(ctx, seed)
            specs = PER_LAYER
        else:
            attempted, failed, problems, values = measure(ctx, seed, seconds)
            specs = [(n, u, b) for n, u, b, _ in END_TO_END]
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    for p in problems:
        print(p, file=sys.stderr)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": values[n], "unit": u}
                        for n, u, _ in specs}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    ctx = Context(root, args.workload)
    for need in (os.path.join(ctx.src, "lifisim", "__init__.py"),
                 ctx.spec, os.path.join(ctx.ref, "realizations.json")):
        if not os.path.isfile(need):
            print(f"missing {need}: run from the root of a lifisim checkout",
                  file=sys.stderr)
            return 2
    try:
        result = run(ctx, args.seed, args.seconds, bool(args.trace))
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
