"""tools/bench_pairs.py: the pair order, the summary and the gain rule."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

#: A stand-in for perfbench/run.py: logs which checkout ran which seed
#: and reports real_per_s = SPEED * seed, with fixed set-up and memory.
FAKE_RUN = '''import argparse, json, os
ap = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(name)
args = ap.parse_args()
root = os.getcwd()
with open(os.path.join(root, "..", "log"), "a") as f:
    f.write(os.path.basename(root) + " " + args.seed + "\\n")
speed = float(open(os.path.join(root, "SPEED")).read())
print("env " + json.dumps({"nproc": 2}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "real_per_s": {"value": speed * int(args.seed), "unit": "1/s"},
    "setup_s": {"value": 0.5, "unit": "s"},
    "peak_rss_mb": {"value": 80.0, "unit": "MiB"}}}))
'''

BENCHMARK = {"end_to_end": [
    {"name": "real_per_s", "better": "higher"},
    {"name": "setup_s", "better": "lower"},
    {"name": "peak_rss_mb", "better": "lower"}]}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges():
    assert _tool().parse_seeds("3,7-9,12") == [3, 7, 8, 9, 12]


def _pairs(parent, change):
    return [{"parent": {"m": p}, "change": {"m": c}}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("change,better,wins,holds", [
    # 9 of 10 better, median gap 9 > parent IQR 4.5
    ([20, 21, 22, 23, 24, 25, 26, 27, 28, 1], "higher", 9, True),
    # 8 of 10 better
    ([20, 21, 22, 23, 24, 25, 26, 27, 1, 1], "higher", 8, False),
    # all better, by less than the parent's IQR
    ([11, 12, 13, 14, 15, 16, 17, 18, 19, 20], "higher", 10, False),
    # lower is better: every change run is lower, by far
    ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "lower", 10, True),
])
def test_gain_rule(change, better, wins, holds):
    parent = list(range(10, 20))
    s = _tool().summarize(_pairs(parent, change), "m", better)
    assert s["pairs"] == 10
    assert s["parent_q1_median_q3"] == [12.25, 14.5, 16.75]
    assert s["change_better_pairs"] == wins
    assert s["gain_rule_holds"] is holds


def test_pairs_alternate_and_are_recorded(tmp_path):
    for name, speed in (("parent", 100.0), ("change", 120.0)):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(FAKE_RUN)
        (root / "SPEED").write_text(str(speed))
        (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = tmp_path / "bench.json"
    code = _tool().main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--workload", "w", "--seeds", "1-4", "--seconds",
                         "1", "--json", str(out)])
    assert code == 0
    assert (tmp_path / "log").read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2",
        "parent 3", "change 3", "change 4", "parent 4"]
    series = json.loads(out.read_text())["series"]["w"]
    assert series["seeds"] == [1, 2, 3, 4]
    assert series["environment"] == {"nproc": 2}
    assert series["command"] == ("python3 tools/bench_pairs.py PARENT "
                                 "CHANGE --workload w --seeds 1-4 "
                                 "--seconds 1 --trace 0")
    assert [p["change"]["real_per_s"] for p in series["pairs"]] == [
        120.0, 240.0, 360.0, 480.0]
    assert series["pairs"][0]["change_status"]["failed"] == 0
    speed = series["summary"]["w.real_per_s"]
    assert speed["change_better_pairs"] == 4
    assert speed["median_ratio"] == pytest.approx(1.2)
    assert series["summary"]["w.setup_s"]["change_better_pairs"] == 0
