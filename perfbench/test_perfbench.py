"""Smoke test of the benchmark at tiny scenario sizes.

    python3 -m pytest perfbench

Records references for a tiny `cdf_asm` scenario, then checks that both
kinds of run print every metric of BENCHMARK.json with its unit, that a
perturbed reference row is counted as failed, the column rules, and the
check of a unit's realization count.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import record
import run

ROOT = os.path.dirname(run.HERE)
TINY = """\
direction: downlink
activity: sitting
scheme: asm
include_nlos: false
grid_step: 2.5
n_directions: 2
orientations_per_point: 1
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    (base / "specs").mkdir()
    (base / "specs" / "cdf_asm.yaml").write_text(TINY)
    saved = run.POOL
    run.POOL = [1, 2]
    try:
        record.record(_ctx(base))
        yield base
    finally:
        run.POOL = saved


def _ctx(base, ref="refs"):
    return run.Context(ROOT, "cdf_asm", spec_dir=str(base / "specs"),
                       ref_dir=str(base / ref))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tiny, trace):
    result = run.run(_ctx(tiny), seed=3, seconds=0, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _declared()[1 if trace else 0]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_reference_row_is_counted(tiny):
    shutil.copytree(tiny / "refs", tiny / "perturbed")
    path = tiny / "perturbed" / "cdf_asm" / "seed1" / "cdf_map.csv.gz"
    lines = gzip.decompress(path.read_bytes()).decode().splitlines()
    row = next(i for i, line in enumerate(lines)
               if line[0].isdigit() and line.split(",")[11] == "1")
    cells = lines[row].split(",")
    cells[10] = repr(float(cells[10]) + 1.0)       # gamma_rx_db, +1 dB
    lines[row] = ",".join(cells)
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
    result = run.run(_ctx(tiny, "perturbed"), seed=3, seconds=0, trace=False)
    assert result["failed"] == 1            # both seeds of the pool ran
    assert not result["correct"]


def test_column_rules():
    cdf = check.RULES["cdf_map.csv"]
    ref = {"x": "1.25", "n_active": "4", "pam_order": "8",
           "gamma_rx_db": "30.5", "feasible": "1"}
    assert check.row_ok(cdf, ref, dict(ref, gamma_rx_db="30.509"))
    assert not check.row_ok(cdf, ref, dict(ref, gamma_rx_db="30.52"))
    assert check.row_ok(cdf, ref, dict(ref, n_active="2", pam_order="16",
                                       gamma_rx_db="30.495"))
    assert not check.row_ok(cdf, ref, dict(ref, x="1.2500001"))
    assert check.row_ok(cdf, dict(ref, gamma_rx_db="inf", feasible="0"),
                        dict(ref, gamma_rx_db="inf", feasible="0"))

    ber = check.RULES["ber_sweep.csv"]
    ref = {"snr_db": "30", "ber_bound": "0.001", "ber_mc": "0.0009",
           "ci_low": "0.0008", "ci_high": "0.001"}
    assert check.row_ok(ber, ref, dict(ref, ber_mc="0.00099",
                                       ber_bound="0.0010000000005"))
    assert not check.row_ok(ber, ref, dict(ref, ber_mc="0.0011"))
    assert not check.row_ok(ber, ref, dict(ref, ber_bound="0.001000001"))

    ee = check.RULES["uplink_ee.csv"]
    ref = {"config": "gamma_tx_db=120", "L2": "-3.5", "mi_mc": "2.0",
           "stderr": "0.01"}
    assert check.row_ok(ee, ref, dict(ref, mi_mc="2.029"))
    assert not check.row_ok(ee, ref, dict(ref, mi_mc="2.031"))
    assert check.count_failed("uplink_ee.csv", [ref, ref], [ref]) == 1


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cdf_asm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_realize_count_is_checked(tiny):
    ctx = _ctx(tiny)
    timings = {"realizations": ctx.realizations(1)}
    run.check_realized(ctx, 1, timings)
    with pytest.raises(run.RunError):
        run.check_realized(ctx, 1, dict(timings, realizations=0))
    with pytest.raises(run.RunError):
        run.check_realized(ctx, 1, timings, want=1)
