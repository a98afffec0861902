"""Command line behavior: exit codes, overrides, emitted files."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import lifisim
from lifisim import RadiosityError, load_scenario, read_csv, scenario_hash
from lifisim import cli, harness


TINY_MAP = """
grid_step: 2.0
n_directions: 2
orientations_per_point: 1
include_nlos: false
seed: 7
"""

TINY_SWEEP = """
scheme: sm
n_active: 4
spectral_efficiency: 5
orientation: fixed
include_nlos: false
snr_start_db: 0.0
snr_stop_db: 10.0
snr_step_db: 5.0
mc_symbols: 500
"""

TINY_UPLINK = """
direction: uplink
scheme: sm
grid_step: 2.0
n_directions: 2
orientations_per_point: 1
uplink_snr_start_db: 150.0
uplink_snr_stop_db: 150.0
"""

TINY_ORWP = """
activity: walking
n_waypoints: 2
include_nlos: false
seed: 3
"""


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_config_defaults(capsys):
    assert cli.main(["validate-config"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("ok ")
    assert len(out.split()[1]) == 12


def test_validate_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_MAP)
    assert cli.main(["validate-config", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"ok {scenario_hash(load_scenario(cfg))}"


def test_validate_config_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "nonsense: 1\n")
    assert cli.main(["validate-config", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_config_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert cli.main(["validate-config", "--config", missing]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "fov_deg: 120\n",
    "semiangle_deg: 95\n",
    "spectral_efficiency: 40\n",
    "spectral_efficiency: 13\n",
    "scheme: mimo\nn_active: 4\nspectral_efficiency: 16\n",
    "direction: uplink\nscheme: sm\nuplink_tse: 11\n",
    "uplink_tse: 11\n",
    "uplink_tse: 2000\n",
])
def test_validate_config_rejects_invalid_derived_objects(tmp_path, capsys,
                                                         text):
    cfg = write_config(tmp_path, text)
    assert cli.main(["validate-config", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "spectral_efficiency: 12\n",
    "direction: uplink\nscheme: sm\nuplink_tse: 10\n",
    "kappa_b: 40.0\n",          # 1,000 extra blockers in 25 m^2
    "snr_stop_db: 0.0\nmc_symbols: 100000000000\n",   # 1e11 BER symbols
    "direction: uplink\ngrid_step: 10.0\nn_directions: 1\n"
    "orientations_per_point: 1\nuplink_snr_stop_db: 100.0\n"
    "mi_samples: 100000000000\n",                      # 1e11 MI samples
])
def test_validate_config_accepts_alphabet_at_the_limit(tmp_path, capsys,
                                                       text):
    cfg = write_config(tmp_path, text)
    assert cli.main(["validate-config", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("ok ")


@pytest.mark.parametrize("text,match", [
    ("speed: 1.0e-9\n", "walk"),
    ("orientations_per_point: 1000000000000000000\n", "sitting survey"),
    ("n_ap_side: 1000000000000000000\n", "access points"),
    ("mesh_resolution: 1.0e-4\n", "mesh elements"),
    ("kappa_b: 1000000000000.0\n", "blockers per realization"),
    ("kappa_b: 40.04\n", "1001 blockers per realization"),
    ("mc_symbols: 1000000000000000\n", "3.6e+16 Monte Carlo symbols"),
    ("orientation: random\nmc_symbols: 1000000000000000\n",
     "(500 draws x 2000000000000 symbols x 36 SNR points)"),
    ("snr_stop_db: 0.0\nmc_symbols: 100000000001\n", "Monte Carlo symbols"),
    ("direction: uplink\nmi_samples: 1000000000000000\n",
     "9.1e+22 MI samples"),
    ("direction: uplink\nactivity: walking\nmi_samples: 1000000000000\n",
     "MI samples"),
    ("direction: uplink\ngrid_step: 10.0\nn_directions: 1\n"
     "orientations_per_point: 1\nuplink_snr_stop_db: 100.0\n"
     "mi_samples: 100000000001\n", "(1 realizations x 1 SNR points"),
])
def test_validate_config_rejects_unbounded_work_fast(tmp_path, capsys, text,
                                                      match):
    cfg = write_config(tmp_path, text)
    start = time.perf_counter()
    assert cli.main(["validate-config", "--config", cfg]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "config error" in err and match in err


@pytest.mark.parametrize("command,text", [
    ("ber-sweep", TINY_SWEEP.replace("snr_step_db: 5.0", "snr_step_db: 3.0")),
    ("ber-sweep", TINY_SWEEP.replace("snr_step_db: 5.0", "snr_step_db: 20.0")),
    ("uplink-ee", TINY_UPLINK.replace("uplink_snr_stop_db: 150.0",
                                      "uplink_snr_stop_db: 160.0\n"
                                      "uplink_snr_step_db: 3.0")),
    ("uplink-ee", TINY_UPLINK.replace("scheme: sm",
                                      "scheme: sm\nn_active: 8")),
])
def test_grid_and_n_active_errors_exit_2(tmp_path, capsys, command, text):
    cfg = write_config(tmp_path, text)
    assert cli.main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "does not divide" in err or "n_active 8 exceeds" in err


@pytest.mark.parametrize("text", [
    "",                                    # 361 x 24 x 500 realizations
    "activity: walking\nn_waypoints: 500\n",
    "n_ap_side: 32\n",
    "mesh_resolution: 0.25\n",
])
def test_validate_config_admits_the_default_survey_and_walk(tmp_path, text):
    cfg = write_config(tmp_path, text)
    assert cli.main(["validate-config", "--config", cfg]) == 0


WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "workloads")


@pytest.mark.parametrize("name", ["ber_mc", "cdf_asm", "orwp_blocked",
                                  "uplink_ee"])
def test_validate_config_admits_the_benchmark_workloads(capsys, name):
    cfg = os.path.join(WORKLOADS, name + ".yaml")
    assert cli.main(["validate-config", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("ok ")


def test_out_of_range_semiangle_is_config_error_not_numerical(tmp_path,
                                                             capsys):
    cfg = write_config(tmp_path, TINY_MAP + "semiangle_deg: 95\n")
    assert cli.main(["cdf-map", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "semiangle" in err
    assert not os.path.exists(tmp_path / "o")


def test_cli_import_leaves_out_scipy_signal():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lifisim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, lifisim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cdf_map_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_MAP)
    out_dir = str(tmp_path / "out")
    assert cli.main(["cdf-map", "--config", cfg, "--out", out_dir]) == 0
    csv_path = os.path.join(out_dir, "cdf_map.csv")
    assert os.path.exists(csv_path)
    assert csv_path in capsys.readouterr().out
    meta, _, rows = read_csv(csv_path)
    assert meta["scenario_hash"] == scenario_hash(load_scenario(cfg))
    assert len(rows) == 9 * 2


def test_seed_and_grid_step_overrides(tmp_path):
    cfg = write_config(tmp_path, TINY_MAP.replace("grid_step: 2.0",
                                                  "grid_step: 1.0"))
    out_dir = str(tmp_path / "out")
    rc = cli.main(["cdf-map", "--config", cfg, "--out", out_dir,
                   "--seed", "42", "--grid-step", "2.0"])
    assert rc == 0
    meta, _, rows = read_csv(os.path.join(out_dir, "cdf_map.csv"))
    assert meta["seed"] == "42"
    assert len(rows) == 9 * 2


def test_ber_sweep_with_plots_and_mc_override(tmp_path):
    cfg = write_config(tmp_path, TINY_SWEEP)
    out_dir = str(tmp_path / "out")
    rc = cli.main(["ber-sweep", "--config", cfg, "--out", out_dir,
                   "--plots", "--mc-symbols", "0"])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "ber_sweep.svg"))
    _, _, rows = read_csv(os.path.join(out_dir, "ber_sweep.csv"))
    assert len(rows) == 3
    assert all(math.isnan(r["ber_mc"]) for r in rows)


def test_uplink_command_emits_two_tables(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_UPLINK)
    out_dir = str(tmp_path / "out")
    assert cli.main(["uplink-ee", "--config", cfg, "--out", out_dir]) == 0
    out = capsys.readouterr().out
    for name in ("uplink_ber.csv", "uplink_ee.csv"):
        path = os.path.join(out_dir, name)
        assert os.path.exists(path)
        assert path in out


def test_uplink_far_above_the_useful_snr_exits_0(tmp_path):
    # c||Q|| far above 1e16, where 2cQ + I is no longer numerically
    # positive definite: every point still gets its row
    cfg = write_config(tmp_path, """
direction: uplink
activity: sitting
device: mdr
scheme: asm
grid_step: 2.0
n_directions: 2
orientations_per_point: 2
uplink_snr_start_db: 200.0
uplink_snr_stop_db: 300.0
uplink_snr_step_db: 20.0
""")
    out_dir = str(tmp_path / "out")
    assert cli.main(["uplink-ee", "--config", cfg, "--out", out_dir]) == 0
    _, _, rows = read_csv(os.path.join(out_dir, "uplink_ee.csv"))
    assert len(rows) == 6 and all(math.isfinite(r["L2"]) for r in rows)


def test_orwp_command(tmp_path):
    cfg = write_config(tmp_path, TINY_ORWP)
    out_dir = str(tmp_path / "out")
    assert cli.main(["orwp-run", "--config", cfg, "--out", out_dir]) == 0
    _, _, rows = read_csv(os.path.join(out_dir, "orwp_run.csv"))
    assert len(rows) > 0


def test_wrong_direction_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_UPLINK)
    assert cli.main(["cdf-map", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(scenario, workers):
        raise np.linalg.LinAlgError("singular reflection system")

    monkeypatch.setattr(cli, "run_cdf_map", boom)
    assert cli.main(["cdf-map"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_radiosity_failure_exit_code(monkeypatch, capsys):
    def boom(scenario, workers):
        raise RadiosityError("reflection series diverges")

    monkeypatch.setattr(cli, "run_ber_sweep", boom)
    assert cli.main(["ber-sweep"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "diverges" in err


def test_out_naming_a_file_fails_before_the_run(tmp_path, monkeypatch,
                                               capsys):
    def boom(scenario, workers):
        raise AssertionError("the runner ran")

    monkeypatch.setattr(cli, "run_cdf_map", boom)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["cdf-map", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "output error" in err and str(taken) in err


@pytest.mark.parametrize("command,text", [
    ("cdf-map", TINY_MAP), ("uplink-ee", TINY_UPLINK)], ids=["map", "up"])
@pytest.mark.parametrize("room", ["room_width: 0.4\n", "room_depth: 0.45\n"],
                         ids=["narrow", "shallow"])
def test_room_without_lattice_points_is_config_error(
        tmp_path, monkeypatch, capsys, command, text, room):
    def no_model(self, scenario):
        raise AssertionError("a channel model was built")

    cfg = write_config(tmp_path, text + room)
    assert cli.main(["validate-config", "--config", cfg]) == 0
    capsys.readouterr()
    monkeypatch.setattr(harness.ChannelBuilder, "__init__", no_model)
    assert cli.main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "no lattice point 0.25 m" in err


def test_workers_flag_gives_identical_output(tmp_path, pool_starts):
    cfg = write_config(tmp_path, TINY_MAP)
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert cli.main(["cdf-map", "--config", cfg, "--out", out1]) == 0
    assert cli.main(["cdf-map", "--config", cfg, "--out", out2,
                     "--workers", "2"]) == 0
    assert pool_starts == [2]
    with open(os.path.join(out1, "cdf_map.csv")) as fh:
        first = fh.read()
    with open(os.path.join(out2, "cdf_map.csv")) as fh:
        second = fh.read()
    assert first == second


@pytest.mark.parametrize("command,text,name", [
    ("cdf-map", TINY_MAP.replace("orientations_per_point: 1",
                                 "orientations_per_point: 4"), "cdf_map.csv"),
    ("orwp-run", TINY_ORWP.replace("n_waypoints: 2", "n_waypoints: 5")
     + "scheme: sm\nn_active: 4\n", "orwp_run.csv"),
])
def test_batched_search_rows_identical_across_worker_counts(
        tmp_path, pool_starts, command, text, name):
    # more tasks than one search block, and not a whole number of blocks:
    # one worker searches a full block and a partial one
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    cfg = write_config(tmp_path, text)
    outputs = []
    for workers in ("1", "2"):
        out = str(tmp_path / workers)
        assert cli.main([command, "--config", cfg, "--out", out,
                         "--workers", workers]) == 0
        with open(os.path.join(out, name)) as fh:
            outputs.append(fh.read())
    n_rows = len(read_csv(os.path.join(out, name))[2])
    assert n_rows > harness.SEARCH_BLOCK
    assert n_rows % harness.SEARCH_BLOCK
    assert pool_starts == [2]
    assert outputs[0] == outputs[1]


def test_ber_sweep_rows_identical_across_worker_counts(tmp_path,
                                                      pool_starts):
    # random orientation with reflections: more draws than one channel
    # sub-block, each draw's bound and Monte Carlo run in its worker
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    cfg = write_config(tmp_path, TINY_SWEEP.replace(
        "orientation: fixed", "orientation: random\n"
        "orientations_per_point: 21\ninclude_nlos: true").replace(
        "include_nlos: false\n", "").replace(
        "mc_symbols: 500", "mc_symbols: 21000"))
    outputs = []
    for workers in ("1", "2"):
        out = str(tmp_path / workers)
        assert cli.main(["ber-sweep", "--config", cfg, "--out", out,
                         "--workers", workers]) == 0
        with open(os.path.join(out, "ber_sweep.csv")) as fh:
            outputs.append(fh.read())
    rows = read_csv(os.path.join(out, "ber_sweep.csv"))[2]
    assert len(rows) == 3 and 0.0 < rows[0]["ber_mc"] < 0.5
    assert pool_starts == [2]
    assert outputs[0] == outputs[1]


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.parametrize("workers", [0, -1, _usable_cpus() + 1, 10 ** 6])
def test_workers_out_of_range_is_config_error(tmp_path, capsys, monkeypatch,
                                              workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("lifisim.harness.ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path, TINY_MAP)
    out_dir = tmp_path / "o"
    assert cli.main(["cdf-map", "--config", cfg, "--out", str(out_dir),
                     "--workers", str(workers)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--workers" in err
    assert not out_dir.exists()


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
