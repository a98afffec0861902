"""tools/peak_rss.py: the five lines it prints after a command."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"

TINY_MAP = """
grid_step: 2.0
n_directions: 2
orientations_per_point: 1
include_nlos: false
seed: 7
"""


def _tool():
    spec = importlib.util.spec_from_file_location("peak_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workers", [1, 2])
def test_prints_wall_time_peaks_and_minor_faults(tmp_path, capsys, workers):
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < workers:
        pytest.skip("needs two usable CPUs")
    config = tmp_path / "scenario.yaml"
    config.write_text(TINY_MAP)
    out = tmp_path / "out"
    code = _tool().main(["cdf-map", "--config", str(config),
                         "--out", str(out), "--workers", str(workers)])
    assert code == 0 and (out / "cdf_map.csv").exists()
    lines = capsys.readouterr().out.strip().splitlines()[-5:]
    got = dict(line.split() for line in lines)
    assert list(got) == ["wall_s", "parent_peak_rss_mib",
                         "worker_peak_rss_mib", "parent_minor_faults",
                         "worker_minor_faults"]
    assert float(got["wall_s"]) > 0.0
    assert float(got["parent_peak_rss_mib"]) > 0.0
    assert float(got["worker_peak_rss_mib"]) >= 0.0
    assert int(got["parent_minor_faults"]) > 0
    # the faults are the command's own: only a pool has worker faults
    assert (int(got["worker_minor_faults"]) > 0) == (workers > 1)
