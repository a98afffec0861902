"""tools/same_rows.py: the runs it makes and the files it compares."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

#: A stand-in for perfbench/run.py: its WORKLOADS map, and an import of a
#: neighbour module, as the real one has.
FAKE_RUN = '''import collections
import check
Workload = collections.namedtuple("Workload", "command outputs why")
WORKLOADS = {
    "plain": Workload("plain-cmd", ["a.csv"], ""),
    "pair": Workload("pair-cmd", ["b.csv", "c.csv"], ""),
}
'''

#: A stand-in for lifisim.cli: logs its arguments and writes each CSV of
#: the command as "# hash HEADER" and "SEED,WORKERS,ROW", where the
#: checkout's VARIANT file may replace HEADER or ROW of one file.
FAKE_CLI = '''import argparse, os, sys
ap = argparse.ArgumentParser()
ap.add_argument("command")
for name in ("--config", "--seed", "--out", "--workers"):
    ap.add_argument(name)
args = ap.parse_args()
root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
with open(os.path.join(root, "..", "log"), "a") as f:
    f.write(" ".join([os.path.basename(root), args.command,
                      os.path.relpath(args.config, root), args.seed,
                      args.workers]) + "\\n")
variant = open(os.path.join(root, "VARIANT")).read().split()
files = {"plain-cmd": ["a.csv"], "pair-cmd": ["b.csv", "c.csv"]}
os.makedirs(args.out, exist_ok=True)
for csv in files[args.command]:
    if variant[:2] == [csv, "missing"]:
        continue
    header = variant[2] if variant[:2] == [csv, "header"] else "h"
    row = variant[2] if variant[:2] == [csv, "row"] else "r"
    with open(os.path.join(args.out, csv), "w") as f:
        f.write(f"# hash {header}\\nseed,workers,x\\n"
                f"{args.seed},{args.workers},{row}\\n")
sys.exit(3 if variant[:1] == ["fail"] else 0)
'''


def _checkout(root, variant):
    (root / "perfbench" / "workloads").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "perfbench" / "check.py").write_text("")
    for name in ("plain", "pair"):
        (root / "perfbench" / "workloads" / f"{name}.yaml").write_text("")
    (root / "src" / "lifisim").mkdir(parents=True)
    (root / "src" / "lifisim" / "__init__.py").write_text("")
    (root / "src" / "lifisim" / "cli.py").write_text(FAKE_CLI)
    (root / "VARIANT").write_text(variant)


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("same_rows",
                                                  TOOLS / "same_rows.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_checkouts_pass_and_every_run_is_made(tmp_path, monkeypatch,
                                                    capsys):
    _checkout(tmp_path / "parent", "")
    _checkout(tmp_path / "change", "")
    code = _tool(monkeypatch).main([
        str(tmp_path / "parent"), str(tmp_path / "change"),
        "--seeds", "1-2", "--workers", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "12 of 12 files identical"
    assert "pair seed 2 workers 1 c.csv: rows same, headers same" in out
    log = (tmp_path / "log").read_text().splitlines()
    assert log[:4] == [
        "parent plain-cmd perfbench/workloads/plain.yaml 1 1",
        "change plain-cmd perfbench/workloads/plain.yaml 1 1",
        "parent plain-cmd perfbench/workloads/plain.yaml 1 2",
        "change plain-cmd perfbench/workloads/plain.yaml 1 2"]
    assert len(log) == 16


@pytest.mark.parametrize("variant,line", [
    ("b.csv row x", "pair seed 1 workers 1 b.csv: rows DIFFER, headers same"),
    ("c.csv header x",
     "pair seed 1 workers 1 c.csv: rows same, headers DIFFER"),
    ("a.csv missing",
     "plain seed 1 workers 1 a.csv: rows DIFFER, headers DIFFER"),
    ("fail",
     "plain seed 1 workers 1 a.csv: run failed, rows same, headers same"),
])
def test_any_difference_fails(tmp_path, monkeypatch, capsys, variant, line):
    _checkout(tmp_path / "parent", "")
    _checkout(tmp_path / "change", variant)
    code = _tool(monkeypatch).main([
        str(tmp_path / "parent"), str(tmp_path / "change"),
        "--seeds", "1", "--workers", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert line in out
    identical = 0 if variant == "fail" else 2
    assert out[-1] == f"{identical} of 3 files identical"


def test_workloads_option_runs_only_the_named_ones(tmp_path, monkeypatch,
                                                  capsys):
    _checkout(tmp_path / "parent", "")
    _checkout(tmp_path / "change", "a.csv row x")
    code = _tool(monkeypatch).main([
        str(tmp_path / "parent"), str(tmp_path / "change"),
        "--seeds", "1", "--workers", "1", "--workloads", "pair"])
    out = capsys.readouterr().out.splitlines()
    # plain's a.csv differs, but plain is not run
    assert code == 0
    assert out[-1] == "2 of 2 files identical"
    log = (tmp_path / "log").read_text().splitlines()
    assert log == ["parent pair-cmd perfbench/workloads/pair.yaml 1 1",
                   "change pair-cmd perfbench/workloads/pair.yaml 1 1"]


def test_unknown_workload_is_a_usage_error(tmp_path, monkeypatch, capsys):
    _checkout(tmp_path / "parent", "")
    _checkout(tmp_path / "change", "")
    with pytest.raises(SystemExit) as exc:
        _tool(monkeypatch).main([
            str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workloads", "pair,nope"])
    assert exc.value.code == 2
    assert "unknown workloads: nope" in capsys.readouterr().err
    assert not (tmp_path / "log").exists()
