"""Command line front end.

Exit codes: 0 on success, 2 for configuration problems (including a
--workers count outside 1..usable CPUs) and for an --out directory that
cannot be made or written, 3 for numerical failures (diverging
reflection series, singular systems). The --out directory is made
before the run starts.
"""

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .channel import RadiosityError
from .config import (ConfigError, Scenario, load_scenario,
                     scenario_from_dict, scenario_hash)
from .harness import (check_workers, emit, run_ber_sweep, run_cdf_map,
                      run_orwp_eval, run_uplink_eval)

_COMMANDS = {
    "ber-sweep": "bound and Monte Carlo BER against received SNR",
    "cdf-map": "required-SNR CDF over a sitting lattice",
    "orwp-run": "required-SNR CDF along a walking trajectory",
    "uplink-ee": "uplink BER and energy-efficiency sweep",
    "validate-config": "check a scenario file and print its hash",
}

#: Each run command's runner, giving its results in order, and the CSV
#: base name of each result. The lambdas look a runner up when they are
#: called, so a runner replaced on this module is the one that runs.
_RUNS = {
    "cdf-map": (lambda sc, w: [run_cdf_map(sc, w)], ["cdf_map"]),
    "orwp-run": (lambda sc, w: [run_orwp_eval(sc, w)], ["orwp_run"]),
    "ber-sweep": (lambda sc, w: [run_ber_sweep(sc, w)], ["ber_sweep"]),
    "uplink-ee": (lambda sc, w: run_uplink_eval(sc, w),
                  ["uplink_ber", "uplink_ee"]),
}

_OVERRIDE_KEYS = ("seed", "grid_step", "orientations_per_point", "mc_symbols")


def _add_common(p):
    p.add_argument("--config", metavar="FILE",
                   help="YAML scenario overrides (defaults used if omitted)")
    p.add_argument("--seed", type=int, metavar="N", help="master seed")
    p.add_argument("--out", default="out", metavar="DIR",
                   help="output directory (default: out)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes, 1 to the usable CPU count "
                        "(default: 1)")
    p.add_argument("--grid-step", type=float, dest="grid_step", metavar="M",
                   help="lattice spacing in meters")
    p.add_argument("--orientations-per-point", type=int,
                   dest="orientations_per_point", metavar="N",
                   help="orientation draws per lattice point")
    p.add_argument("--mc-symbols", type=int, dest="mc_symbols", metavar="N",
                   help="Monte Carlo symbols per sweep point (0 disables)")
    p.add_argument("--plots", action="store_true",
                   help="also write an SVG chart next to each CSV")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lifisim",
        description="Link-level simulator for indoor optical wireless "
                    "links under random device orientation, mobility "
                    "and blockage.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "validate-config":
            p.add_argument("--config", metavar="FILE",
                           help="YAML scenario file to check")
        else:
            _add_common(p)
    return parser


def _scenario(args):
    base = load_scenario(args.config) if args.config else Scenario()
    values = asdict(base)
    for key in _OVERRIDE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    return scenario_from_dict(values)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate-config":
            sc = load_scenario(args.config) if args.config else Scenario()
            print(f"ok {scenario_hash(sc)}")
            return 0
        check_workers(args.workers, "--workers")
        sc = _scenario(args)
        os.makedirs(args.out, exist_ok=True)
        run, names = _RUNS[args.command]
        files = [path for result, name in zip(run(sc, args.workers), names)
                 for path in emit(result, args.out, name, args.plots)]
        print("\n".join(files))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (RadiosityError, np.linalg.LinAlgError, FloatingPointError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
