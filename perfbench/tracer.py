"""Spans and counters around the public functions of each `lifisim` module.

The tracer wraps functions from outside the program: every binding of a
traced function in any `lifisim` module is replaced by one wrapper, so a
function is timed under the name its caller looks up (`channel` calls
`segments_blocked` through its own import, `sm` does the same with
`qfunc`). A function the program no longer has is skipped, its metrics
read 0, and the report names it under `missing`.

A wrapper records the call's duration and its self time (the duration
minus the time of traced calls nested inside it). The self time of a
layer is the sum over the functions wrapped under that module's name;
the time spent importing `lifisim` is the layer `import`.
"""

import os
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, qualified name) of every traced function. The first group
#: carries the per-function metrics; the rest are wrapped only so that
#: their self time lands in their own layer instead of their caller's.
TRACED = [
    ("config", "load_scenario"),
    ("harness", "ChannelBuilder.__init__"),
    ("harness", "ChannelBuilder.realize"),
    ("harness", "write_csv"),
    ("orientation", "sample_static_orientation"),
    ("orientation", "orwp_generate"),
    ("geometry", "element_world_pose"),
    ("blockage", "place_blockers"),
    ("blockage", "segments_blocked"),
    ("channel", "los_gain_matrix"),
    ("channel", "nlos_gain"),
    ("channel", "RadiositySolver.__init__"),
    ("channel", "RadiositySolver.solve"),
    ("adaptive", "asm_select_downlink"),
    ("adaptive", "required_snr"),
    ("adaptive", "led_selection_uplink"),
    ("sm", "build_constellation"),
    ("sm", "union_bound_ber"),
    ("sm", "qfunc"),
    ("sm", "monte_carlo_ber"),
    ("rates", "lower_bound_l1"),
    ("rates", "lower_bound_l2"),
    ("rates", "mi_monte_carlo"),
] + [
    ("cli", "main"),
    ("harness", "run_cdf_map"),
    ("harness", "run_orwp_eval"),
    ("harness", "run_ber_sweep"),
    ("harness", "run_uplink_eval"),
    ("channel", "build_environment_mesh"),
    ("sm", "build_mimo_constellation"),
    ("sm", "received_snr"),
    ("sm", "_bound_tables"),
    ("sm", "_bound_from_tables"),
    ("rates", "rate_bounds"),
]

#: The entry points. Their self time is whatever the functions above do
#: not cover, so the run checks it stays small instead of counting it.
ROOTS = ["cli.main", "harness.run_cdf_map", "harness.run_orwp_eval",
         "harness.run_ber_sweep", "harness.run_uplink_eval"]

LAYERS = ["import", "config", "cli", "harness", "orientation", "geometry",
          "blockage", "channel", "adaptive", "sm", "rates"]


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Durations and counters of the traced calls of one process."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._child_s = []            # traced time nested in each open span
        self._open = defaultdict(int)  # open spans per name
        self.missing = []

    def install(self):
        """Wrap every function of TRACED present in the imported lifisim."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lifisim"
                                         or n.startswith("lifisim."))]
        for module, qualname in TRACED:
            mod = sys.modules.get("lifisim." + module)
            if mod is None:
                continue
            owner = mod
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            wrapper = self._wrap(f"{module}.{qualname}", fn)
            if path:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        durations = self.durations[name]
        child_s = self._child_s
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans[name] += 1
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = child_s.pop()
                open_spans[name] -= 1
                if child_s:
                    child_s[-1] += dt
                durations.append(dt)
                self.self_s[name] += dt - nested
            if count is not None:
                count(self, args, kwargs, out)
            return out

        return traced

    def report(self, import_s):
        """Plain-JSON records: per function, per layer and counters.

        `covered_s` is the import time plus the self time of every traced
        function except ROOTS: the time the named layers account for.
        """
        layers = dict.fromkeys(LAYERS, 0.0)
        layers["import"] = import_s
        for name, value in self.self_s.items():
            layers[name.split(".", 1)[0]] += value
        covered = import_s + sum(v for k, v in self.self_s.items()
                                 if k not in ROOTS)
        return {"durations": dict(self.durations),
                "self_s": dict(self.self_s), "layers": layers,
                "covered_s": covered, "counts": dict(self.counts),
                "missing": self.missing}


def _count_segments(tr, args, kwargs, out):
    a = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "a"), dtype=float))
    blockers = _arg(args, kwargs, 2, "blockers")
    tr.counts["blockage.segment_tests"] += a.shape[0] * len(blockers)
    tr.counts["blockage.segments"] += a.shape[0]
    tr.counts["blockage.blocked"] += int(np.count_nonzero(out))


def _count_qfunc(tr, args, kwargs, out):
    tr.counts["sm.qfunc.elems"] += np.size(_arg(args, kwargs, 0, "x"))
    if tr._open["adaptive.required_snr"]:
        tr.counts["adaptive.search_evals"] += 1


def _count_search(tr, args, kwargs, out):
    tr.counts["adaptive.feasible"] += int(bool(out.feasible))


def _count_mc(tr, args, kwargs, out):
    tr.counts["sm.mc_symbols"] += _arg(args, kwargs, 3, "n_symbols")


def _count_mi(tr, args, kwargs, out):
    tr.counts["rates.mi_samples"] += _arg(args, kwargs, 3, "n_samples")


def _count_mesh(tr, args, kwargs, out):
    mesh = _arg(args, kwargs, 1, "mesh")
    tr.counts["channel.mesh_elements"] = max(
        tr.counts["channel.mesh_elements"], mesh.centers.shape[0])


def _count_csv(tr, args, kwargs, out):
    tr.counts["harness.csv_bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


_COUNTERS = {
    "blockage.segments_blocked": _count_segments,
    "sm.qfunc": _count_qfunc,
    "adaptive.required_snr": _count_search,
    "sm.monte_carlo_ber": _count_mc,
    "rates.mi_monte_carlo": _count_mi,
    "channel.RadiositySolver.__init__": _count_mesh,
    "harness.write_csv": _count_csv,
}
