"""Seeded experiment orchestration and file emission.

Every experiment maps one evaluator over an ordered task list of
realizations (idx, x, y, omega_deg, angles_deg), each turned into a
channel by ChannelBuilder.realize. _tasks builds the list from the
scenario's activity: sitting gives the lattice of positions x facing
directions x orientation draws, with the angles drawn in realize;
walking gives the ORWP trajectory samples. Four experiment kinds cover
the evaluation campaign:

* cdf map (sitting) and orwp run (walking): required SNR of the
  configured downlink scheme, one row per realization. Each worker's
  chunk of tasks goes in blocks of SEARCH_BLOCK: each task of a block
  is realized on its own, then the block's channels are searched in one
  batched call (adaptive.required_snrs or asm_select_downlink);
* ber sweep: one location, bound and Monte Carlo BER against received
  SNR, with fixed or random orientation;
* uplink eval: transmit-SNR sweep with source selection, rate bounds
  and energy efficiency averaged over the activity's realizations.

Determinism contract: realization i draws all its randomness from
SeedSequence([seed, 1, i]); Monte Carlo noise for realization i at
sweep point g from SeedSequence([seed, 2, i, g]); the sequential
trajectory stream is SeedSequence([seed, 0]). A channel's search result
does not depend on the block it is searched in. Results are therefore
bit-identical for any worker count: workers only partition the
realization list, and the merge preserves order. Each pool worker caps
its OpenBLAS pools at one thread; a one-worker run leaves them as they
are. A worker count outside 1..usable CPUs is a ConfigError (a
ValueError) before any pool starts.
"""

import csv
import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adaptive import (asm_select_downlink, led_selection_uplink,
                       required_snrs, strongest_columns)
from .blockage import SegmentSet, place_blockers, segments_blocked
from .channel import (ELEMENT_ORDER, RadiositySolver, build_environment_mesh,
                      los_gain_matrix, mesh_gains)
from .config import ConfigError, Scenario, scenario_hash
from .geometry import DevicePose, element_world_pose, grid_positions
from .orientation import orwp_generate, sample_static_orientation
from .rates import energy_efficiency, mi_monte_carlo, rate_bounds
from .sm import (UnionBound, build_constellation, build_mimo_constellation,
                 monte_carlo_ber, received_snr, union_bound_ber)
from .util import db_to_linear, linear_to_db, wilson_interval

CDF_COLUMNS = ["realization", "x", "y", "omega_deg", "alpha_deg", "beta_deg",
               "gamma_deg", "n_blockers", "n_active", "pam_order",
               "gamma_rx_db", "feasible"]
BER_COLUMNS = ["snr_db", "ber_bound", "ber_mc", "ci_low", "ci_high",
               "scheme", "N_a", "M"]
EE_COLUMNS = ["scheme", "config", "eta_rse", "eta_ee", "L1", "L2",
              "mi_mc", "stderr"]


@dataclass
class RunResult:
    """Tabular outcome of one experiment, ready for CSV emission."""

    kind: str
    columns: list
    rows: list
    scenario: Scenario
    meta: dict = field(default_factory=dict)

    def column(self, name):
        """One column as a float array (nan for non-numeric cells)."""
        out = []
        for row in self.rows:
            try:
                out.append(float(row[name]))
            except (TypeError, ValueError):
                out.append(np.nan)
        return np.asarray(out)


def facing_directions(n):
    """n equally spaced facing directions starting East, degrees."""
    return [360.0 * i / n for i in range(n)]


def empirical_cdf(values):
    """Right-continuous empirical CDF (x sorted, P(X <= x))."""
    x = np.sort(np.asarray(values, dtype=float))
    if x.size == 0:
        raise ValueError("need at least one value")
    return x, np.arange(1, x.size + 1) / x.size


class ChannelBuilder:
    """Per-scenario channel factory shared across realizations.

    The environment mesh, its reflection-system factorization, the
    unblocked AP-to-mesh gains and a SegmentSet over their lit links are
    built once here, since the APs and the mesh do not move. The
    blocked AP-to-mesh gains are kept for the last blocker list, which
    consecutive draws at one sitting spot share. Each downlink pose then
    costs the device-side LOS matrices, one segments_blocked call over
    all its lit AP-to-device and mesh-to-device links and one pair of
    triangular solves with one column per photodiode. Uplink channels
    keep only the LOS part.
    """

    def __init__(self, scenario):
        self.sc = scenario
        self.room = scenario.room()
        self.aps = scenario.aps()
        self.layout = scenario.layout()
        self.source = scenario.source()
        self.stats = scenario.stats()
        self.block_cfg = scenario.blockage()
        self.h_r = scenario.ue_height_m()
        self.solver = None
        self.ap_to_mesh = None
        if scenario.direction == "downlink" and scenario.include_nlos:
            mesh = build_environment_mesh(self.room,
                                          scenario.mesh_resolution)
            self.solver = RadiositySolver(mesh)
            self.ap_to_mesh = mesh_gains(self.aps.positions,
                                         self.aps.normals,
                                         self.source.order, mesh)
            self._lit = np.nonzero(self.ap_to_mesh > 0)
            self._ap_mesh = SegmentSet(self.aps.positions[self._lit[1]],
                                       mesh.centers[self._lit[0]])
            self._last = (None, None)     # blocker list, blocked gains

    def _blocked_ap_to_mesh(self, blockers):
        """AP-to-mesh gains with the links the blockers cut zeroed;
        remembered for the last blocker list."""
        if blockers != self._last[0]:
            hit = self._ap_mesh.blocked(blockers)
            t = self.ap_to_mesh.copy()
            t[self._lit[0][hit], self._lit[1][hit]] = 0.0
            t.flags.writeable = False
            self._last = (list(blockers), t)
        return self._last[1]

    def channel(self, pose, blockers):
        """(n_rx, n_tx) DC gain matrix of the pose among its blockers."""
        elem_pos, elem_nrm = element_world_pose(pose, self.layout)
        sc = self.sc
        if sc.direction == "downlink":
            tx_pos, tx_nrm = self.aps.positions, self.aps.normals
            rx_pos, rx_nrm = elem_pos, elem_nrm
        else:
            tx_pos, tx_nrm = elem_pos, elem_nrm
            rx_pos, rx_nrm = self.aps.positions, self.aps.normals
        H = los_gain_matrix(tx_pos, tx_nrm, rx_pos, rx_nrm,
                            self.source.order, sc.pd_area, sc.fov_deg)
        if self.solver is None:
            if blockers:
                _zero_blocked(blockers, (H, tx_pos, rx_pos))
            return H
        mesh = self.solver.mesh
        r = los_gain_matrix(mesh.centers, mesh.normals, rx_pos, rx_nrm,
                            ELEMENT_ORDER, sc.pd_area, sc.fov_deg)
        t = self.ap_to_mesh
        if blockers:
            _zero_blocked(blockers, (H, tx_pos, rx_pos),
                          (r, mesh.centers, rx_pos))
            t = self._blocked_ap_to_mesh(blockers)
        return H + self.solver.gains(t, r.T)

    def realize(self, idx, x, y, omega_deg, angles_deg=None):
        """Orientation, blockers and channel for realization idx."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.sc.seed, 1, idx]))
        if angles_deg is None:
            angles_deg = sample_static_orientation(self.stats, omega_deg, rng)
        pose = DevicePose(position=(x, y, self.h_r), omega_deg=omega_deg,
                          angles_deg=tuple(angles_deg))
        blockers = place_blockers(self.block_cfg, self.room, pose, rng)
        return pose, blockers, self.channel(pose, blockers)


def _zero_blocked(blockers, *links):
    """Zero in place the lit gains whose segment a blocker cuts.

    Each link group is (gain, tx, rx): an (n_rx, n_tx) gain matrix and
    the positions of its transmitters and receivers. The lit links of
    every group go through one segments_blocked call.
    """
    lit = [np.nonzero(gain > 0) for gain, _, _ in links]
    a = np.concatenate([tx[j] for (_, tx, _), (_, j) in zip(links, lit)])
    b = np.concatenate([rx[i] for (_, _, rx), (i, _) in zip(links, lit)])
    hit = segments_blocked(a, b, blockers)
    start = 0
    for (gain, _, _), (i, j) in zip(links, lit):
        cut = hit[start:start + i.size]
        gain[i[cut], j[cut]] = 0.0
        start += i.size


# -- per-realization evaluation ---------------------------------------------

def _fixed_signal_set(sc):
    """(M, constellation) of the fixed scheme: sm, or mimo streams.

    Both send 2**R symbols on sc.n_active sources: sm splits R into
    log2(n_active) spatial bits and M-PAM, mimo into n_active
    parallel M-PAM streams. Raises ConfigError when the APs are fewer
    than n_active or the sm set has no PAM bit left: the scenario checks
    the latter for the sm scheme only, and ber-sweep sends the sm set
    for asm too.
    """
    R = int(sc.spectral_efficiency)
    if sc.n_active > sc.n_ap_side ** 2:
        raise ConfigError(f"n_active {sc.n_active} exceeds the "
                          f"{sc.n_ap_side ** 2} access points")
    if sc.scheme == "mimo":
        M = 2 ** (R // sc.n_active)
        return M, build_mimo_constellation(M, sc.n_active)
    if R - np.log2(sc.n_active) < 1:
        raise ConfigError("the sm signal set needs spectral_efficiency "
                          "- log2(n_active) >= 1")
    M = 2 ** (R - int(np.log2(sc.n_active)))
    return M, build_constellation(M, sc.n_active)


#: Realizations whose required SNRs are searched together: large enough
#: that the search's per-step cost is shared, small enough that its
#: tables stay a few hundred KiB.
SEARCH_BLOCK = 64


def _downlink_rows(builder, tasks):
    """CSV rows of realizations at the scheme's operating point, searched
    in blocks of SEARCH_BLOCK."""
    rows = []
    for i in range(0, len(tasks), SEARCH_BLOCK):
        rows += _downlink_block(builder, tasks[i:i + SEARCH_BLOCK])
    return rows


def _downlink_block(builder, block):
    """CSV rows of a block of realizations at the scheme's operating point.

    Each task is realized on its own; the block's channels then go
    through one batched search, whose per-channel results do not depend
    on the block.
    """
    sc = builder.sc
    realized = [builder.realize(*task) for task in block]
    Hs = np.stack([H for _, _, H in realized])
    if sc.scheme == "asm":
        picks = [(d.feasible, d.n_active, d.M, d.gamma_rx_db)
                 for d in asm_select_downlink(Hs, sc.target_ber,
                                              int(sc.spectral_efficiency))]
    else:
        M, c = _fixed_signal_set(sc)
        cols = strongest_columns(Hs, sc.n_active)
        picks = [(r.feasible, sc.n_active, M, r.gamma_rx_db)
                 for r in required_snrs(
                     c, np.take_along_axis(Hs, cols[:, None, :], axis=2),
                     sc.target_ber)]
    rows = []
    for (idx, x, y, omega, _), (pose, blockers, _), pick in zip(
            block, realized, picks):
        feasible, n_a, M, grx_db = pick
        a, b, g = pose.angles_deg
        rows.append({
            "realization": idx, "x": x, "y": y, "omega_deg": omega,
            "alpha_deg": a, "beta_deg": b, "gamma_deg": g,
            "n_blockers": len(blockers), "n_active": n_a, "pam_order": M,
            "gamma_rx_db": grx_db if feasible else np.inf,
            "feasible": int(feasible),
        })
    return rows


def _sweep_channel(builder, task):
    """Realized channel restricted to its n_active strongest columns."""
    H = builder.realize(*task)[2]
    return H[:, strongest_columns(H, builder.sc.n_active)]


#: Per-SNR-point fields of one uplink realization, in column order;
#: n_active comes first, NaN there marks outage.
_UPLINK_FIELDS = ("n_active", "gamma_rx_db", "ber", "rate", "ee", "l1", "l2",
                  "mi", "mi_se")


def _uplink_record(builder, task):
    """(n_snr, len(_UPLINK_FIELDS)) array across the transmit-SNR grid.

    Rows of sweep points in outage (selection failure or no received
    power) are all NaN; mi and mi_se stay NaN when mi_samples is 0.
    Transmit power is normalized to I = 1, so gamma_tx = 1/sigma^2 and
    the absolute symbol energy enters only the efficiency denominator.
    """
    idx, x, y, omega, angles = task
    sc = builder.sc
    _, _, H = builder.realize(idx, x, y, omega, angles)
    M = sc.uplink_pam_order()
    grid = sc.uplink_snr_grid_db()
    out = np.full((grid.size, len(_UPLINK_FIELDS)), np.nan)
    for g, gtx_db in enumerate(grid):
        gtx = db_to_linear(gtx_db)
        if sc.scheme == "asm":
            sel = led_selection_uplink(H, M, gtx, sc.target_ber)
            if sel.failed:
                continue
            active = list(sel.active_set)
        else:
            active = list(range(H.shape[1]))
        H_sub = H[:, active]
        n_a = len(active)
        c = build_constellation(M, n_a)
        grx = received_snr(H_sub, n_a, gtx)
        if grx <= 0:
            continue
        sigma2 = 1.0 / gtx
        bounds = rate_bounds(c, H_sub, sigma2)
        mi = se = np.nan
        if sc.mi_samples > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence([sc.seed, 2, idx, g]))
            mi, se = mi_monte_carlo(c, H_sub, sigma2, sc.mi_samples, rng)
        ee = energy_efficiency(bounds.rate, sc.noise_power * gtx,
                               sc.symbol_rate)
        out[g] = (n_a, linear_to_db(grx), union_bound_ber(c, H_sub, gtx),
                  bounds.rate, ee, bounds.l1, bounds.l2, mi, se)
    return out


# -- parallel dispatch ----------------------------------------------------

_BUILDER = None

#: Thread-count setters of the OpenBLAS builds numpy and scipy ship
#: (64-bit and 32-bit integer interfaces) and of a plain OpenBLAS.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "openblas_set_num_threads")


def _loaded_blas():
    """ctypes handles of the OpenBLAS libraries mapped into this process;
    none where /proc/self/maps cannot be read."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in fields[5]:
                    paths.add(fields[5].strip())
    except OSError:
        return []
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libs


def _single_blas_thread():
    """Cap each loaded OpenBLAS pool at one thread, where it exports a
    setter; a library without one is left as it is."""
    for lib in _loaded_blas():
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def _worker_init(scenario):
    """Pool worker set-up: the channel builder, then one BLAS thread.

    Each forked worker inherits the parent's BLAS pools, so two workers
    would run four BLAS threads on two cores, and the small per-pose
    solves would thrash. The builder comes first because OpenBLAS's LU
    factorization rounds differently with another thread count, and no
    row may depend on the worker count; the per-pose triangular solves
    and products give the same bits with one thread.
    """
    global _BUILDER
    _BUILDER = ChannelBuilder(scenario)
    _single_blas_thread()


def _map_chunk(fn, builder, tasks, batched):
    if batched:
        return fn(builder, tasks)
    return [fn(builder, t) for t in tasks]


def _worker_chunk(payload):
    fn, tasks, batched = payload
    return _map_chunk(fn, _BUILDER, tasks, batched)


def check_workers(workers, option="workers"):
    """Reject a worker count the pool should never be asked to start.

    Raises ConfigError (a ValueError) unless 1 <= workers <= the CPUs
    this process may run on; option names the count in the message.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ConfigError(f"{option} must lie in 1..{cpus} (usable CPUs), "
                          f"got {workers}")


def _run_tasks(scenario, fn, tasks, workers, batched=False):
    """Map fn over tasks, preserving order; workers > 1 forks a pool.

    batched: fn takes the builder and a list of tasks, a worker's chunk
    or all of them, and returns their results in order.
    """
    check_workers(workers)
    if workers == 1 or len(tasks) < 2:
        return _map_chunk(fn, ChannelBuilder(scenario), tasks, batched)
    n_chunks = min(len(tasks), workers * 4)
    chunks = [list(c) for c in np.array_split(np.arange(len(tasks)), n_chunks)]
    payloads = [(fn, [tasks[i] for i in c], batched) for c in chunks if c]
    results = []
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                             initargs=(scenario,)) as pool:
        for part in pool.map(_worker_chunk, payloads):
            results.extend(part)
    return results


# -- experiment runners ---------------------------------------------------

def _tasks(sc):
    """(idx, x, y, omega_deg, angles_deg) of every realization.

    Sitting: the lattice of positions x facing directions x draws, with
    angles None so that realize draws them. Walking: the ORWP
    trajectory samples, drawn from the sequential stream.
    """
    if sc.activity == "sitting":
        spots = [(x, y, omega, None)
                 for x, y in grid_positions(sc.room_width, sc.room_depth,
                                            sc.grid_step)
                 for omega in facing_directions(sc.n_directions)
                 for _ in range(sc.orientations_per_point)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence([sc.seed, 0]))
        spots = [(s.position[0], s.position[1], s.omega_deg, s.angles_deg)
                 for s in orwp_generate(sc.orwp(), sc.stats(), rng)]
    return [(i, *spot) for i, spot in enumerate(spots)]


def _downlink_survey(sc, workers, command, activity, kind):
    """Required-SNR row per realization of the activity's task list."""
    if sc.direction != "downlink":
        raise ConfigError(f"{command} evaluates the downlink")
    if sc.activity != activity:
        raise ConfigError(f"{command} uses the {activity} statistics")
    if sc.scheme != "asm":
        _fixed_signal_set(sc)             # fail before any realization
    rows = _run_tasks(sc, _downlink_rows, _tasks(sc), workers, batched=True)
    outage = float(np.mean([r["feasible"] == 0 for r in rows]))
    return RunResult(kind=kind, columns=CDF_COLUMNS, rows=rows,
                     scenario=sc, meta={"outage_fraction": outage})


def run_cdf_map(scenario, workers=1):
    """Required-SNR survey over the sitting lattice (downlink)."""
    return _downlink_survey(scenario, workers, "cdf-map", "sitting", "cdf")


def run_orwp_eval(scenario, workers=1):
    """Required-SNR survey along a mobility trajectory (downlink)."""
    return _downlink_survey(scenario, workers, "orwp-run", "walking", "orwp")


def run_ber_sweep(scenario, workers=1):
    """Bound and Monte Carlo BER against received SNR at one spot.

    The sweep grid is the target received SNR; every orientation draw
    is driven to that operating point through its own transmit SNR.
    Draws whose channel cannot carry any power (all entries blocked or
    out of view) count as coin-flip bit errors, which is what creates
    the high-SNR floors of LOS-only configurations. The asm scheme is
    swept with the sm signal set of n_active sources. Each draw's union
    bound is built once and evaluated at every sweep point.
    """
    sc = scenario
    if sc.direction != "downlink":
        raise ConfigError("ber-sweep evaluates the downlink")
    M, constellation = _fixed_signal_set(sc)
    x, y = sc.location_xy()
    omega = sc.omega()
    fixed = sc.orientation == "fixed"
    n_draws = 1 if fixed else sc.orientations_per_point
    angles = sc.stats().means(omega) if fixed else None
    tasks = [(i, x, y, omega, angles) for i in range(n_draws)]
    subsets = _run_tasks(sc, _sweep_channel, tasks, workers)
    n_cols = sc.n_active
    factors = [received_snr(H_sub, n_cols, 1.0) for H_sub in subsets]
    unions = [UnionBound(constellation, H_sub) for H_sub in subsets]
    bits_ps = constellation.bits_per_symbol
    mc_per_draw = sc.mc_symbols if fixed else max(
        1000, sc.mc_symbols // n_draws)

    rows = []
    for g, grx_db in enumerate(sc.snr_grid_db()):
        grx = db_to_linear(grx_db)
        bounds = []
        err_bits = 0.0
        total_bits = 0
        for i, H_sub in enumerate(subsets):
            if factors[i] <= 0.0:
                bounds.append(0.5)
                if sc.mc_symbols > 0:
                    err_bits += 0.5 * mc_per_draw * bits_ps
                    total_bits += mc_per_draw * bits_ps
                continue
            gtx = grx / factors[i]
            bounds.append(unions[i](gtx))
            if sc.mc_symbols > 0:
                rng = np.random.default_rng(
                    np.random.SeedSequence([sc.seed, 2, i, g]))
                ber, _ = monte_carlo_ber(constellation, H_sub, gtx,
                                         mc_per_draw, rng)
                err_bits += ber * mc_per_draw * bits_ps
                total_bits += mc_per_draw * bits_ps
        if total_bits:
            ber_mc = err_bits / total_bits
            ci_low, ci_high = wilson_interval(err_bits, total_bits)
        else:
            ber_mc, ci_low, ci_high = np.nan, np.nan, np.nan
        rows.append({
            "snr_db": float(grx_db), "ber_bound": float(np.mean(bounds)),
            "ber_mc": ber_mc, "ci_low": ci_low, "ci_high": ci_high,
            "scheme": sc.scheme, "N_a": n_cols, "M": M,
        })
    return RunResult(kind="ber", columns=BER_COLUMNS, rows=rows, scenario=sc)


def run_uplink_eval(scenario, workers=1):
    """Transmit-SNR sweep of the uplink: BER curve plus EE curve.

    Returns (ber_result, ee_result). Realizations follow the activity:
    a sitting lattice like the CDF map, or mobility samples when
    walking. Averages skip the realizations in outage at each sweep
    point; their fraction is reported per sweep point in meta["outage"].
    """
    sc = scenario
    if sc.direction != "uplink":
        raise ConfigError("uplink-ee evaluates the uplink")
    if sc.scheme not in ("sm", "asm"):
        raise ConfigError("uplink supports the sm and asm schemes")
    stack = np.stack(_run_tasks(sc, _uplink_record, _tasks(sc), workers))
    M = sc.uplink_pam_order()
    ber_rows, ee_rows, outage_list = [], [], []
    for g, gtx_db in enumerate(sc.uplink_snr_grid_db()):
        ok = ~np.isnan(stack[:, g, 0])          # n_active: NaN in outage
        outage_list.append(1.0 - float(np.mean(ok)))
        cols = dict(zip(_UPLINK_FIELDS, stack[ok, g].T))
        avg = {k: float(np.mean(v)) if ok.any() else np.nan
               for k, v in cols.items()}
        ber_rows.append({
            "snr_db": avg["gamma_rx_db"], "ber_bound": avg["ber"],
            "ber_mc": np.nan, "ci_low": np.nan, "ci_high": np.nan,
            "scheme": sc.scheme, "N_a": avg["n_active"], "M": M,
        })
        mi, se = np.nan, np.nan
        if sc.mi_samples > 0 and ok.any():
            mi = avg["mi"]
            se = float(np.sqrt(np.mean(cols["mi_se"] ** 2) / np.sum(ok)))
        ee_rows.append({
            "scheme": sc.scheme, "config": f"gamma_tx_db={gtx_db:g}",
            "eta_rse": avg["rate"], "eta_ee": avg["ee"],
            "L1": avg["l1"], "L2": avg["l2"], "mi_mc": mi, "stderr": se,
        })
    meta = {"outage": outage_list}
    ber = RunResult(kind="uplink_ber", columns=BER_COLUMNS, rows=ber_rows,
                    scenario=sc, meta=meta)
    ee = RunResult(kind="uplink_ee", columns=EE_COLUMNS, rows=ee_rows,
                   scenario=sc, meta=meta)
    return ber, ee


# -- emission --------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return value


def write_csv(path, result):
    """CSV with reproducibility header comments, then the table."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# scenario_hash: {scenario_hash(result.scenario)}\n")
        fh.write(f"# seed: {result.scenario.seed}\n")
        for key, value in sorted(result.meta.items()):
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_fmt(row[c]) for c in result.columns])
    return path


def read_csv(path):
    """Inverse of write_csv: (header dict, columns, rows with floats)."""
    meta = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            body.append(line)
    rows = list(csv.reader(body))
    columns, data = rows[0], rows[1:]
    parsed = []
    for raw in data:
        row = {}
        for name, cell in zip(columns, raw):
            try:
                row[name] = float(cell)
            except ValueError:
                row[name] = cell
        parsed.append(row)
    return meta, columns, parsed


_SVG_W, _SVG_H = 500, 400
_SVG_BOX = (75, 20, 480, 340)          # plot area: left, top, right, bottom
_SVG_COLORS = ("#1f77b4", "#ff7f0e")


def _chart(result):
    """(series, x label, y label, log y) of the result's figure.

    Each series is (legend label, x, y, style) with style "line",
    "markers" or "both"; points may still be non-finite.
    """
    if result.kind in ("ber", "uplink_ber"):
        x = result.column("snr_db")
        series = [("union bound", x,
                   np.minimum(result.column("ber_bound"), 1.0), "line")]
        mc = result.column("ber_mc")
        if np.isfinite(mc).any():
            series.append(("Monte Carlo", x, mc, "markers"))
        return series, "received SNR (dB)", "BER", True
    if result.kind in ("cdf", "orwp"):
        vals = result.column("gamma_rx_db")
        finite = vals[np.isfinite(vals)]
        series = [("", *empirical_cdf(finite), "line")] if finite.size else []
        return series, "required received SNR (dB)", "CDF", False
    return ([("", result.column("eta_rse"), result.column("eta_ee"), "both")],
            "achievable rate (bits/channel use)",
            "energy efficiency (bits/J)", True)


def _axis(values, log):
    """(lo, hi, [(tick, label)]) spanning values; log values are exponents."""
    if log:
        lo = math.floor(values.min()) if values.size else 0
        hi = math.ceil(values.max()) if values.size else 1
        hi = max(hi, lo + 1)
        stride = -(-(hi - lo) // 8)
        return lo, hi, [(e, f"1e{e}") for e in range(lo, hi + 1, stride)]
    lo, hi = (values.min(), values.max()) if values.size else (0.0, 1.0)
    if hi - lo < 1e-12 * max(1.0, abs(lo)):
        lo, hi = lo - 0.5, hi + 0.5
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1, 2, 5, 10) if m * mag >= raw)
    n_lo, n_hi = math.floor(lo / step), math.ceil(hi / step)
    ticks = [(k * step, f"{k * step:.6g}") for k in range(n_lo, n_hi + 1)]
    return n_lo * step, n_hi * step, ticks


def _runs(ok):
    """Index arrays of the maximal runs of True in ok."""
    idx = np.flatnonzero(ok)
    if not idx.size:
        return []
    return np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)


def _marker(x, y, color):
    return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>'


def _plot(result, path):
    """Write the result's chart as a standalone SVG file; returns path.

    BER results: union bound (capped at 1) on a log axis against SNR,
    Monte Carlo markers where finite. CDF results: empirical CDF of the
    finite required SNRs. EE results: energy efficiency on a log axis
    against rate. Non-finite points, and points <= 0 on a log axis, are
    left out; a result with nothing to draw gives empty axes.
    """
    series, x_label, y_label, y_log = _chart(result)
    drawn = []
    for label, x, y, style in series:
        if y_log:
            with np.errstate(divide="ignore", invalid="ignore"):
                y = np.log10(y)
        drawn.append((label, x, y, np.isfinite(x) & np.isfinite(y), style))
    xs = np.concatenate([x[ok] for _, x, _, ok, _ in drawn] + [np.empty(0)])
    ys = np.concatenate([y[ok] for _, _, y, ok, _ in drawn] + [np.empty(0)])
    x_lo, x_hi, x_ticks = _axis(xs, log=False)
    y_lo, y_hi, y_ticks = _axis(ys, log=y_log)
    left, top, right, bottom = _SVG_BOX

    def px(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def py(v):
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
           f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}" '
           'font-family="sans-serif" font-size="11">',
           f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" '
           'fill="white"/>']
    for t, text in x_ticks:
        x = px(t)
        out.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                   f'y2="{bottom}" stroke="#ddd"/>')
        out.append(f'<text x="{x:.1f}" y="{bottom + 15}" '
                   f'text-anchor="middle">{text}</text>')
    for t, text in y_ticks:
        y = py(t)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{right}" '
                   f'y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{left - 5}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{text}</text>')
    out.append(f'<rect x="{left}" y="{top}" width="{right - left}" '
               f'height="{bottom - top}" fill="none" stroke="black"/>')
    out.append(f'<text x="{(left + right) / 2:.1f}" y="{bottom + 38}" '
               f'text-anchor="middle">{x_label}</text>')
    out.append(f'<text transform="translate(15,{(top + bottom) / 2:.1f}) '
               f'rotate(-90)" text-anchor="middle">{y_label}</text>')
    for (label, x, y, ok, style), color in zip(drawn, _SVG_COLORS):
        if style != "markers":
            for run in _runs(ok):
                pts = " ".join(f"{px(x[i]):.1f},{py(y[i]):.1f}" for i in run)
                out.append(f'<polyline points="{pts}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
        if style != "line":
            out.extend(_marker(px(x[i]), py(y[i]), color)
                       for i in np.flatnonzero(ok))
    if len(drawn) > 1:
        out.append(f'<rect x="{right - 136}" y="{top + 5}" width="130" '
                   f'height="{16 * len(drawn) + 4}" fill="white" '
                   'stroke="#999"/>')
        for row, (label, _, _, _, style) in enumerate(drawn):
            color = _SVG_COLORS[row]
            y = top + 15 + 16 * row
            if style != "markers":
                out.append(f'<line x1="{right - 130}" y1="{y}" '
                           f'x2="{right - 110}" y2="{y}" stroke="{color}" '
                           'stroke-width="1.5"/>')
            if style != "line":
                out.append(_marker(right - 120, y, color))
            out.append(f'<text x="{right - 104}" y="{y + 4}">{label}</text>')
    out.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
    return path


def emit(result, out_dir, basename, plots=False):
    """Write the result CSV, and its SVG chart when plots is set.

    Returns the written paths: the CSV, then the SVG if any.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = [write_csv(os.path.join(out_dir, basename + ".csv"), result)]
    if plots:
        written.append(_plot(result, os.path.join(out_dir, basename + ".svg")))
    return written
