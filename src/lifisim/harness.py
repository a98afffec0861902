"""Seeded experiment orchestration and file emission.

Every experiment runs one pipeline over an ordered task list of
realizations (idx, x, y, omega_deg, angles_deg). _tasks builds the list
from the scenario's activity: sitting gives the lattice of positions x
facing directions x orientation draws, with the angles drawn in
realize; walking gives the ORWP trajectory samples. _run_tasks builds
the run's one ChannelBuilder and cuts the list into blocks of
SEARCH_BLOCK tasks, or fewer where the list is too short to give every
worker one (a pool's workers get the block starts).
ChannelBuilder.channels realizes a block, once
per realization, and builds its channels together, sub-block by
sub-block; the blocked AP-to-mesh gains of each new blocker list are
made there, and the realizations that follow with the same list reuse
them. The runner's block function then turns the block into one array
entry per task, and the entries are joined in task order. Four
experiment kinds cover the evaluation campaign:

* cdf map (sitting) and orwp run (walking): required SNR of the
  configured downlink scheme, one record per realization. A block's
  channels are searched in one batched adaptive.asm_select_downlink
  call for every scheme: ASM chooses among asm_signal_sets, sm and mimo
  pass their one signal set;
* ber sweep: one location, bound and Monte Carlo BER against received
  SNR, with fixed or random orientation; each draw gives its bounds and
  error bits over the grid, one union_bound_ber and one monte_carlo_ber
  call each, reduced to one record per grid point;
* uplink eval: transmit-SNR sweep with source selection, rate bounds
  and energy efficiency. A block's realizations are evaluated over the
  grid together: one LED selection call, then, per active-set size, one
  union_bound_ber, rate_bounds and mi_monte_carlo call with one channel
  per point (_uplink_block), or several where the set is so large that
  one call would pass sm.BOUND_TERMS table terms; the records are
  averaged to one per grid point.

A RunResult holds its table as one NumPy structured array whose field
names are the CSV columns (CDF_DTYPE, BER_DTYPE or EE_DTYPE).

Determinism contract: realization i draws all its randomness from
SeedSequence([seed, 1, i]); Monte Carlo noise for realization i at
sweep point g from SeedSequence([seed, 2, i, g]); the sequential
trajectory stream is SeedSequence([seed, 0]). A channel does not depend
on the block it is built in, nor its search result, sweep or uplink
record on the block it is evaluated in. Results are therefore
bit-identical for any worker count and any block size: every count runs
its blocks with the one ChannelBuilder that the calling process built
(its reflection factors among them), and the parts are joined in
order. Each pool worker caps its OpenBLAS pools at one
thread and runs its Monte Carlo points one after another; a one-worker
run leaves the BLAS pools as they are and runs the SNR points of each
monte_carlo_ber and mi_monte_carlo call on util.map_points' threads,
one per usable CPU. A point thread draws one point from that point's
own Generator into its own buffers and only reads the call's shared
tables, while the error rates, intervals and records are formed on the
calling thread, so the counts, and so the rows, do not depend on the
thread count either. Every run first fixes glibc's heap thresholds and
its arena count for the process, so block speed does not depend on what
the set-up freed. A worker count outside 1..usable CPUs is a
ConfigError (a ValueError) before anything is built, the task list
included.
"""

import csv
import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adaptive import (asm_select_downlink, asm_signal_sets,
                       led_selection_uplink, strongest_columns)
from .blockage import SegmentSet, place_blockers, segments_blocked
from .channel import (ELEMENT_ORDER, RadiositySolver, build_environment_mesh,
                      lambertian_order, los_gain_matrix, mesh_gains)
from .config import ConfigError, Scenario, scenario_hash
from .geometry import (LATTICE_MARGIN, DevicePose, ap_positions,
                       element_world_pose, grid_positions)
from .orientation import orwp_generate, sample_static_orientation
from .rates import energy_efficiency, mi_monte_carlo, rate_bounds
from .sm import (BOUND_TERMS, build_constellation, build_mimo_constellation,
                 monte_carlo_ber, received_snr, union_bound_ber)
from .util import (db_to_linear, linear_to_db, set_point_threads, usable_cpus,
                   wilson_interval)

#: Record types of the three tables: required SNR per realization, BER
#: per SNR point, energy efficiency per SNR point. Their field names are
#: the CSV columns, in order.
CDF_DTYPE = np.dtype([
    ("realization", np.int64), ("x", float), ("y", float),
    ("omega_deg", float), ("alpha_deg", float), ("beta_deg", float),
    ("gamma_deg", float), ("n_blockers", np.int64), ("n_active", np.int64),
    ("pam_order", np.int64), ("gamma_rx_db", float), ("feasible", np.int64)])
BER_DTYPE = np.dtype([
    ("snr_db", float), ("ber_bound", float), ("ber_mc", float),
    ("ci_low", float), ("ci_high", float), ("scheme", "U8"), ("N_a", float),
    ("M", np.int64)])
EE_DTYPE = np.dtype([
    ("scheme", "U8"), ("config", "U32"), ("eta_rse", float),
    ("eta_ee", float), ("L1", float), ("L2", float), ("mi_mc", float),
    ("stderr", float)])
CDF_COLUMNS, BER_COLUMNS, EE_COLUMNS = (
    list(t.names) for t in (CDF_DTYPE, BER_DTYPE, EE_DTYPE))


@dataclass
class RunResult:
    """Tabular outcome of one experiment, ready for CSV emission.

    data is a NumPy structured array, one record per CSV row, whose
    field names are the columns. rows is a view of it for callers that
    want one dict per row: it is built from data on each access, with
    Python ints for the integer fields and floats or str for the others.
    """

    kind: str
    data: np.ndarray
    scenario: Scenario
    meta: dict = field(default_factory=dict)

    @property
    def columns(self):
        return list(self.data.dtype.names)

    @property
    def rows(self):
        names = self.data.dtype.names
        return tuple(dict(zip(names, r)) for r in self.data.tolist())

    def column(self, name):
        """One column as a float array (NaN for a text column)."""
        values = self.data[name]
        if values.dtype.kind == "U":
            return np.full(values.shape, np.nan)
        return values.astype(float)


def facing_directions(n):
    """n equally spaced facing directions starting East, degrees."""
    return [360.0 * i / n for i in range(n)]


def empirical_cdf(values):
    """Right-continuous empirical CDF (x sorted, P(X <= x))."""
    x = np.sort(np.asarray(values, dtype=float))
    if x.size == 0:
        raise ValueError("need at least one value")
    return x, np.arange(1, x.size + 1) / x.size


#: Photodiode x mesh-element pairs of one channel sub-block: 16 poses of
#: a four-photodiode device on the 440-element 0.5 m mesh. It bounds the
#: LOS and right-hand-side arrays a sub-block holds at once.
SUB_BLOCK_PAIRS = 16 * 4 * 440


class ChannelBuilder:
    """Per-scenario channel factory shared across realizations.

    The environment mesh, its reflection-system factorization, the
    unblocked AP-to-mesh gains and a SegmentSet over their lit links are
    built once here, since the APs and the mesh do not move. realize
    draws one realization's pose and blockers; channels builds the
    channels of a block of them sub_block poses at a time, with one LOS
    call per link kind, one segments_blocked call over all the lit
    device links (each among its own realization's prisms), one
    segments_blocked call through the SegmentSet's fan index that makes
    the blocked AP-to-mesh gains of the sub-block's blocker lists, and
    one adjoint solve with a column per photodiode of every pose. A
    blocker list equal to the one before it, as at consecutive draws at
    one sitting spot, is not tested again: it reuses those gains, which
    are kept for the last list across sub-blocks. Uplink channels keep
    only the LOS part.
    """

    def __init__(self, scenario):
        self.sc = scenario
        self.aps = ap_positions(scenario)
        self.layout = scenario.layout()
        self.order = lambertian_order(scenario.semiangle_deg)
        self.stats = scenario.stats()
        self.h_r = scenario.ue_height_m()
        self.solver = None
        self.ap_to_mesh = None
        cells = len(self.aps.positions)
        if scenario.direction == "downlink" and scenario.include_nlos:
            mesh = build_environment_mesh(scenario)
            self.solver = RadiositySolver(mesh)
            self.ap_to_mesh = mesh_gains(self.aps.positions,
                                         self.aps.normals,
                                         self.order, mesh)
            self._lit = np.nonzero(self.ap_to_mesh > 0)
            self._ap_mesh = SegmentSet(self.aps.positions[self._lit[1]],
                                       mesh.centers[self._lit[0]])
            self._last = (None, None)     # blocker list, blocked gains
            cells = mesh.n_elements
        pairs = len(self.layout.local_positions) * cells
        self.sub_block = max(1, SUB_BLOCK_PAIRS // pairs)

    def realize(self, idx, x, y, omega_deg, angles_deg=None):
        """Pose and blockers of realization idx.

        All of its randomness comes from SeedSequence([seed, 1, idx]).
        """
        rng = np.random.default_rng(
            np.random.SeedSequence([self.sc.seed, 1, idx]))
        if angles_deg is None:
            angles_deg = sample_static_orientation(self.stats, omega_deg, rng)
        pose = DevicePose(position=(x, y, self.h_r), omega_deg=omega_deg,
                          angles_deg=tuple(angles_deg))
        return pose, place_blockers(self.sc, pose, rng)

    def channels(self, tasks):
        """Realize a nonempty block of tasks, once each and in order.

        Returns ([(pose, blockers)], H): H is the (B, n_rx, n_tx) stack of
        DC gain matrices, each bit-identical to the one-pose computation
        of its realization whatever the block or sub-block.
        """
        realized, stacks = [], []
        for i in range(0, len(tasks), self.sub_block):
            part = [self.realize(*task)
                    for task in tasks[i:i + self.sub_block]]
            stacks.append(self._stack(part))
            realized += part
        return realized, np.concatenate(stacks)

    def _ap_to_mesh(self, lists):
        """Blocked AP-to-mesh gains of each of a sub-block's blocker lists.

        A list equal to the one before it (across sub-blocks too) shares
        that list's read-only matrix; the others are tested in one
        segments_blocked call through the fan index of the lit links. An
        empty list gets the unblocked gains.
        """
        tested, slot = [], []
        prev = self._last[0]
        for blockers in lists:
            if blockers and blockers != prev:
                tested.append(blockers)
                prev = blockers
            slot.append(len(tested) if blockers else None)
        gains = [self._last[1]]
        if tested:
            seg = self._ap_mesh
            row, link = np.nonzero(segments_blocked(
                seg.a.T, seg.b.T, tested, segments=seg))
            t = np.repeat(self.ap_to_mesh[None], len(tested), axis=0)
            t[row, self._lit[0][link], self._lit[1][link]] = 0.0
            t.flags.writeable = False
            gains += list(t)
            self._last = (tested[-1], gains[-1])
        return [self.ap_to_mesh if k is None else gains[k] for k in slot]

    def _stack(self, part):
        """(B, n_rx, n_tx) channels of a list of (pose, blockers)."""
        sc = self.sc
        n = len(part)
        elems = [element_world_pose(pose, self.layout) for pose, _ in part]
        pos = np.concatenate([p for p, _ in elems])       # (n * n_el, 3)
        nrm = np.concatenate([q for _, q in elems])
        aps = self.aps.positions
        n_ap = len(aps)
        dev = pos.reshape(n, -1, 3)
        order = self.order
        # Each link kind is (gains, tx, rx): an (n, n_rx, n_tx) stack and
        # the (n, n_tx, 3) and (n, n_rx, 3) positions of its ends.
        if sc.direction == "downlink":
            H = los_gain_matrix(aps, self.aps.normals, pos, nrm, order,
                                sc.pd_area, sc.fov_deg).reshape(n, -1, n_ap)
            links = [(H, np.broadcast_to(aps, (n, n_ap, 3)), dev)]
        else:
            H = los_gain_matrix(pos, nrm, aps, self.aps.normals, order,
                                sc.pd_area, sc.fov_deg)
            H = np.ascontiguousarray(H.reshape(n_ap, n, -1).swapaxes(0, 1))
            links = [(H, dev, np.broadcast_to(aps, (n, n_ap, 3)))]
        if self.solver is not None:
            mesh = self.solver.mesh
            r = los_gain_matrix(mesh.centers, mesh.normals, pos, nrm,
                                ELEMENT_ORDER, sc.pd_area, sc.fov_deg)
            links.append((r.reshape(n, -1, mesh.n_elements),
                          np.broadcast_to(mesh.centers,
                                          (n, mesh.n_elements, 3)), dev))
        blockers = [b for _, b in part]
        if any(blockers):
            # every lit link of every pose in one test, zeroed where cut
            lit = [np.nonzero(gain > 0) for gain, _, _ in links]
            a = np.concatenate([tx[k, j]
                                for (_, tx, _), (k, _, j) in zip(links, lit)])
            b = np.concatenate([rx[k, i]
                                for (_, _, rx), (k, i, _) in zip(links, lit)])
            hit = segments_blocked(a, b, blockers,
                                   np.concatenate([k for k, _, _ in lit]))
            start = 0
            for (gain, _, _), (k, i, j) in zip(links, lit):
                cut = hit[start:start + k.size]
                gain[k[cut], i[cut], j[cut]] = 0.0
                start += k.size
        if self.solver is None:
            return H
        return H + self.solver.solve(self._ap_to_mesh(blockers), r)


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


def _downlink_sets(sc):
    """(signal sets, (n_active, pam_order) of an infeasible row) of the
    downlink scheme: ASM's sets and (0, 0), or the fixed scheme's one set
    and its own values."""
    if sc.scheme == "asm":
        return asm_signal_sets(int(sc.spectral_efficiency)), (0, 0)
    M, c = _fixed_signal_set(sc)
    return [c], (sc.n_active, M)


#: Realizations whose channels are built, and required SNRs searched,
#: together: large enough that the search's per-step cost is shared,
#: small enough that its tables stay a few hundred KiB.
SEARCH_BLOCK = 64


def _downlink_block(sc, block, realized, Hs):
    """CDF records of a block of realizations at the scheme's operating
    point, from one batched search whose per-channel results do not
    depend on the block."""
    sets, infeasible = _downlink_sets(sc)
    return np.array([
        (idx, x, y, omega, *pose.angles_deg, len(blockers),
         *((d.n_active, d.M) if d.feasible else infeasible),
         d.gamma_rx_db, d.feasible)
        for (idx, x, y, omega, _), (pose, blockers), d in zip(
            block, realized, asm_select_downlink(Hs, sc.target_ber, sets))],
        dtype=CDF_DTYPE)


def _sweep_block(sc, block, realized, Hs):
    """(B, 2, n_snr) bounds and error bits of each orientation draw over
    the SNR grid.

    The sweep grid is the target received SNR; a draw reaches each point
    through its own transmit SNR. A draw whose channel carries no power
    counts as coin-flip bit errors. Each draw's bound is evaluated over
    the grid in one union_bound_ber call, from one table, and its Monte
    Carlo BER in one monte_carlo_ber call, which builds the received
    symbols and the detection certificate once and draws point g from
    its own SeedSequence([seed, 2, i, g]). The error bits are
    ber * (symbols * bits per symbol) rounded to the nearest integer:
    the product lies within an ulp of the count, so rounding restores
    it exactly. They mean nothing when mc_symbols is 0.
    """
    _, c = _fixed_signal_set(sc)
    mc, bps = sc.sweep_symbols(), c.bits_per_symbol
    grid = sc.snr_grid_db()
    out = np.empty((len(block), 2, grid.size))
    for k, ((i, *_), H) in enumerate(zip(block, Hs)):
        H_sub = H[:, strongest_columns(H, sc.n_active)]
        factor = received_snr(H_sub, sc.n_active, 1.0)
        if not factor > 0.0:
            out[k] = [[0.5], [0.5 * mc * bps]]
            continue
        gtx = db_to_linear(grid) / factor
        out[k, 0] = union_bound_ber(c, H_sub, gtx)
        ber = 0.5
        if sc.mc_symbols > 0:
            rngs = [np.random.default_rng(np.random.SeedSequence(
                [sc.seed, 2, i, g])) for g in range(gtx.size)]
            ber, _ = monte_carlo_ber(c, H_sub, gtx, mc, rngs)
        out[k, 1] = np.rint(ber * (mc * bps))
    return out


#: Per-SNR-point fields of one uplink realization, in column order;
#: n_active comes first, NaN there marks outage.
_UPLINK_FIELDS = ("n_active", "gamma_rx_db", "ber", "rate", "ee", "l1", "l2",
                  "mi", "mi_se")


def _uplink_block(sc, block, realized, Hs):
    """(B, n_snr, len(_UPLINK_FIELDS)) array of a block of realizations,
    each over the transmit-SNR grid.

    The grid is converted once, one point at a time: numpy's vectorized
    power can round differently from its scalar one, which would change
    the rows. ASM selects the sources of every channel at every point in
    one led_selection_uplink call, and sm takes each channel's n_active
    strongest columns. The block's (realization, point) pairs are then
    grouped by the size of their active set, and each size goes through
    received_snr, union_bound_ber, rate_bounds and mi_monte_carlo once,
    with one channel per point: each distinct channel's tables are built
    once, and all of the size's MI points run in one util.map_points
    call. That pays where a block holds many calls on small sets, each
    cheap next to its per-call overhead; a large set gains little. The
    tables of a set of K symbols hold about K^2 terms per channel, so a
    call takes the points of at most max(1, BOUND_TERMS // K^2)
    realizations, each of which has one active set of a size, and a
    selection call at most max(1, BOUND_TERMS // (M^2 n_tx)) channels;
    lower_bound_l1 and union_bound_ber reduce their points in parts of
    about BOUND_TERMS terms. The tables a block holds at once thus stay
    within a few times BOUND_TERMS terms, or one channel's, whatever the
    alphabet size. Each point still draws its MI samples from its own
    SeedSequence([seed, 2, idx, g]) Generator, so a realization's rows
    do not depend on its block. Rows of sweep points in outage
    (selection failure or no received power) are all NaN; mi and mi_se
    stay NaN when mi_samples is 0. Transmit power is normalized to
    I = 1, so gamma_tx = 1/sigma^2 and the absolute symbol energy enters
    only the efficiency denominator.
    """
    M = sc.uplink_pam_order()
    gtx = np.array([db_to_linear(g) for g in sc.uplink_snr_grid_db()])
    out = np.full((len(block), gtx.size, len(_UPLINK_FIELDS)), np.nan)
    if sc.scheme == "asm":
        step = max(1, BOUND_TERMS // (M * M * Hs.shape[2]))
        sets = [s for lo in range(0, len(Hs), step)
                for s in led_selection_uplink(Hs[lo:lo + step], M, gtx,
                                              sc.target_ber)]
    else:
        sets = [[tuple(a)] * gtx.size
                for a in strongest_columns(Hs, sc.n_active)]
    by_size = {}                    # n_active -> realization -> points
    for b, row in enumerate(sets):
        for g, active in enumerate(row):
            if active:
                by_size.setdefault(len(active), {}).setdefault(
                    b, []).append((b, g, active))
    for n_a, runs in sorted(by_size.items()):
        runs = list(runs.values())
        step = max(1, BOUND_TERMS // (M * n_a) ** 2)
        for lo in range(0, len(runs), step):
            b, g, active = (np.array(v) for v in zip(
                *(m for run in runs[lo:lo + step] for m in run)))
            H = np.take_along_axis(Hs[b], active[:, None, :], axis=2)
            grx = received_snr(H, n_a, gtx[g])
            keep = ~(grx <= 0)
            if not keep.any():
                continue
            b, g, H, grx = b[keep], g[keep], H[keep], grx[keep]
            c = build_constellation(M, n_a)
            sigma2 = 1.0 / gtx[g]
            bounds = rate_bounds(c, H, sigma2)
            mi = se = np.nan
            if sc.mi_samples > 0:
                rngs = [np.random.default_rng(np.random.SeedSequence(
                    [sc.seed, 2, block[k][0], int(p)])) for k, p in zip(b, g)]
                mi, se = mi_monte_carlo(c, H, sigma2, sc.mi_samples, rngs)
            ee = energy_efficiency(bounds.rate, sc.noise_power * gtx[g],
                                   sc.symbol_rate)
            out[b, g] = np.stack(np.broadcast_arrays(
                n_a, linear_to_db(grx), union_bound_ber(c, H, gtx[g]),
                bounds.rate, ee, bounds.l1, bounds.l2, mi, se), axis=1)
    return out


# -- parallel dispatch ----------------------------------------------------

#: (builder, fn, tasks, block size) of the run a pool worker serves.
_RUN = None

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


def _fix_heap_thresholds():
    """Fix glibc's mmap threshold at 4 MiB, its trim threshold at 8 MiB
    and its arena count at 1.

    By default glibc raises its mmap threshold to the largest mapped
    block freed so far and its trim threshold to twice that, so whether
    a search block's few MiB of scratch stay in the heap, or go back to
    the system and fault in again every block, would depend on what the
    set-up happened to free. It also gives each thread that allocates
    at once its own arena, whose freed blocks no other thread reuses;
    with one arena the Monte Carlo point threads (util.map_points) share
    one heap, so they add their block buffers to the peak memory and no
    arena's spare pages. Forked workers inherit the fixed values, and
    the process keeps them after the run. A no-op where the C library
    has no mallopt.
    """
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if (mallopt := getattr(libc, "mallopt", None)) is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_ARENA_MAX of glibc's
        # malloc.h
        for param, value in ((-3, 4 << 20), (-1, 8 << 20), (-8, 1)):
            mallopt(param, value)


def _worker_init(run):
    """Pool worker set-up: keep the run's (builder, fn, tasks, block
    size), then run one BLAS thread and one Monte Carlo point thread.

    Each forked worker inherits the parent's BLAS pools, so two workers
    would run four BLAS threads on two cores, and the small block
    solves would thrash; the point threads of util.map_points would do
    the same, and the pool already fills the CPUs. The builder, its
    reflection factors among them, is the one the parent built: a
    forked worker shares its pages, another start method unpickles it
    once. The triangular solves and products give the same bits with
    one thread, and the points the same counts on one thread.
    """
    global _RUN
    _RUN = run
    _single_blas_thread()
    set_point_threads(1)


def _block(start, run=None):
    """fn's entries for the block of tasks from start, with their
    channels; run is (builder, fn, tasks, block size), a pool worker's
    by default."""
    builder, fn, tasks, size = run or _RUN
    block = tasks[start:start + size]
    return fn(builder.sc, block, *builder.channels(block))


def check_workers(workers, option="workers"):
    """Reject a worker count the pool should never be asked to start.

    Raises ConfigError (a ValueError) unless 1 <= workers <= the CPUs
    this process may run on; option names the count in the message.
    """
    cpus = usable_cpus()
    if not 1 <= workers <= cpus:
        raise ConfigError(f"{option} must lie in 1..{cpus} (usable CPUs), "
                          f"got {workers}")


def _run_tasks(scenario, fn, tasks, workers):
    """The realization pipeline of every runner: fn's entries for tasks.

    One ChannelBuilder is built for the run, here. The list is cut into
    blocks of min(SEARCH_BLOCK, ceil(len(tasks) / workers)) tasks, so
    that every worker of a short list gets work, and
    ChannelBuilder.channels realizes each block and builds its channels.
    fn(sc, block, realized, Hs) gets the block, its (pose, blockers)
    list and its (B, n_rx, n_tx) channel stack, and returns an array
    with one entry per task, whatever the block; the parts are joined in
    task order with np.concatenate. workers > 1 forks a pool that gets
    (builder, fn, tasks, block size) once and the block starts in runs
    of about a quarter of each worker's share. glibc's heap thresholds
    are fixed first (_fix_heap_thresholds).
    """
    check_workers(workers)
    _fix_heap_thresholds()
    size = max(1, min(SEARCH_BLOCK, -(-len(tasks) // workers)))
    run = (ChannelBuilder(scenario), fn, tasks, size)
    starts = range(0, len(tasks), size)
    if workers == 1 or len(tasks) < 2:
        return np.concatenate([_block(start, run) for start in starts])
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                             initargs=(run,)) as pool:
        return np.concatenate(list(pool.map(
            _block, starts, chunksize=max(1, len(starts) // (4 * workers)))))


# -- experiment runners ---------------------------------------------------

def _tasks(sc):
    """(idx, x, y, omega_deg, angles_deg) of every realization.

    Sitting: the lattice of positions x facing directions x draws, with
    angles None so that realize draws them; a room that leaves the
    lattice no point is a ConfigError. Walking: the ORWP trajectory
    samples, drawn from the sequential stream.
    """
    if sc.activity == "sitting":
        points = grid_positions(sc.room_width, sc.room_depth, sc.grid_step)
        if not points:
            raise ConfigError(
                f"the {sc.room_width:g} m x {sc.room_depth:g} m room leaves "
                f"no lattice point {LATTICE_MARGIN:g} m off its walls")
        spots = [(x, y, omega, None) for x, y in points
                 for omega in facing_directions(sc.n_directions)
                 for _ in range(sc.orientations_per_point)]
    else:
        rng = np.random.default_rng(np.random.SeedSequence([sc.seed, 0]))
        spots = [(s.position[0], s.position[1], s.omega_deg, s.angles_deg)
                 for s in orwp_generate(sc, sc.stats(), rng)]
    return [(i, *spot) for i, spot in enumerate(spots)]


def _downlink_survey(sc, workers, command, activity, kind):
    """Required-SNR record per realization of the activity's task list."""
    if sc.direction != "downlink":
        raise ConfigError(f"{command} evaluates the downlink")
    if sc.activity != activity:
        raise ConfigError(f"{command} uses the {activity} statistics")
    _downlink_sets(sc)                    # fail before any realization
    check_workers(workers)                # and before the task list
    data = _run_tasks(sc, _downlink_block, _tasks(sc), workers)
    outage = float(np.mean(data["feasible"] == 0))
    return RunResult(kind=kind, data=data, scenario=sc,
                     meta={"outage_fraction": outage})


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
    swept with the sm signal set of n_active sources. Each draw's bound
    and Monte Carlo errors over the whole grid are one task entry
    (_sweep_block). The error bits are whole (or, for a draw without
    power, half) counts, whose float sums are exact in any order.
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
    records = _run_tasks(sc, _sweep_block, tasks, workers)
    bounds, err_bits = records[:, 0], records[:, 1].sum(axis=0).tolist()
    total_bits = (n_draws * sc.sweep_symbols() * constellation.bits_per_symbol
                  if sc.mc_symbols > 0 else 0)
    rows = []
    for g, grx_db in enumerate(sc.snr_grid_db()):
        if total_bits:
            ber_mc = err_bits[g] / total_bits
            ci_low, ci_high = wilson_interval(err_bits[g], total_bits)
        else:
            ber_mc, ci_low, ci_high = np.nan, np.nan, np.nan
        rows.append((grx_db, np.mean(bounds[:, g]), ber_mc, ci_low, ci_high,
                     sc.scheme, sc.n_active, M))
    return RunResult(kind="ber", data=np.array(rows, BER_DTYPE), scenario=sc)


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
    check_workers(workers)                # before the task list
    stack = _run_tasks(sc, _uplink_block, _tasks(sc), workers)
    M = sc.uplink_pam_order()
    ber_rows, ee_rows, outage_list = [], [], []
    for g, gtx_db in enumerate(sc.uplink_snr_grid_db()):
        ok = ~np.isnan(stack[:, g, 0])          # n_active: NaN in outage
        outage_list.append(1.0 - float(np.mean(ok)))
        cols = dict(zip(_UPLINK_FIELDS, stack[ok, g].T))
        avg = {k: float(np.mean(v)) if ok.any() else np.nan
               for k, v in cols.items()}
        ber_rows.append((avg["gamma_rx_db"], avg["ber"], np.nan, np.nan,
                         np.nan, sc.scheme, avg["n_active"], M))
        mi, se = np.nan, np.nan
        if sc.mi_samples > 0 and ok.any():
            mi = avg["mi"]
            se = float(np.sqrt(np.mean(cols["mi_se"] ** 2) / np.sum(ok)))
        ee_rows.append((sc.scheme, f"gamma_tx_db={gtx_db:g}", avg["rate"],
                        avg["ee"], avg["l1"], avg["l2"], mi, se))
    meta = {"outage": outage_list}
    return (RunResult("uplink_ber", np.array(ber_rows, BER_DTYPE), sc, meta),
            RunResult("uplink_ee", np.array(ee_rows, EE_DTYPE), sc, meta))


# -- emission --------------------------------------------------------------

#: Records write_csv formats at a time, so that it never turns the
#: whole table into Python objects at once.
_CSV_BLOCK = 4096


def _fmt(value):
    return format(value, ".10g") if isinstance(value, float) else value


def write_csv(path, result):
    """CSV with reproducibility header comments, then the table."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# scenario_hash: {scenario_hash(result.scenario)}\n")
        fh.write(f"# seed: {result.scenario.seed}\n")
        for key, value in sorted(result.meta.items()):
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        for i in range(0, len(result.data), _CSV_BLOCK):
            writer.writerows([_fmt(v) for v in row]
                             for row in result.data[i:i + _CSV_BLOCK].tolist())
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
    columns, *data = csv.reader(body)
    return meta, columns, [{name: _cell(text) for name, text
                            in zip(columns, raw)} for raw in data]


def _cell(text):
    """A CSV cell as a float, or the text itself where it is not one."""
    try:
        return float(text)
    except ValueError:
        return text


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
