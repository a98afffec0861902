"""Experiment harness: lattices, runners, worker determinism, CSV I/O."""

import ctypes
import functools
import math
import os
import pickle
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifisim import (
    ChannelBuilder,
    ConfigError,
    Scenario,
    build_constellation,
    build_mimo_constellation,
    emit,
    empirical_cdf,
    facing_directions,
    grid_positions,
    orwp_generate,
    read_csv,
    received_snr,
    required_snr,
    run_ber_sweep,
    run_cdf_map,
    run_orwp_eval,
    run_uplink_eval,
    scenario_from_dict,
    scenario_hash,
    segments_blocked,
    strongest_columns,
    union_bound_ber,
    write_csv,
)
from lifisim import harness, util
from lifisim.blockage import blockage_mask
from lifisim.channel import (ELEMENT_FOV_DEG, ELEMENT_ORDER, los_gain_matrix,
                             nlos_gain)
from lifisim.geometry import element_world_pose, grid_size
from lifisim.harness import BER_COLUMNS, CDF_COLUMNS, EE_COLUMNS, RunResult
from lifisim.util import db_to_linear


def tiny_map_scenario(**over):
    """9-point lattice, 2 facings, 2 draws: 36 cheap realizations."""
    base = dict(direction="downlink", activity="sitting", device="mdr",
                scheme="asm", grid_step=2.0, n_directions=2,
                orientations_per_point=2, include_nlos=False,
                kappa_b=0.2, seed=11)
    base.update(over)
    return scenario_from_dict(base)


# -- channel builder against the per-pose path it replaced ---------------

def _mask(tx, rx, blockers):
    """(n_rx, n_tx) occlusion of every transmitter-receiver segment."""
    a = np.tile(tx, (rx.shape[0], 1))
    b = np.repeat(rx, tx.shape[0], axis=0)
    return segments_blocked(a, b, blockers).reshape(rx.shape[0], tx.shape[0])


def _reference_channel(builder, pose, blockers):
    """Downlink H with the AP-to-mesh gains recomputed and a forward solve."""
    sc = builder.sc
    mesh = builder.solver.mesh
    aps = builder.aps
    rx_pos, rx_nrm = element_world_pose(pose, builder.layout)
    order = builder.order
    h_los = los_gain_matrix(aps.positions, aps.normals, rx_pos, rx_nrm,
                            order, sc.pd_area, sc.fov_deg)
    t = los_gain_matrix(aps.positions, aps.normals, mesh.centers,
                        mesh.normals, order, mesh.areas, ELEMENT_FOV_DEG)
    r = los_gain_matrix(mesh.centers, mesh.normals, rx_pos, rx_nrm,
                        ELEMENT_ORDER, sc.pd_area, sc.fov_deg)
    if blockers:
        h_los = np.where(_mask(aps.positions, rx_pos, blockers), 0.0, h_los)
        t = np.where(_mask(aps.positions, mesh.centers, blockers), 0.0, t)
        r = np.where(_mask(mesh.centers, rx_pos, blockers), 0.0, r)
    x = builder.solver.solve(t)
    return h_los + (mesh.rho[:, None] * r.T).T @ x


@pytest.mark.parametrize("resolution,n_poses", [(0.5, 40), (0.25, 8)])
def test_realize_matches_recompute_and_forward_solve(resolution, n_poses):
    sc = scenario_from_dict(dict(
        direction="downlink", activity="walking", device="mdr", scheme="sm",
        n_active=4, spectral_efficiency=5, include_nlos=True,
        mesh_resolution=resolution, kappa_b=0.2, self_blockage=True,
        n_waypoints=3, seed=8))
    builder = ChannelBuilder(sc)
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, 0]))
    samples = orwp_generate(sc, sc.stats(), rng)[:n_poses]
    assert len(samples) == n_poses
    realized, Hs = builder.channels(
        [(i, s.position[0], s.position[1], s.omega_deg, s.angles_deg)
         for i, s in enumerate(samples)])
    for (pose, blockers), H in zip(realized, Hs):
        assert len(blockers) == 6
        ref = _reference_channel(builder, pose, blockers)
        np.testing.assert_allclose(H, ref, rtol=1e-12, atol=0.0)


def _nlos_gain_channel(builder, pose, blockers):
    """The one-pose oracle of ChannelBuilder.channels, composed from
    nlos_gain: the blocked LOS matrix plus the diffuse gains of the pose."""
    sc = builder.sc
    elem_pos, elem_nrm = element_world_pose(pose, builder.layout)
    aps = (builder.aps.positions, builder.aps.normals)
    tx, rx = ((aps, (elem_pos, elem_nrm)) if sc.direction == "downlink"
              else ((elem_pos, elem_nrm), aps))
    order = builder.order
    H = los_gain_matrix(*tx, *rx, order, sc.pd_area, sc.fov_deg)
    if blockers:
        H = np.where(blockage_mask(tx[0], rx[0], blockers, where=H > 0),
                     0.0, H)
    if builder.solver is None:
        return H
    return H + nlos_gain(*tx, order, *rx, sc.pd_area, sc.fov_deg,
                         builder.solver, blockers)


@pytest.mark.parametrize("over,reuse", [
    (dict(activity="sitting", kappa_b=0.0), True),
    (dict(activity="sitting", kappa_b=0.2), False),
    (dict(activity="walking", kappa_b=0.2, n_waypoints=2), False),
    (dict(activity="sitting", kappa_b=0.0, self_blockage=False), False),
    (dict(activity="sitting", kappa_b=0.2, direction="uplink"), False),
])
def test_channel_equals_nlos_gain_path_bit_for_bit(monkeypatch, over, reuse):
    # consecutive sitting draws at one spot share their blockers, so the
    # AP-to-mesh mask is reused; any other blocker list is tested, once,
    # through the fan index of the lit AP-to-mesh links
    base = dict(device="mdr", scheme="sm", n_active=4,
                spectral_efficiency=5, include_nlos=True,
                mesh_resolution=0.5, grid_step=2.0, n_directions=2,
                orientations_per_point=3, seed=4)
    sc = scenario_from_dict({**base, **over})
    builder = ChannelBuilder(sc)
    tests = []
    if builder.solver is not None:
        inner = builder._ap_mesh.blocked_each

        def counted(lists):
            tests.extend(lists)
            return inner(lists)

        monkeypatch.setattr(builder._ap_mesh, "blocked_each", counted)
    blocker_lists = []
    realized, Hs = builder.channels(harness._tasks(sc)[:24])
    for (pose, blockers), H in zip(realized, Hs):
        np.testing.assert_array_equal(
            H, _nlos_gain_channel(builder, pose, blockers))
        blocker_lists.append(blockers)
    if builder.solver is None:
        return
    changes = [cur for prev, cur in zip([None] + blocker_lists,
                                        blocker_lists)
               if cur and cur != prev]
    assert tests == changes         # each changed list once, in order
    if reuse:
        assert 0 < len(changes) < len(blocker_lists)    # hits and misses


# Scenario kinds the block stage must reproduce: sitting draws that reuse
# the blocked AP-to-mesh gains, ambient blockers, walking, LOS only and
# the uplink.
_BLOCK_KINDS = {
    "sitting_reuse": dict(activity="sitting", kappa_b=0.0),
    "sitting_blockers": dict(activity="sitting", kappa_b=0.2),
    "walking": dict(activity="walking", kappa_b=0.2, n_waypoints=2),
    "los_only": dict(activity="sitting", kappa_b=0.2, include_nlos=False),
    "uplink": dict(activity="sitting", kappa_b=0.2, direction="uplink"),
}


@functools.lru_cache(maxsize=None)
def _block_oracle(kind):
    """(builder, tasks, {idx: (pose, blockers, oracle H)}) of a kind."""
    base = dict(device="mdr", scheme="sm", n_active=4,
                spectral_efficiency=5, include_nlos=True,
                mesh_resolution=0.5, grid_step=2.0, n_directions=2,
                orientations_per_point=3, seed=6)
    sc = scenario_from_dict({**base, **_BLOCK_KINDS[kind]})
    builder = ChannelBuilder(sc)
    tasks = harness._tasks(sc)[:40]
    oracle = {}
    for task in tasks:
        pose, blockers = builder.realize(*task)
        oracle[task[0]] = (pose, blockers,
                           _nlos_gain_channel(builder, pose, blockers))
    return builder, tasks, oracle


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_channels_equal_one_pose_oracle_for_any_split(data):
    # any subset of the tasks, in any order, cut into any blocks and
    # built in sub-blocks of any size
    kind = data.draw(st.sampled_from(sorted(_BLOCK_KINDS)))
    builder, tasks, oracle = _block_oracle(kind)
    order = data.draw(st.permutations(tasks))
    order = order[:data.draw(st.integers(1, len(order)))]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(order) - 1)))
                  if len(order) > 1 else [])
    sub_block = builder.sub_block
    builder.sub_block = data.draw(st.integers(1, 12))
    try:
        for start, stop in zip([0] + cuts, cuts + [len(order)]):
            block = order[start:stop]
            realized, Hs = builder.channels(block)
            assert Hs.shape[0] == len(block) == len(realized)
            for task, (pose, blockers), H in zip(block, realized, Hs):
                ref_pose, ref_blockers, ref = oracle[task[0]]
                assert pose == ref_pose and blockers == ref_blockers
                np.testing.assert_array_equal(H, ref)
    finally:
        builder.sub_block = sub_block


def test_sub_block_follows_the_pair_budget():
    def sub_block(**over):
        return ChannelBuilder(tiny_map_scenario(**over)).sub_block
    assert sub_block(include_nlos=True, mesh_resolution=0.5) == 16
    assert sub_block(include_nlos=True, mesh_resolution=0.25) == 4
    # LOS only: photodiode x access-point pairs
    assert sub_block() == harness.SUB_BLOCK_PAIRS // (4 * 16)


@pytest.mark.parametrize("run,over", [
    (run_cdf_map, dict(include_nlos=True, mesh_resolution=0.5)),
    (run_orwp_eval, dict(activity="walking", n_waypoints=2,
                         include_nlos=True, scheme="sm", n_active=4,
                         spectral_efficiency=5)),
    (run_ber_sweep, dict(orientation="random", orientations_per_point=20,
                         location="L1", scheme="sm", n_active=4,
                         spectral_efficiency=5, include_nlos=True,
                         mc_symbols=0)),
    (run_uplink_eval, dict(direction="uplink", scheme="sm",
                           uplink_snr_start_db=150.0,
                           uplink_snr_stop_db=150.0)),
])
def test_runners_realize_each_task_once(monkeypatch, run, over):
    # one realize call per realization, in task order: the benchmark
    # times set-up to the first call and counts realizations by them
    sc = tiny_map_scenario(**over)
    calls = []
    realize = ChannelBuilder.realize

    def counted(self, idx, *args):
        calls.append(idx)
        return realize(self, idx, *args)

    monkeypatch.setattr(ChannelBuilder, "realize", counted)
    run(sc, workers=1)
    n = (sc.orientations_per_point if run is run_ber_sweep
         else len(harness._tasks(sc)))
    assert n > 16                       # more than one sub-block
    assert calls == list(range(n))


# -- evaluation lattice ----------------------------------------------------

def test_grid_positions_quarter_step():
    pts = grid_positions(5.0, 5.0, 0.25)
    assert len(pts) == 19 * 19
    xs = sorted({p[0] for p in pts})
    assert xs == pytest.approx(np.arange(0.25, 4.751, 0.25))
    assert min(p[1] for p in pts) == pytest.approx(0.25)
    assert max(p[1] for p in pts) == pytest.approx(4.75)


def test_grid_positions_coarse():
    assert len(grid_positions(5.0, 5.0, 1.0)) == 25
    pts = grid_positions(5.0, 5.0, 2.0)
    assert len(pts) == 9
    # row-major: x varies fastest
    assert pts[:3] == [(0.25, 0.25), (2.25, 0.25), (4.25, 0.25)]
    assert pts[3] == (0.25, 2.25)
    assert {c for p in pts for c in p} == {0.25, 2.25, 4.25}


def test_grid_positions_margin():
    pts = grid_positions(4.0, 3.0, 1.0)
    xs = sorted({p[0] for p in pts})
    ys = sorted({p[1] for p in pts})
    assert xs == pytest.approx([0.25, 1.25, 2.25, 3.25])
    assert ys == pytest.approx([0.25, 1.25, 2.25])


@pytest.mark.parametrize("width,depth,step,margin", [
    (5.0, 5.0, 0.25, 0.25), (5.0, 5.0, 0.1, 0.25), (5.0, 5.0, 0.3, 0.25),
    (0.5, 0.5, 0.25, 0.25), (0.4, 3.0, 0.2, 0.25)])
def test_grid_size_counts_grid_positions(width, depth, step, margin):
    pts = np.reshape(grid_positions(width, depth, step), (-1, 2))
    assert grid_size(width, depth, step) == len(pts)
    # every point lies at least `margin` inside the walls
    assert (pts >= margin).all()
    assert (pts <= np.array([width, depth]) - margin + 1e-9).all()


def test_facing_directions():
    assert facing_directions(8) == pytest.approx(
        [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0])
    assert facing_directions(2) == pytest.approx([0.0, 180.0])
    assert facing_directions(1) == pytest.approx([0.0])


def test_empirical_cdf_basic():
    x, p = empirical_cdf([3.0, 1.0, 2.0])
    assert x == pytest.approx([1.0, 2.0, 3.0])
    assert p == pytest.approx([1 / 3, 2 / 3, 1.0])


def test_empirical_cdf_ties_and_empty():
    x, p = empirical_cdf([5.0, 5.0])
    assert x == pytest.approx([5.0, 5.0])
    assert p[-1] == 1.0
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_run_result_column_coercion():
    data = np.array([(1.5, "sm", 1), (2.0, "asm", 3)],
                    dtype=[("a", float), ("scheme", "U8"), ("n", np.int64)])
    res = RunResult(kind="ber", data=data, scenario=Scenario())
    assert res.column("a") == pytest.approx([1.5, 2.0])
    assert np.isnan(res.column("scheme")).all()
    n = res.column("n")
    assert n.dtype == float and n.tolist() == [1.0, 3.0]


@pytest.mark.parametrize("run,sc", [
    (run_cdf_map, lambda: tiny_map_scenario()),
    (run_ber_sweep, lambda: sweep_scenario(mc_symbols=0)),
    (lambda sc: run_uplink_eval(sc)[1], lambda: uplink_scenario()),
])
def test_rows_view_types(run, sc):
    res = run(sc())
    assert res.columns == list(res.data.dtype.names)
    assert len(res.rows) == len(res.data)
    for row in res.rows:
        assert list(row) == res.columns
        for name, value in row.items():
            kind = res.data.dtype[name].kind
            assert type(value) is {"i": int, "f": float, "U": str}[kind]


# -- CDF map ---------------------------------------------------------------

def test_cdf_map_shape_and_contents():
    sc = tiny_map_scenario()
    res = run_cdf_map(sc)
    assert res.kind == "cdf"
    assert res.columns == CDF_COLUMNS
    assert len(res.rows) == 9 * 2 * 2
    assert [r["realization"] for r in res.rows] == list(range(36))
    assert {r["x"] for r in res.rows} == {0.25, 2.25, 4.25}
    assert {r["omega_deg"] for r in res.rows} == {0.0, 180.0}
    for r in res.rows:
        # kappa_b=0.2 on 25 m^2 rounds to 5 ambient blockers + the body
        assert r["n_blockers"] == 6
        assert r["feasible"] in (0, 1)
        if r["feasible"]:
            assert math.isfinite(r["gamma_rx_db"])
            assert r["n_active"] * r["pam_order"] == 2 ** 5
        else:
            assert r["gamma_rx_db"] == math.inf
    feas = np.array([r["feasible"] for r in res.rows])
    assert res.meta["outage_fraction"] == pytest.approx(np.mean(feas == 0))


def test_cdf_map_prerequisites():
    with pytest.raises(ConfigError, match="sitting"):
        run_cdf_map(tiny_map_scenario(activity="walking"))
    with pytest.raises(ConfigError, match="downlink"):
        run_cdf_map(tiny_map_scenario(direction="uplink", scheme="sm"))


def test_cdf_map_worker_determinism(pool_starts):
    sc = tiny_map_scenario()
    seq = run_cdf_map(sc, workers=1)
    par = run_cdf_map(sc, workers=2)
    assert pool_starts == [2]
    assert seq.data.tobytes() == par.data.tobytes()
    assert seq.meta == par.meta


def test_cdf_map_worker_determinism_with_reflections(pool_starts):
    # the workers use the reflection factors the calling process made:
    # OpenBLAS rounds the LU factors of this 440-element mesh
    # differently with another thread count, and workers run one
    sc = tiny_map_scenario(include_nlos=True, mesh_resolution=0.5,
                           kappa_b=0.0)
    seq, par = run_cdf_map(sc, workers=1), run_cdf_map(sc, workers=2)
    assert seq.data.tobytes() == par.data.tobytes()
    assert pool_starts == [2]


def test_pool_workers_never_build_a_channel_builder(monkeypatch,
                                                    pool_starts):
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    here = os.getpid()
    init = ChannelBuilder.__init__

    def parent_only(self, scenario):
        if os.getpid() != here:
            raise AssertionError("a pool worker built a ChannelBuilder")
        init(self, scenario)

    monkeypatch.setattr(ChannelBuilder, "__init__", parent_only)
    sc = tiny_map_scenario(include_nlos=True, mesh_resolution=0.5,
                           n_directions=4)
    res = run_cdf_map(sc, workers=2)
    assert pool_starts == [2]
    assert len(res.data) == len(harness._tasks(sc)) > harness.SEARCH_BLOCK


def test_pickled_builder_builds_the_same_channels():
    # a pool under a start method other than fork unpickles the builder
    sc = tiny_map_scenario(include_nlos=True, mesh_resolution=0.5)
    tasks = harness._tasks(sc)
    assert sc.kappa_b > 0 and len(tasks) > 16      # blockers, sub-blocks
    builder = ChannelBuilder(sc)
    fresh = pickle.loads(pickle.dumps(builder))
    first, H = builder.channels(tasks[:20])
    used = pickle.loads(pickle.dumps(builder))      # caches filled
    for copy in (fresh, used):
        realized, H_copy = copy.channels(tasks[:20])
        assert H_copy.tobytes() == H.tobytes()
        assert [b for _, b in realized] == [b for _, b in first]
    assert used.channels(tasks[20:])[1].tobytes() == \
        builder.channels(tasks[20:])[1].tobytes()


def _blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    counts = {}
    for lib in harness._loaded_blas():
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[lib._name] = getter()
    return counts


def _blas_threads_of_block(sc, block, realized, Hs):
    out = np.empty(len(block), dtype=object)
    out[:] = [_blas_threads() for _ in block]
    return out


def test_pool_workers_run_one_blas_thread():
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    before = _blas_threads()
    if not before:
        pytest.skip("no scipy-openblas library is loaded")
    sc = tiny_map_scenario()
    inside = harness._run_tasks(sc, _blas_threads_of_block,
                                harness._tasks(sc)[:8], workers=2)
    assert inside.tolist() == [dict.fromkeys(before, 1)] * 8
    assert _blas_threads() == before     # the parent keeps its pools


def _point_threads_of_block(sc, block, realized, Hs):
    return np.array([util.point_threads()] * len(block))


def test_pool_workers_run_points_on_one_thread():
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    before = util.point_threads()
    sc = tiny_map_scenario()
    inside = harness._run_tasks(sc, _point_threads_of_block,
                                harness._tasks(sc)[:8], workers=2)
    assert inside.tolist() == [1] * 8
    assert util.point_threads() == before   # the parent keeps its threads


#: Runs a one-worker BER sweep on two point threads, which makes the
#: point pool, then the same sweep with a forked pool of two workers,
#: and prints whether the rows are the same bytes.
_FORK_AFTER_POINT_POOL = """
import os
from lifisim import harness, scenario_from_dict, util
util.set_point_threads(2)
sc = scenario_from_dict(dict(
    direction="downlink", activity="sitting", device="mdr", scheme="sm",
    n_active=4, spectral_efficiency=5, orientation="random",
    orientations_per_point=3, location="L1", include_nlos=False,
    kappa_b=0.0, snr_start_db=0.0, snr_stop_db=20.0, snr_step_db=10.0,
    mc_symbols=2000, seed=3))
one = harness.run_ber_sweep(sc, workers=1)
assert util._point_pool[0] == os.getpid()
two = harness.run_ber_sweep(sc, workers=2)
print(one.data.tobytes() == two.data.tobytes())
"""


def test_forked_workers_after_the_point_pool_give_the_same_rows():
    # a forked worker inherits the parent's pool object but none of its
    # threads; it must neither wait on that pool nor change the rows
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    src = os.path.dirname(os.path.dirname(os.path.abspath(util.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    # in a session of its own, so that a hung run's workers are killed
    # with it
    proc = subprocess.Popen([sys.executable, "-c", _FORK_AFTER_POINT_POOL],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 0, err
    assert out.split() == ["True"]


def _block_indices(sc, block, realized, Hs):
    """(realization, first realization of its block) of each task."""
    assert len(block) == len(realized) == len(Hs) <= harness.SEARCH_BLOCK
    return np.array([(idx, block[0][0]) for idx, *_ in block])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 65])
def test_run_tasks_hands_each_task_to_one_block_in_order(n, workers):
    if _usable_cpus() < workers:
        pytest.skip("needs two usable CPUs")
    sc = tiny_map_scenario(n_directions=4)      # 72 realizations
    got = harness._run_tasks(sc, _block_indices, harness._tasks(sc)[:n],
                             workers=workers)
    assert got[:, 0].tolist() == list(range(n))
    # each block is a contiguous run of the task list, cut at multiples
    # of SEARCH_BLOCK, or of ceil(n / workers) where that is smaller so
    # that every worker gets a block
    size = min(harness.SEARCH_BLOCK, -(-n // workers))
    starts = got[:, 1]
    assert starts.tolist() == [k - k % size for k in range(n)]


@pytest.mark.parametrize("run,over,match", [
    (run_cdf_map, dict(scheme="sm", n_ap_side=1), "exceeds the 1 access"),
    (run_ber_sweep, dict(scheme="asm", n_ap_side=1), "exceeds the 1 access"),
    # asm is swept with the sm set, whose R = 1 leaves no PAM bit
    (run_ber_sweep, dict(scheme="asm", spectral_efficiency=1), "sm signal"),
])
def test_fixed_signal_set_needs_the_sources_and_a_pam_bit(run, over, match):
    with pytest.raises(ConfigError, match=match):
        run(tiny_map_scenario(n_active=4, **over))


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.parametrize("workers", [0, -1, _usable_cpus() + 1, 10 ** 6])
@pytest.mark.parametrize("run", [run_cdf_map, run_ber_sweep, run_uplink_eval])
def test_library_runs_reject_out_of_range_workers(monkeypatch, run, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("lifisim.harness.ProcessPoolExecutor", no_pool)
    sc = tiny_map_scenario(
        scheme="sm", n_active=4, spectral_efficiency=5,
        direction="uplink" if run is run_uplink_eval else "downlink")
    with pytest.raises(ValueError, match="workers must lie in 1"):
        run(sc, workers=workers)


@pytest.mark.parametrize("run,over", [
    (run_cdf_map, {}),
    (run_orwp_eval, dict(activity="walking")),
    (run_uplink_eval, dict(direction="uplink", scheme="sm")),
])
def test_library_runners_check_workers_before_the_task_list(monkeypatch, run,
                                                            over):
    # the default survey's list alone would be about 0.9 GiB
    def no_tasks(sc):
        raise AssertionError("the task list was built")

    monkeypatch.setattr(harness, "_tasks", no_tasks)
    with pytest.raises(ConfigError, match="workers must lie in 1"):
        run(tiny_map_scenario(**over), workers=0)


@pytest.mark.parametrize("workers", [1, 2])
def test_runs_fix_the_heap_thresholds_before_the_set_up(monkeypatch,
                                                        workers):
    if os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    if _usable_cpus() < workers:
        pytest.skip("needs two usable CPUs")
    harness._fix_heap_thresholds()           # the real call: no error
    calls = []
    init = ChannelBuilder.__init__

    def build(self, scenario):
        calls.append("builder")
        init(self, scenario)

    monkeypatch.setattr(ChannelBuilder, "__init__", build)
    monkeypatch.setattr(harness, "_fix_heap_thresholds",
                        lambda: calls.append("heap"))
    run_cdf_map(tiny_map_scenario(), workers=workers)
    assert calls == ["heap", "builder"]


@pytest.mark.parametrize("scheme,r,signal_set,M", [
    ("sm", 5, build_constellation, 8),
    ("mimo", 4, build_mimo_constellation, 2),
])
def test_fixed_scheme_rows_match_required_snr_on_realized_channel(
        scheme, r, signal_set, M):
    sc = tiny_map_scenario(scheme=scheme, n_active=4, spectral_efficiency=r)
    res = run_cdf_map(sc)
    builder = ChannelBuilder(sc)
    c = signal_set(M, 4)
    picks = set()
    for row in res.rows:
        [(pose, _)], [H] = builder.channels([(
            row["realization"], row["x"], row["y"], row["omega_deg"], None)])
        assert pose.angles_deg == (row["alpha_deg"], row["beta_deg"],
                                   row["gamma_deg"])
        idx = strongest_columns(H, 4)
        picks.add(tuple(idx))
        ref = required_snr(c, H[:, idx], sc.target_ber)
        assert (row["n_active"], row["pam_order"]) == (4, M)
        assert row["feasible"] == int(ref.feasible)
        assert row["gamma_rx_db"] == (ref.gamma_rx_db if ref.feasible
                                      else math.inf)
    # the strongest columns change with the pose, so a runner that took
    # any fixed set of columns would miss the reference somewhere
    assert len(picks) > 1


def test_infeasible_asm_rows_report_no_operating_point():
    # a 30-degree field of view leaves some poses with no usable link:
    # no signal set reaches the target, so no count or PAM order is chosen
    res = run_cdf_map(tiny_map_scenario(fov_deg=30.0))
    infeasible = [r for r in res.rows if r["feasible"] == 0]
    assert 0 < len(infeasible) < len(res.rows)
    for r in infeasible:
        assert (r["n_active"], r["pam_order"]) == (0, 0)
        assert r["gamma_rx_db"] == math.inf


# -- ORWP run --------------------------------------------------------------

def test_orwp_eval_matches_trajectory():
    sc = tiny_map_scenario(activity="walking", kappa_b=0.0,
                           n_waypoints=3, seed=5)
    res = run_orwp_eval(sc)
    assert res.kind == "orwp"
    assert res.columns == CDF_COLUMNS
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, 0]))
    samples = orwp_generate(sc, sc.stats(), rng)
    assert len(res.rows) == len(samples)
    for row, s in zip(res.rows, samples):
        assert row["x"] == pytest.approx(s.position[0])
        assert row["y"] == pytest.approx(s.position[1])
        assert row["omega_deg"] == pytest.approx(s.omega_deg)
        assert row["beta_deg"] == pytest.approx(s.angles_deg[1])


def test_orwp_eval_prerequisites():
    with pytest.raises(ConfigError, match="walking"):
        run_orwp_eval(tiny_map_scenario())
    with pytest.raises(ConfigError, match="downlink"):
        run_orwp_eval(tiny_map_scenario(direction="uplink", scheme="sm",
                                        activity="walking"))


# -- BER sweep -------------------------------------------------------------

def sweep_scenario(**over):
    base = dict(direction="downlink", activity="sitting", device="mdr",
                scheme="sm", n_active=4, spectral_efficiency=5,
                orientation="fixed", location="L1", include_nlos=False,
                kappa_b=0.0, snr_start_db=0.0, snr_stop_db=20.0,
                snr_step_db=10.0, mc_symbols=2000, seed=3)
    base.update(over)
    return scenario_from_dict(base)


def test_ber_sweep_fixed_orientation():
    sc = sweep_scenario()
    res = run_ber_sweep(sc)
    assert res.kind == "ber"
    assert res.columns == BER_COLUMNS
    snr = [r["snr_db"] for r in res.rows]
    assert snr == pytest.approx([0.0, 10.0, 20.0])
    for r in res.rows:
        assert r["scheme"] == "sm"
        assert r["N_a"] == 4
        assert r["M"] == 8
        assert 0.0 <= r["ci_low"] <= r["ber_mc"] <= r["ci_high"] <= 1.0
    bounds = [r["ber_bound"] for r in res.rows]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_ber_sweep_bound_is_seed_free_when_fixed():
    # fixed orientation, no blockers: the channel is deterministic
    a = run_ber_sweep(sweep_scenario(seed=3, self_blockage=False))
    b = run_ber_sweep(sweep_scenario(seed=99, self_blockage=False))
    for ra, rb in zip(a.rows, b.rows):
        assert ra["ber_bound"] == rb["ber_bound"]
    # Monte Carlo does depend on the noise seed
    assert any(ra["ber_mc"] != rb["ber_mc"]
               for ra, rb in zip(a.rows, b.rows))


def test_ber_sweep_zero_symbols_skips_monte_carlo():
    res = run_ber_sweep(sweep_scenario(mc_symbols=0))
    for r in res.rows:
        assert math.isnan(r["ber_mc"])
        assert math.isnan(r["ci_low"]) and math.isnan(r["ci_high"])
        assert math.isfinite(r["ber_bound"])


def test_ber_sweep_mimo_pam_order():
    res = run_ber_sweep(sweep_scenario(scheme="mimo", n_active=4,
                                       spectral_efficiency=8,
                                       mc_symbols=0))
    for r in res.rows:
        assert r["M"] == 2 ** (8 // 4)
        assert r["N_a"] == 4
        assert r["scheme"] == "mimo"


def test_sweep_block_error_bits_are_whole_counts(monkeypatch):
    # 1 / (25,000 symbols x 5 bits) times 25,000 and then 5 gives
    # 0.9999999999999999; the error count is 1
    sc = sweep_scenario(mc_symbols=25000)
    calls = []

    def one_error(c, H, gamma_tx, n, rngs):
        calls.append(n * c.bits_per_symbol)
        return np.full(np.shape(gamma_tx), 1.0 / (n * c.bits_per_symbol)), ()

    monkeypatch.setattr(harness, "monte_carlo_ber", one_error)
    x, y = sc.location_xy()
    tasks = [(0, x, y, sc.omega(), sc.stats().means(sc.omega()))]
    out = harness._sweep_block(sc, tasks,
                               *ChannelBuilder(sc).channels(tasks))
    assert calls == [125000]
    assert out[0, 1].tolist() == [1.0] * 3


def test_ber_sweep_random_orientation_workers():
    sc = sweep_scenario(orientation="random", orientations_per_point=3,
                        mc_symbols=0, kappa_b=0.1)
    seq = run_ber_sweep(sc, workers=1)
    par = run_ber_sweep(sc, workers=2)
    assert seq.data.tobytes() == par.data.tobytes()
    assert len(seq.rows) == 3


@pytest.mark.parametrize("scheme", ["sm", "mimo"])
def test_ber_sweep_bound_is_mean_of_per_draw_union_bounds(scheme):
    # each draw's bound is built once and evaluated at every point; it
    # must equal union_bound_ber on that draw's channel, bit for bit
    sc = sweep_scenario(scheme=scheme, spectral_efficiency=8,
                        orientation="random", orientations_per_point=4,
                        mc_symbols=0, kappa_b=0.3)
    res = run_ber_sweep(sc)
    builder = ChannelBuilder(sc)
    x, y = sc.location_xy()
    subsets = []
    for i in range(sc.orientations_per_point):
        H = builder.channels([(i, x, y, sc.omega(), None)])[1][0]
        subsets.append(H[:, strongest_columns(H, 4)])
    assert len({H.tobytes() for H in subsets}) == len(subsets)
    c = (build_constellation(64, 4) if scheme == "sm"
         else build_mimo_constellation(4, 4))
    for row, grx_db in zip(res.rows, sc.snr_grid_db()):
        assert row["M"] == c.M
        grx = db_to_linear(grx_db)
        expected = [union_bound_ber(c, H, grx / received_snr(H, 4, 1.0))
                    if received_snr(H, 4, 1.0) > 0.0 else 0.5
                    for H in subsets]
        assert row["ber_bound"] == float(np.mean(expected))


def test_ber_sweep_requires_downlink():
    with pytest.raises(ConfigError, match="downlink"):
        run_ber_sweep(sweep_scenario(direction="uplink"))


# -- uplink sweep ----------------------------------------------------------

def uplink_scenario(**over):
    base = dict(direction="uplink", activity="sitting", device="mdr",
                scheme="asm", grid_step=2.0, n_directions=2,
                orientations_per_point=1, kappa_b=0.0,
                uplink_snr_start_db=140.0, uplink_snr_stop_db=160.0,
                uplink_snr_step_db=10.0, mi_samples=0, seed=2)
    base.update(over)
    return scenario_from_dict(base)


@pytest.mark.parametrize("scheme", ["asm", "sm"])
def test_uplink_eval_shapes(scheme):
    sc = uplink_scenario(scheme=scheme)
    ber, ee = run_uplink_eval(sc)
    assert ber.kind == "uplink_ber" and ee.kind == "uplink_ee"
    assert ber.columns == BER_COLUMNS and ee.columns == EE_COLUMNS
    assert len(ber.rows) == 3 and len(ee.rows) == 3
    assert len(ber.meta["outage"]) == 3
    assert all(0.0 <= f <= 1.0 for f in ber.meta["outage"])
    for g, (rb, re_) in enumerate(zip(ber.rows, ee.rows)):
        assert rb["scheme"] == scheme and re_["scheme"] == scheme
        assert rb["M"] == 4
        assert re_["config"] == f"gamma_tx_db={140 + 10 * g:g}"
        assert math.isnan(re_["mi_mc"])
        if ber.meta["outage"][g] < 1.0:
            assert math.isfinite(rb["snr_db"])
            assert 1.0 <= rb["N_a"] <= 4.0
            # a feasible link may still have a zero rate lower bound at
            # low transmit SNR, so only nonnegativity is guaranteed
            assert re_["eta_ee"] >= 0.0 and math.isfinite(re_["eta_ee"])
            assert re_["eta_rse"] >= 0.0
            assert math.isnan(rb["ber_mc"])
    # the grid must reach feasibility somewhere for this to mean much
    assert ber.meta["outage"][-1] < 1.0


@pytest.mark.parametrize("n_active", [1, 2, 4])
def test_uplink_sm_keeps_n_active_strongest_elements(n_active):
    # n_active used to be ignored: every count gave N_a = 4
    ber, ee = run_uplink_eval(uplink_scenario(scheme="sm", n_active=n_active))
    assert [r["N_a"] for r in ber.rows] == [float(n_active)] * 3
    assert ber.meta["outage"] == [0.0] * 3


def test_uplink_eval_walking_and_workers():
    sc = uplink_scenario(activity="walking", n_waypoints=2, seed=9)
    seq_ber, seq_ee = run_uplink_eval(sc, workers=1)
    par_ber, par_ee = run_uplink_eval(sc, workers=2)
    assert seq_ber.data.tobytes() == par_ber.data.tobytes()
    assert seq_ee.data.tobytes() == par_ee.data.tobytes()
    assert seq_ber.meta == par_ber.meta
    assert len(seq_ber.rows) == 3


@pytest.mark.parametrize("scheme", ["asm", "sm"])
def test_uplink_rows_do_not_depend_on_the_block_size(monkeypatch, scheme):
    # _uplink_block evaluates a whole block at once; each realization's
    # records, its MI draws among them, must not depend on the block
    sc = uplink_scenario(scheme=scheme, mi_samples=1000,
                         uplink_snr_step_db=5.0)
    assert len(harness._tasks(sc)) > 5
    results = []
    for size in (1, 5, 64):
        monkeypatch.setattr(harness, "SEARCH_BLOCK", size)
        ber, ee = run_uplink_eval(sc)
        results.append((ber.data.tobytes(), ee.data.tobytes(), ber.meta))
    assert results[0] == results[1] == results[2]
    assert np.isfinite(ee.column("mi_mc")).any()


def test_uplink_eval_mi_columns():
    ber, ee = run_uplink_eval(uplink_scenario(mi_samples=2000,
                                              uplink_snr_start_db=150.0,
                                              uplink_snr_stop_db=150.0))
    row = ee.rows[0]
    if ber.meta["outage"][0] < 1.0:
        assert math.isfinite(row["mi_mc"])
        assert row["stderr"] > 0.0
        # the estimator never exceeds the entropy of the constellation
        assert row["mi_mc"] <= np.log2(16) + 1e-9


def test_uplink_eval_prerequisites():
    with pytest.raises(ConfigError, match="uplink"):
        run_uplink_eval(uplink_scenario(direction="downlink"))
    with pytest.raises(ConfigError, match="scheme"):
        run_uplink_eval(uplink_scenario(scheme="mimo", n_active=1,
                                        spectral_efficiency=5))


# -- CSV emission ----------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    sc = sweep_scenario(mc_symbols=500)
    res = run_ber_sweep(sc)
    path = write_csv(tmp_path / "sweep.csv", res)
    meta, columns, rows = read_csv(path)
    assert meta["scenario_hash"] == scenario_hash(sc)
    assert meta["seed"] == str(sc.seed)
    assert columns == BER_COLUMNS
    assert len(rows) == len(res.rows)
    for orig, back in zip(res.rows, rows):
        for name in columns:
            if isinstance(orig[name], str):
                assert back[name] == orig[name]
            elif isinstance(orig[name], float) and math.isnan(orig[name]):
                assert math.isnan(back[name])
            else:
                # cells are written with 10 significant digits
                assert back[name] == pytest.approx(orig[name], rel=1e-9)


def test_csv_roundtrip_nan_cells(tmp_path):
    res = run_ber_sweep(sweep_scenario(mc_symbols=0))
    meta, _, rows = read_csv(write_csv(tmp_path / "nb.csv", res))
    assert all(math.isnan(r["ber_mc"]) for r in rows)
    assert all(math.isfinite(r["ber_bound"]) for r in rows)


def test_csv_meta_lines(tmp_path):
    sc = tiny_map_scenario()
    res = run_cdf_map(sc)
    meta, _, rows = read_csv(write_csv(tmp_path / "map.csv", res))
    assert float(meta["outage_fraction"]) == pytest.approx(
        res.meta["outage_fraction"])
    assert len(rows) == 36


def test_emit_writes_csv_and_plot(tmp_path):
    res = run_ber_sweep(sweep_scenario(mc_symbols=0))
    written = emit(res, tmp_path / "out", "sweep", plots=True)
    assert os.path.exists(written[0])
    assert written[0].endswith("sweep.csv")
    svg = [p for p in written if p.endswith(".svg")]
    assert svg and os.path.getsize(svg[0]) > 0


def test_emit_cdf_plot(tmp_path):
    res = run_cdf_map(tiny_map_scenario())
    written = emit(res, tmp_path, "cdfmap", plots=True)
    assert any(p.endswith("cdfmap.svg") for p in written)


def test_emit_svg_is_well_formed_for_every_kind(tmp_path):
    """Each result kind gives a parseable SVG with only finite coordinates,
    including Monte Carlo columns of NaN, outage rows with infinite
    required SNR and EE points that are zero or NaN."""
    cdf = run_cdf_map(tiny_map_scenario(kappa_b=1.0))
    assert any(math.isinf(r["gamma_rx_db"]) for r in cdf.rows)
    ber_up, ee = run_uplink_eval(uplink_scenario(uplink_snr_start_db=120.0))
    eta = [r["eta_ee"] for r in ee.rows]
    assert any(math.isnan(v) for v in eta) and 0.0 in eta
    results = {"ber": run_ber_sweep(sweep_scenario(mc_symbols=0)),
               "cdf": cdf, "uplink_ber": ber_up, "uplink_ee": ee}
    coords = {"x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "r", "width",
              "height", "points", "transform", "viewBox"}
    for name, res in results.items():
        written = emit(res, tmp_path, name, plots=True)
        assert written[-1] == os.path.join(tmp_path, name + ".svg")
        root = ET.parse(written[-1]).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        for elem in root.iter():
            for key, value in elem.attrib.items():
                if key in coords:
                    assert "nan" not in value.lower(), (name, key, value)
                    assert "inf" not in value.lower(), (name, key, value)
