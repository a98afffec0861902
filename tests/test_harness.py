"""Experiment harness: lattices, runners, worker determinism, CSV I/O."""

import ctypes
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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
from lifisim import harness
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
    order = builder.source.order
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
    samples = orwp_generate(sc.orwp(), sc.stats(), rng)[:n_poses]
    assert len(samples) == n_poses
    for i, s in enumerate(samples):
        pose, blockers, H = builder.realize(i, s.position[0], s.position[1],
                                            s.omega_deg, s.angles_deg)
        assert len(blockers) == 6
        ref = _reference_channel(builder, pose, blockers)
        np.testing.assert_allclose(H, ref, rtol=1e-12, atol=0.0)


def _nlos_gain_channel(builder, pose, blockers):
    """H the way ChannelBuilder.channel composed it from nlos_gain: the
    blocked LOS matrix plus the diffuse gains of the pose."""
    sc = builder.sc
    elem_pos, elem_nrm = element_world_pose(pose, builder.layout)
    aps = (builder.aps.positions, builder.aps.normals)
    tx, rx = ((aps, (elem_pos, elem_nrm)) if sc.direction == "downlink"
              else ((elem_pos, elem_nrm), aps))
    order = builder.source.order
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
    # AP-to-mesh mask is reused; any other blocker list recomputes it
    base = dict(device="mdr", scheme="sm", n_active=4,
                spectral_efficiency=5, include_nlos=True,
                mesh_resolution=0.5, grid_step=2.0, n_directions=2,
                orientations_per_point=3, seed=4)
    sc = scenario_from_dict({**base, **over})
    builder = ChannelBuilder(sc)
    tests = []
    if builder.solver is not None:
        inner = builder._ap_mesh.blocked

        def counted(blockers):
            tests.append(blockers)
            return inner(blockers)

        monkeypatch.setattr(builder._ap_mesh, "blocked", counted)
    blocker_lists = []
    for task in harness._tasks(sc)[:24]:
        pose, blockers, H = builder.realize(*task)
        np.testing.assert_array_equal(
            H, _nlos_gain_channel(builder, pose, blockers))
        blocker_lists.append(blockers)
    if builder.solver is None:
        return
    changes = sum(1 for prev, cur in zip([None] + blocker_lists,
                                         blocker_lists)
                  if cur and cur != prev)
    assert len(tests) == changes
    if reuse:
        assert 0 < changes < len(blocker_lists)     # hits and misses


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
    pts = grid_positions(4.0, 3.0, 1.0, margin=0.5)
    xs = sorted({p[0] for p in pts})
    ys = sorted({p[1] for p in pts})
    assert xs == pytest.approx([0.5, 1.5, 2.5, 3.5])
    assert ys == pytest.approx([0.5, 1.5, 2.5])


@pytest.mark.parametrize("width,depth,step,margin", [
    (5.0, 5.0, 0.25, 0.25), (5.0, 5.0, 0.1, 0.25), (4.0, 3.0, 1.0, 0.5),
    (5.0, 5.0, 0.3, 0.25), (0.5, 0.5, 0.25, 0.25), (0.4, 3.0, 0.2, 0.25)])
def test_grid_size_counts_grid_positions(width, depth, step, margin):
    assert grid_size(width, depth, step, margin) == len(
        grid_positions(width, depth, step, margin))


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
    res = RunResult(kind="ber", columns=["a", "scheme"],
                    rows=[{"a": 1.5, "scheme": "sm"},
                          {"a": 2, "scheme": "asm"}],
                    scenario=Scenario())
    assert res.column("a") == pytest.approx([1.5, 2.0])
    assert np.isnan(res.column("scheme")).all()


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
    assert seq.rows == par.rows
    assert seq.meta == par.meta


def test_cdf_map_worker_determinism_with_reflections(pool_starts):
    # the workers factor the reflection system before dropping to one
    # BLAS thread: OpenBLAS rounds the LU factors of this 440-element
    # mesh differently with another thread count
    sc = tiny_map_scenario(include_nlos=True, mesh_resolution=0.5,
                           kappa_b=0.0)
    assert run_cdf_map(sc, workers=1).rows == run_cdf_map(sc, workers=2).rows
    assert pool_starts == [2]


def _blas_threads(builder, task):
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


def test_pool_workers_run_one_blas_thread():
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    before = _blas_threads(None, None)
    if not before:
        pytest.skip("no scipy-openblas library is loaded")
    inside = harness._run_tasks(tiny_map_scenario(), _blas_threads,
                                list(range(8)), workers=2)
    assert inside == [dict.fromkeys(before, 1)] * 8
    assert _blas_threads(None, None) == before     # the parent keeps its pools


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
        pose, _, H = builder.realize(row["realization"], row["x"], row["y"],
                                     row["omega_deg"])
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


# -- ORWP run --------------------------------------------------------------

def test_orwp_eval_matches_trajectory():
    sc = tiny_map_scenario(activity="walking", kappa_b=0.0,
                           n_waypoints=3, seed=5)
    res = run_orwp_eval(sc)
    assert res.kind == "orwp"
    assert res.columns == CDF_COLUMNS
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, 0]))
    samples = orwp_generate(sc.orwp(), sc.stats(), rng)
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


def test_ber_sweep_random_orientation_workers():
    sc = sweep_scenario(orientation="random", orientations_per_point=3,
                        mc_symbols=0, kappa_b=0.1)
    seq = run_ber_sweep(sc, workers=1)
    par = run_ber_sweep(sc, workers=2)
    assert seq.rows == par.rows
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
        H = builder.realize(i, x, y, sc.omega(), None)[2]
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


def test_uplink_eval_walking_and_workers():
    sc = uplink_scenario(activity="walking", n_waypoints=2, seed=9)
    seq_ber, seq_ee = run_uplink_eval(sc, workers=1)
    par_ber, par_ee = run_uplink_eval(sc, workers=2)
    assert seq_ber.rows == par_ber.rows
    assert seq_ee.rows == par_ee.rows
    assert seq_ber.meta == par_ber.meta
    assert len(seq_ber.rows) == 3


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
