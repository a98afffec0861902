"""Acceptance gate: eight system-level criteria with pinned tolerances.

Each criterion prints a single PASS/FAIL line. Criterion 2 is stated
as written: the high-SNR gap between the transmit spectral efficiency
and the achievable rate should approach the smaller of the two
asymptotic gap constants. With the rate bounds implemented exactly as
specified, the second bound saturates far below the symbol entropy for
tall channels (its large-SNR limit depends on the channel rank and the
squared symbol norms), so the gap settles at the first bound's
constant instead and the criterion fails. It is kept faithful rather
than weakened.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kurtosis

from lifisim import (
    Blocker,
    RadiositySolver,
    SITTING_STATS,
    Scenario,
    WALKING_STATS,
    ar1_params,
    ar1_sequence,
    build_constellation,
    build_environment_mesh,
    build_mimo_constellation,
    high_snr_gaps,
    lambertian_order,
    los_gain_matrix,
    mi_monte_carlo,
    ml_detect,
    nlos_gain,
    rate_bounds,
    rotation_matrix,
    run_ber_sweep,
    run_cdf_map,
    run_uplink_eval,
    sample_static_orientation,
    scenario_from_dict,
    segments_blocked,
)
from lifisim.channel import ELEMENT_FOV_DEG, ELEMENT_ORDER


def _report(num, ok, detail):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- criterion 1: asymptotic gap worked example ----------------------------

def test_criterion_1_high_snr_gap_exactness():
    t0 = time.perf_counter()
    g_a = high_snr_gaps(4, 4, 16)
    g_b = high_snr_gaps(4, 16, 4)
    elapsed = time.perf_counter() - t0
    errs = [abs(g_a[0] - 3.5416), abs(g_a[1] - 0.0319),
            abs(g_b[0] - 0.8854), abs(g_b[1] - 4.4850)]
    ok = max(errs) <= 5e-4 and elapsed < 1.0
    assert _report(1, ok, f"gaps {g_a[0]:.4f}/{g_a[1]:.4f} and "
                          f"{g_b[0]:.4f}/{g_b[1]:.4f}, max err {max(errs):.2e}, "
                          f"{elapsed:.3f}s")


# -- criterion 2: high-SNR convergence of the rate gap ---------------------

def test_criterion_2_high_snr_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    H = rng.uniform(0.2, 1.0, (16, 4)) + 0.5 * np.eye(16, 4)
    assert np.linalg.cond(H) < 20.0  # well-conditioned by construction
    c = build_constellation(4, 4)
    sigma2 = 10.0 ** (-60.0 / 10.0)  # I^2/sigma^2 = 60 dB at I = 1
    bounds = rate_bounds(c, H, sigma2)
    gap = np.log2(c.K) - bounds.rate
    target = min(high_snr_gaps(4, 4, 16))
    elapsed = time.perf_counter() - t0
    ok = abs(gap - target) <= 0.05 and elapsed < 10.0
    assert _report(2, ok,
                   f"gap {gap:.4f} vs min asymptotic gap {target:.4f} "
                   f"(tol 0.05; L1 {bounds.l1:.4f}, L2 {bounds.l2:.4f}), "
                   f"{elapsed:.2f}s")


# -- criterion 3: bound validity against the MC estimator ------------------

@pytest.mark.slow
def test_criterion_3_bound_validity_oracle():
    rng = np.random.default_rng(33)
    c = build_constellation(4, 4)
    snrs_db = (0.0, 10.0, 20.0, 30.0, 40.0)
    violations = 0
    worst = np.inf
    for _ in range(100):
        H = rng.uniform(0.0, 1.0, (4, 4))
        for s_db in snrs_db:
            sigma2 = 10.0 ** (-s_db / 10.0)
            b = rate_bounds(c, H, sigma2)
            mi, se = mi_monte_carlo(c, H, sigma2, 100_000, rng)
            slack = mi + 3.0 * se - max(b.l1, b.l2)
            worst = min(worst, slack)
            if max(b.l1, 0.0) > mi + 3.0 * se or max(b.l2, 0.0) > mi + 3.0 * se:
                violations += 1
    ok = violations == 0
    assert _report(3, ok, f"{violations} violations over 500 combos, "
                          f"worst slack {worst:.4f} bits")


# -- criterion 4: union-bound tightness at the preset spot -----------------

def _crossing_db(snr_db, ber, level):
    """SNR where the log-BER curve crosses the level, by interpolation."""
    x = np.asarray(snr_db, dtype=float)
    y = np.asarray(ber, dtype=float)
    for i in range(len(x) - 1):
        if y[i] >= level >= y[i + 1] and y[i] > 0 and y[i + 1] > 0:
            la, lb = math.log10(y[i]), math.log10(y[i + 1])
            f = (la - math.log10(level)) / (la - lb)
            return x[i] + f * (x[i + 1] - x[i])
    return math.nan


def test_criterion_4_union_bound_tightness():
    sc = scenario_from_dict(dict(
        location="L1", device="mdr", activity="sitting",
        orientation="fixed", scheme="sm", n_active=4,
        spectral_efficiency=5, mesh_resolution=0.25, include_nlos=True,
        kappa_b=0.0, snr_start_db=30.0, snr_stop_db=46.0, snr_step_db=2.0,
        mc_symbols=1_000_000, seed=1))
    res = run_ber_sweep(sc)
    snr = [r["snr_db"] for r in res.rows]
    c_bound = _crossing_db(snr, [r["ber_bound"] for r in res.rows], 1e-2)
    c_mc = _crossing_db(snr, [r["ber_mc"] for r in res.rows], 1e-2)
    diff = abs(c_bound - c_mc)
    ok = math.isfinite(diff) and diff <= 1.0
    assert _report(4, ok, f"BER=1e-2 at {c_bound:.2f} dB (bound) vs "
                          f"{c_mc:.2f} dB (MC, 1e6 symbols), "
                          f"offset {diff:.3f} dB (tol 1 dB)")


# -- criterion 5: qualitative orderings at reduced scale -------------------

_MAPS = {}


def _cdf_map(device, scheme, n_active, r):
    key = (device, scheme, n_active, r)
    if key not in _MAPS:
        sc = scenario_from_dict(dict(
            direction="downlink", activity="sitting", device=device,
            scheme=scheme, n_active=n_active, spectral_efficiency=r,
            grid_step=1.0, n_directions=8, orientations_per_point=50,
            include_nlos=True, kappa_b=0.0, seed=2027))
        _MAPS[key] = run_cdf_map(sc)
    return _MAPS[key]


def _required_snr_db(result):
    return np.array([r["gamma_rx_db"] if r["feasible"] else np.inf
                     for r in result.rows])


@pytest.mark.slow
def test_criterion_5a_multi_face_beats_screen_receiver():
    g_mdr = _required_snr_db(_cdf_map("mdr", "asm", 4, 5))
    g_sr = _required_snr_db(_cdf_map("sr", "asm", 4, 5))
    gain = np.median(g_sr) - np.median(g_mdr)
    ok = gain >= 5.0
    assert _report("5a", ok,
                   f"median required SNR mdr {np.median(g_mdr):.2f} dB vs "
                   f"sr {np.median(g_sr):.2f} dB, gain {gain:.2f} dB (>= 5)")


@pytest.mark.slow
def test_criterion_5b_adaptive_dominates_every_fixed_count():
    g_asm = _required_snr_db(_cdf_map("mdr", "asm", 4, 5))
    total_viol = 0
    for n_a in (1, 2, 4, 8, 16):
        g_fixed = _required_snr_db(_cdf_map("mdr", "sm", n_a, 5))
        total_viol += int(np.sum(g_asm > g_fixed + 1e-9))
    ok = total_viol == 0
    assert _report("5b", ok,
                   f"{total_viol} per-realization violations over 5 fixed "
                   f"active-count maps x {g_asm.size} realizations")


@pytest.mark.slow
def test_criterion_5c_adaptive_dominates_full_mimo():
    g_asm = np.sort(_required_snr_db(_cdf_map("mdr", "asm", 4, 4)))
    g_mimo = np.sort(_required_snr_db(_cdf_map("mdr", "mimo", 4, 4)))
    viol = int(np.sum(g_asm > g_mimo + 1e-9))
    med_gap = np.median(g_mimo) - np.median(g_asm)
    ok = viol == 0
    assert _report("5c", ok,
                   f"empirical CDF dominance at R=4: {viol} rank violations, "
                   f"median gap {med_gap:.2f} dB")


def test_criterion_5d_los_only_error_floor():
    sc = scenario_from_dict(dict(
        location="L1", device="sr", activity="sitting",
        orientation="random", orientations_per_point=50, scheme="sm",
        n_active=4, spectral_efficiency=5, include_nlos=False,
        kappa_b=0.0, snr_start_db=40.0, snr_stop_db=60.0,
        snr_step_db=10.0, mc_symbols=100_000, seed=4))
    res = run_ber_sweep(sc)
    floors = [r["ber_mc"] for r in res.rows]
    ok = all(b > 1e-3 for b in floors)
    assert _report("5d", ok,
                   f"direct-light-only BER at 40/50/60 dB: "
                   + "/".join(f"{b:.1e}" for b in floors)
                   + " (all > 1e-3)")


# -- criterion 6: uplink orderings at reduced scale ------------------------

_UPLINK = {}


def _uplink(device, activity):
    key = (device, activity)
    if key not in _UPLINK:
        sc = scenario_from_dict(dict(
            direction="uplink", scheme="asm", device=device,
            activity=activity, grid_step=1.0, n_directions=8,
            orientations_per_point=50, n_waypoints=100, kappa_b=0.0,
            uplink_snr_start_db=120.0, uplink_snr_stop_db=170.0,
            uplink_snr_step_db=5.0, mi_samples=0, seed=2028))
        _UPLINK[key] = run_uplink_eval(sc)
    return _UPLINK[key]


def _log_ber_curve(ber_result):
    x = np.array([r["snr_db"] for r in ber_result.rows])
    y = np.array([r["ber_bound"] for r in ber_result.rows])
    keep = np.isfinite(x) & np.isfinite(y) & (y > 0)
    order = np.argsort(x[keep])
    return x[keep][order], np.log10(y[keep][order])


@pytest.mark.slow
def test_criterion_6_uplink_orderings():
    mdt_ber, mdt_ee = _uplink("mdr", "sitting")
    st_ber, st_ee = _uplink("sr", "sitting")
    walk_ber, _ = _uplink("mdr", "walking")

    # multi-face transmitter beats the screen one at matched received SNR
    xm, ym = _log_ber_curve(mdt_ber)
    xs, ys = _log_ber_curve(st_ber)
    lo, hi = max(xm.min(), xs.min()), min(xm.max(), xs.max())
    assert hi - lo >= 5.0, "received-SNR curves barely overlap"
    probes = np.linspace(lo, hi, 7)
    mdt_vs_st = np.all(np.interp(probes, xm, ym) < np.interp(probes, xs, ys))

    # mobility helps: the walking device sits higher, closer to the APs
    b_walk = np.array([r["ber_bound"] for r in walk_ber.rows])
    b_sit = np.array([r["ber_bound"] for r in mdt_ber.rows])
    both = np.isfinite(b_walk) & np.isfinite(b_sit)
    assert both.sum() >= 5
    walk_vs_sit = np.all(b_walk[both] < b_sit[both])

    # and the energy-efficiency ordering at matched achievable rate
    def ee_curve(res):
        x = np.array([r["eta_rse"] for r in res.rows])
        y = np.array([r["eta_ee"] for r in res.rows])
        keep = np.isfinite(x) & np.isfinite(y) & (x > 1e-3)
        order = np.argsort(x[keep])
        return x[keep][order], y[keep][order]

    rm, em = ee_curve(mdt_ee)
    rs, es = ee_curve(st_ee)
    lo, hi = max(rm.min(), rs.min()), min(rm.max(), rs.max())
    assert hi > lo
    pr = np.linspace(lo, hi, 5)
    ee_order = np.all(np.interp(pr, rm, em) > np.interp(pr, rs, es))

    ok = mdt_vs_st and walk_vs_sit and ee_order
    assert _report(6, ok,
                   f"matched-received-SNR BER mdt<st: {mdt_vs_st}; "
                   f"walking<sitting: {walk_vs_sit} "
                   f"({int(both.sum())} grid points); "
                   f"ee mdt>st at matched rate: {ee_order}")


# -- criterion 7: orientation statistics -----------------------------------

def test_criterion_7_orientation_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 1_000_000
    beta = np.empty(n)
    for i in range(n):
        beta[i] = sample_static_orientation(SITTING_STATS, 90.0, rng)[1]
    mean_err = abs(beta.mean() - 40.78) / 40.78
    std_err = abs(beta.std(ddof=1) - 2.39) / 2.39
    kurt = kurtosis(beta, fisher=False)
    kurt_err = abs(kurt - 6.0) / 6.0

    tc = WALKING_STATS.coherence_times[1]
    ts = tc / 10.0
    par = ar1_params(WALKING_STATS.beta_mean, WALKING_STATS.stds[1], tc, ts)
    seq = ar1_sequence(400_000, par, np.random.default_rng(8))
    lag = 10  # one coherence time
    ac = np.corrcoef(seq[:-lag], seq[lag:])[0, 1]
    elapsed = time.perf_counter() - t0

    ok = (mean_err <= 0.02 and std_err <= 0.02 and kurt_err <= 0.05
          and abs(ac - 0.05) <= 0.02 and elapsed < 30.0)
    assert _report(7, ok,
                   f"beta mean {beta.mean():.3f} (err {mean_err:.3%}), "
                   f"std {beta.std(ddof=1):.3f} (err {std_err:.3%}), "
                   f"kurtosis {kurt:.3f} (err {kurt_err:.3%}), "
                   f"lag-Tc autocorr {ac:.4f} (0.05 +/- 0.02), "
                   f"{elapsed:.1f}s")


# -- criterion 8: property suites -------------------------------------------

def _point_in_prism(points, blocker):
    phi = np.deg2rad(blocker.facing_deg)
    c, s = np.cos(phi), np.sin(phi)
    dx = points[:, 0] - blocker.center[0]
    dy = points[:, 1] - blocker.center[1]
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return ((np.abs(u) <= blocker.width / 2)
            & (np.abs(v) <= blocker.length / 2)
            & (points[:, 2] >= 0.0) & (points[:, 2] <= blocker.height))


def _random_blocker(rng):
    return Blocker(center=tuple(rng.uniform(0.5, 4.5, 2)),
                   facing_deg=float(rng.uniform(0.0, 360.0)),
                   length=float(rng.uniform(0.3, 1.2)),
                   width=float(rng.uniform(0.1, 0.6)),
                   height=float(rng.uniform(0.5, 2.5)))


def test_criterion_8_property_suites():
    notes = []

    # rotation matrices stay orthonormal and orientation-preserving
    rng = np.random.default_rng(80)
    worst_orth, worst_det = 0.0, 0.0
    for _ in range(10_000):
        a, b, g = rng.uniform(-180.0, 180.0, 3)
        R = rotation_matrix(a, b, g)
        worst_orth = max(worst_orth, np.abs(R.T @ R - np.eye(3)).max())
        worst_det = max(worst_det, abs(np.linalg.det(R) - 1.0))
    assert worst_orth <= 1e-12 and worst_det <= 1e-12
    notes.append(f"rotations 1e4 (orth {worst_orth:.1e})")

    # occlusion: dense point sampling never finds a hit the solver
    # misses, and adding a blocker never unblocks a segment
    rng = np.random.default_rng(81)
    t_grid = (np.arange(4096) + 0.5) / 4096
    for _ in range(1000):
        a = rng.uniform((0, 0, 0), (5, 5, 3))
        b = rng.uniform((0, 0, 0), (5, 5, 3))
        if np.allclose(a, b):
            continue
        b1, b2 = _random_blocker(rng), _random_blocker(rng)
        pts = a[None, :] + t_grid[:, None] * (b - a)[None, :]
        oracle = bool(_point_in_prism(pts, b1).any())
        one = bool(segments_blocked(a[None], b[None], [b1])[0])
        both = bool(segments_blocked(a[None], b[None], [b1, b2])[0])
        assert not (oracle and not one), "sampling oracle found a missed hit"
        assert not (one and not both), "added blocker unblocked a segment"
    notes.append("blockage 1e3 pairs")

    # reflection system: solved exactly, and series-consistent at low rho
    order, area, fov = lambertian_order(60.0), 0.25e-4, 60.0
    mesh = build_environment_mesh(Scenario())
    solver = RadiositySolver(mesh)
    tx = np.array([[3.125, 3.125, 2.95]])
    txn = np.array([[0.0, 0.0, -1.0]])
    rx = np.array([[2.5, 2.5, 0.8]])
    rxn = np.array([[0.0, 0.0, 1.0]])
    t = los_gain_matrix(tx, txn, mesh.centers, mesh.normals,
                        order, mesh.areas, ELEMENT_FOV_DEG)
    x = solver.solve(t)
    e = los_gain_matrix(mesh.centers, mesh.normals, mesh.centers,
                        mesh.normals, ELEMENT_ORDER, mesh.areas,
                        ELEMENT_FOV_DEG)
    np.fill_diagonal(e, 0.0)
    system = np.eye(mesh.n_elements) - e * mesh.rho[None, :]
    residual = float(np.linalg.norm(system @ x - t))
    assert residual <= 1e-10 * np.linalg.norm(t)
    notes.append(f"radiosity residual {residual / np.linalg.norm(t):.1e}")

    # single-bounce agreement needs a receiver that faces the lit floor;
    # an upward receiver sees it only after a second reflection
    rxn_down = np.array([[0.0, 0.0, -1.0]])
    low = build_environment_mesh(
        Scenario(rho_walls=0.05, rho_floor=0.05, rho_ceiling=0.05))
    full = nlos_gain(tx, txn, order, rx, rxn_down, area, fov,
                     RadiositySolver(low))[0, 0]
    t_low = los_gain_matrix(tx, txn, low.centers, low.normals,
                            order, low.areas, ELEMENT_FOV_DEG)[:, 0]
    r_low = los_gain_matrix(low.centers, low.normals, rx, rxn_down,
                            ELEMENT_ORDER, area, fov)[0]
    first_order = float((r_low * low.rho) @ t_low)
    gap = abs(full - first_order) / first_order
    assert gap <= 0.05
    notes.append(f"single-bounce series gap {gap:.3f}")

    # constellations: average emitted optical power is exactly I = 1
    for m, n_a in ((2, 2), (4, 4), (8, 2), (2, 16), (4, 1)):
        c = build_constellation(m, n_a)
        assert c.S.sum(axis=0).mean() == pytest.approx(1.0, rel=1e-13)
    for m, n_s in ((2, 4), (4, 2)):
        c = build_mimo_constellation(m, n_s)
        assert c.S.sum(axis=0).mean() == pytest.approx(1.0, rel=1e-13)
    notes.append("mean power exact")

    # ML detection equals the brute-force distance table
    rng = np.random.default_rng(82)
    c = build_constellation(4, 4)
    for _ in range(200):
        H = rng.uniform(0.0, 1.0, (4, 4))
        y = rng.normal(0.0, 1.0, 4)
        d = np.sum((y[:, None] - H @ c.S) ** 2, axis=0)
        assert ml_detect(y, H, c) == int(np.argmin(d))
    notes.append("ML brute force 200")

    # the full pipeline is reproducible across worker counts
    sc = scenario_from_dict(dict(
        direction="downlink", activity="sitting", device="mdr",
        scheme="asm", grid_step=2.0, n_directions=2,
        orientations_per_point=1, include_nlos=True, mesh_resolution=0.5,
        kappa_b=0.1, seed=77))
    seq = run_cdf_map(sc, workers=1)
    par = run_cdf_map(sc, workers=2)
    assert seq.data.tobytes() == par.data.tobytes()
    assert seq.meta == par.meta
    notes.append("determinism workers 1 vs 2")

    assert _report(8, True, "; ".join(notes))
