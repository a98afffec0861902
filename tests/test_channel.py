"""LOS gain formula, boundary mesh and the infinite-reflection solver."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lu_factor

import lifisim.channel as channel
from lifisim import (Blocker, RadiosityError, RadiositySolver, Scenario,
                     SurfaceMesh, build_environment_mesh, lambertian_order,
                     los_gain_matrix, nlos_gain)
from lifisim.channel import (ELEMENT_FOV_DEG, ELEMENT_ORDER, _los_gain,
                             _los_geometry, _transfer_matrix)

#: The default link end: an order-1 source and a 0.25 cm^2, 60 degree
#: detector.
SRC = SimpleNamespace(order=lambertian_order(60.0), area=0.25e-4,
                      fov_deg=60.0)


def test_lambertian_order_of_60_degree_semiangle():
    assert SRC.order == pytest.approx(1.0, abs=1e-12)
    assert lambertian_order(30.0) == pytest.approx(
        -1.0 / np.log2(np.cos(np.pi / 6)))


def test_lambertian_order_validation():
    # pd_area and fov_deg are checked by config._validate (test_config.py)
    for semiangle in (0.0, 90.0, -10.0, 95.0):
        with pytest.raises(ValueError, match="semiangle must lie in"):
            lambertian_order(semiangle)


def los_gain(tx_pos, tx_normal, rx_pos, rx_normal, source):
    """The one-link case of los_gain_matrix."""
    return los_gain_matrix([tx_pos], [tx_normal], [rx_pos], [rx_normal],
                           source.order, source.area, source.fov_deg)[0, 0]


def test_los_gain_aligned_hand_value():
    # k=1, perfect alignment at d=2.15 m: gain = A / (pi d^2)
    g = los_gain([0, 0, 2.95], [0, 0, -1], [0, 0, 0.8], [0, 0, 1], SRC)
    assert g == pytest.approx(0.25e-4 / (np.pi * 2.15 ** 2), rel=1e-12)
    assert g == pytest.approx(1.7216e-6, rel=1e-4)


def test_los_gain_off_axis_formula():
    tx = np.array([0.0, 0.0, 3.0])
    rx = np.array([1.0, 1.0, 0.8])
    g = los_gain(tx, [0, 0, -1], rx, [0, 0, 1], SRC)
    d = np.linalg.norm(rx - tx)
    cos = 2.2 / d                       # radiance and incidence coincide here
    expected = 2 / (2 * np.pi * d ** 2) * 0.25e-4 * cos * cos
    assert g == pytest.approx(expected, rel=1e-12)


def test_los_gain_fov_cutoff():
    tx = [0.0, 0.0, 2.0]
    rx = [0.0, 0.0, 0.0]

    def tilted(psi_deg):
        n = [np.sin(np.deg2rad(psi_deg)), 0.0, np.cos(np.deg2rad(psi_deg))]
        return los_gain(tx, [0, 0, -1], rx, n, SRC)

    assert tilted(59.9) > 0.0
    assert tilted(60.1) == 0.0
    assert tilted(95.0) == 0.0          # receiver looking away
    # transmitter lobe pointing away from the link
    assert los_gain(tx, [0, 0, 1], rx, [0, 0, 1], SRC) == 0.0


def test_los_gain_matrix_matches_scalar():
    rng = np.random.default_rng(3)
    tx = rng.uniform([0, 0, 2.5], [5, 5, 3.0], size=(5, 3))
    rx = rng.uniform([0, 0, 0.2], [5, 5, 1.5], size=(4, 3))
    txn = np.tile([0, 0, -1.0], (5, 1))
    rxn = rng.normal(size=(4, 3))
    rxn /= np.linalg.norm(rxn, axis=1, keepdims=True)
    got = los_gain_matrix(tx, txn, rx, rxn, SRC.order, SRC.area, SRC.fov_deg)
    assert got.shape == (4, 5)
    assert (got >= 0).all()
    for i in range(4):
        for j in range(5):
            # the gain formula, link by link
            d = rx[i] - tx[j]
            dist = np.linalg.norm(d)
            cos_phi = txn[j] @ d / dist
            cos_psi = -rxn[i] @ d / dist
            lit = cos_phi > 0 and cos_psi >= np.cos(np.deg2rad(SRC.fov_deg))
            s = (SRC.order + 1) / (2 * np.pi * dist ** 2) * SRC.area * (
                cos_phi ** SRC.order * cos_psi) if lit else 0.0
            assert got[i, j] == pytest.approx(s, rel=1e-12, abs=1e-30)
            assert got[i, j] == los_gain(tx[j], txn[j], rx[i], rxn[i], SRC)


def test_los_gain_matrix_zero_for_coincident():
    pos = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    nrm = np.tile([0, 0, 1.0], (2, 1))
    g = los_gain_matrix(pos, nrm, pos, nrm, 1.0, 1e-4, 90.0)
    assert g[0, 0] == 0.0 and g[1, 1] == 0.0


@pytest.mark.parametrize("n_rx", [12, 13, 1])
@pytest.mark.parametrize("per_receiver", [False, True])
def test_los_gain_matrix_chunks_match_one_evaluation(monkeypatch, n_rx,
                                                     per_receiver):
    rng = np.random.default_rng(11)
    tx = rng.uniform([0, 0, 2.5], [5, 5, 3.0], size=(5, 3))
    txn = rng.normal([0, 0, -1], 0.3, size=(5, 3))
    txn /= np.linalg.norm(txn, axis=1, keepdims=True)
    rx = rng.uniform([0, 0, 0.2], [5, 5, 1.5], size=(n_rx, 3))
    rxn = rng.normal([0, 0, 1], 0.5, size=(n_rx, 3))
    rxn /= np.linalg.norm(rxn, axis=1, keepdims=True)
    tx[2] = rx[0]                       # a coincident pair
    area = rng.uniform(1e-5, 1e-4, size=n_rx) if per_receiver else 1e-4
    fov = rng.uniform(20.0, 90.0, size=n_rx) if per_receiver else 70.0
    args = (tx, txn, rx, rxn, 1.3, area, fov)
    whole = los_gain_matrix(*args)
    assert whole[0, 2] == 0.0 and (whole > 0).any()
    monkeypatch.setattr(channel, "LOS_PAIRS", 4 * len(tx))   # 4 rows a chunk
    chunked = los_gain_matrix(*args)
    assert chunked.shape == whole.shape
    assert chunked.tobytes() == whole.tobytes()
    # within the budget: a new C-ordered float64 array, bit for bit the
    # one evaluation
    monkeypatch.undo()
    cos_fov = np.cos(np.deg2rad(np.asarray(fov, dtype=float)))
    rows = _los_gain(*_los_geometry(tx, txn, rx, rxn), 1.3,
                     np.reshape(area, (-1, 1)), np.reshape(cos_fov, (-1, 1)))
    assert whole.dtype == np.float64 and whole.flags.c_contiguous
    assert whole.tobytes() == rows.tobytes()
    # no receivers, or no transmitters: an empty result of the right shape
    empty_rx = los_gain_matrix(tx, txn, np.empty((0, 3)), np.empty((0, 3)),
                               1.3, 1e-4, 70.0)
    empty_tx = los_gain_matrix(np.empty((0, 3)), np.empty((0, 3)), rx, rxn,
                               1.3, area, fov)
    assert empty_rx.shape == (0, 5) and empty_tx.shape == (n_rx, 0)


def test_geometric_reciprocity_at_order_one():
    # k=1 makes the geometry factor symmetric under role exchange
    rng = np.random.default_rng(5)
    for _ in range(20):
        pa, pb = rng.uniform(0, 5, size=(2, 3))
        na, nb = rng.normal(size=(2, 3))
        na /= np.linalg.norm(na)
        nb /= np.linalg.norm(nb)
        fwd = los_gain_matrix(pa[None], na[None], pb[None], nb[None],
                              1.0, 1e-4, 90.0)[0, 0]
        rev = los_gain_matrix(pb[None], nb[None], pa[None], na[None],
                              1.0, 1e-4, 90.0)[0, 0]
        assert fwd == pytest.approx(rev, rel=1e-12)


def test_four_fold_lattice_symmetry():
    from lifisim import ap_positions
    aps = ap_positions(Scenario())
    g = los_gain_matrix(aps.positions, aps.normals,
                        np.array([[2.5, 2.5, 0.8]]), np.array([[0, 0, 1.0]]),
                        SRC.order, SRC.area, SRC.fov_deg)[0]
    r = np.linalg.norm(aps.positions[:, :2] - 2.5, axis=1).round(9)
    for radius in np.unique(r):
        group = g[r == radius]
        np.testing.assert_allclose(group, group[0], rtol=1e-12)


def test_mesh_element_count_and_areas():
    mesh = build_environment_mesh(Scenario())
    assert mesh.n_elements == 440
    assert mesh.areas.sum() == pytest.approx(110.0, rel=1e-12)
    np.testing.assert_allclose(mesh.areas, 0.25)


def test_mesh_area_exact_for_non_dividing_resolution():
    mesh = build_environment_mesh(Scenario(mesh_resolution=0.45))
    assert mesh.areas.sum() == pytest.approx(110.0, rel=1e-12)
    coarse = build_environment_mesh(Scenario(mesh_resolution=10.0))
    assert coarse.n_elements == 6       # one element per face
    assert coarse.areas.sum() == pytest.approx(110.0, rel=1e-12)
    with pytest.raises(ValueError, match="mesh_resolution"):
        build_environment_mesh(Scenario(mesh_resolution=0.0))


def test_mesh_reflectivities_and_inward_normals():
    sc = Scenario()
    mesh = build_environment_mesh(sc)
    floor = mesh.centers[:, 2] == 0.0
    ceiling = mesh.centers[:, 2] == sc.room_height
    walls = ~(floor | ceiling)
    assert np.all(mesh.rho[floor] == sc.rho_floor)
    assert np.all(mesh.rho[ceiling] == sc.rho_ceiling)
    assert np.all(mesh.rho[walls] == sc.rho_walls)
    np.testing.assert_allclose(np.linalg.norm(mesh.normals, axis=1), 1.0)
    to_center = np.array([2.5, 2.5, 1.5]) - mesh.centers
    assert (np.einsum("ij,ij->i", to_center, mesh.normals) > 0).all()


def _single_link_setup():
    tx = np.array([[3.125, 3.125, 2.95]])
    txn = np.array([[0.0, 0.0, -1.0]])
    rx = np.array([[2.5, 2.5, 0.8]])
    rxn = np.array([[0.0, 0.0, 1.0]])
    return tx, txn, rx, rxn


def test_nlos_zero_reflectivity():
    room = Scenario(rho_walls=0.0, rho_floor=0.0, rho_ceiling=0.0,
                    mesh_resolution=1.0)
    solver = RadiositySolver(build_environment_mesh(room))
    assert solver.spectral_radius == 0.0
    tx, txn, rx, rxn = _single_link_setup()
    g = nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area, SRC.fov_deg, solver)
    assert g[0, 0] == 0.0


def _neumann_oracle(mesh, tx, txn, rx, rxn, n_terms):
    """Truncated reflection series r^T G_rho sum (E G_rho)^n t."""
    e = los_gain_matrix(mesh.centers, mesh.normals, mesh.centers,
                        mesh.normals, ELEMENT_ORDER, mesh.areas,
                        ELEMENT_FOV_DEG)
    np.fill_diagonal(e, 0.0)
    eg = e * mesh.rho[None, :]
    t = los_gain_matrix(tx, txn, mesh.centers, mesh.normals,
                        SRC.order, mesh.areas, ELEMENT_FOV_DEG)[:, 0]
    r = los_gain_matrix(mesh.centers, mesh.normals, rx, rxn,
                        ELEMENT_ORDER, SRC.area, SRC.fov_deg)[0]
    total = np.zeros_like(t)
    term = t.copy()
    for _ in range(n_terms + 1):
        total += term
        term = eg @ term
    return float((r * mesh.rho) @ total)


def test_nlos_matches_truncated_series_at_low_reflectivity():
    room = Scenario(rho_walls=0.05, rho_floor=0.05, rho_ceiling=0.05)
    mesh = build_environment_mesh(room)
    solver = RadiositySolver(mesh)
    tx, txn, rx, rxn = _single_link_setup()
    full = nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area, SRC.fov_deg,
                     solver)[0, 0]
    truncated = _neumann_oracle(mesh, tx, txn, rx, rxn, n_terms=3)
    assert full == pytest.approx(truncated, rel=1e-4)
    # for the single-bounce comparison the receiver must face the lit
    # floor; an upward receiver only sees it after a second bounce, so
    # the first-order term is never dominant on that link
    rxn_down = np.array([[0.0, 0.0, -1.0]])
    full_down = nlos_gain(tx, txn, SRC.order, rx, rxn_down, SRC.area,
                          SRC.fov_deg, solver)[0, 0]
    first_order = _neumann_oracle(mesh, tx, txn, rx, rxn_down, n_terms=0)
    assert abs(full_down - first_order) / first_order < 0.05


def test_nlos_matches_series_at_table_reflectivities():
    mesh = build_environment_mesh(Scenario())
    solver = RadiositySolver(mesh)
    tx, txn, rx, rxn = _single_link_setup()
    full = nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area, SRC.fov_deg,
                     solver)[0, 0]
    series = _neumann_oracle(mesh, tx, txn, rx, rxn, n_terms=60)
    assert full == pytest.approx(series, rel=1e-6)
    assert 0.0 < full < 1.0


def test_radiosity_factors_the_reflection_system_bit_for_bit():
    mesh = build_environment_mesh(Scenario())
    solver = RadiositySolver(mesh)
    e = los_gain_matrix(mesh.centers, mesh.normals, mesh.centers,
                        mesh.normals, ELEMENT_ORDER, mesh.areas,
                        ELEMENT_FOV_DEG)
    np.fill_diagonal(e, 0.0)
    eg = e * mesh.rho[None, :]
    lu, piv = lu_factor(np.eye(mesh.n_elements) - eg)
    assert np.ascontiguousarray(solver._lu[0]).tobytes() == lu.tobytes()
    assert np.array_equal(solver._lu[1], piv)
    # the power-iteration estimate is the Perron root of E G_rho
    radius = np.abs(np.linalg.eigvals(eg)).max()
    assert solver.spectral_radius == pytest.approx(radius, rel=1e-9)
    assert 0.0 < solver.spectral_radius < 1.0


def _shuffled_tilted_mesh():
    """The 1 m mesh in random order, so equal normals are not
    contiguous, with one element tilted 20 degrees up and moved 0.1 m
    off its wall, so that it sees the wall elements above it."""
    mesh = build_environment_mesh(Scenario(mesh_resolution=1.0))
    order = np.random.default_rng(3).permutation(mesh.n_elements)
    centers, normals = mesh.centers[order], mesh.normals[order]
    wall = np.flatnonzero(normals[:, 0] == 1.0)[0]
    tilt = np.deg2rad(20.0)
    normals[wall] = (np.cos(tilt), 0.0, np.sin(tilt))
    centers[wall, 0] += 0.1
    return SurfaceMesh(centers=centers, normals=normals,
                       areas=mesh.areas[order], rho=mesh.rho[order])


@pytest.mark.parametrize("mesh,los_pairs", [
    (dict(mesh_resolution=0.5), channel.LOS_PAIRS),
    (dict(mesh_resolution=0.5), 1000),          # several chunks a face pair
    (dict(mesh_resolution=0.25), channel.LOS_PAIRS),
    (dict(mesh_resolution=0.3), channel.LOS_PAIRS),
    (dict(room_width=4.3, room_depth=6.1, mesh_resolution=0.37),
     channel.LOS_PAIRS),
    ("shuffled", channel.LOS_PAIRS),
    ("shuffled", 7),
])
def test_transfer_matrix_is_los_gain_matrix_bit_for_bit(monkeypatch, mesh,
                                                        los_pairs):
    mesh = (_shuffled_tilted_mesh() if mesh == "shuffled"
            else build_environment_mesh(Scenario(**mesh)))
    e = los_gain_matrix(mesh.centers, mesh.normals, mesh.centers,
                        mesh.normals, ELEMENT_ORDER, mesh.areas,
                        ELEMENT_FOV_DEG)
    np.fill_diagonal(e, 0.0)
    monkeypatch.setattr(channel, "LOS_PAIRS", los_pairs)
    got = _transfer_matrix(mesh)
    assert got.flags.f_contiguous and got.shape == e.shape
    assert np.ascontiguousarray(got).tobytes() == e.tobytes()


def test_radiosity_setup_memory_at_the_benchmark_mesh():
    # one unchunked LOS call and four n x n copies peaked at 10.1 n^2
    mesh = build_environment_mesh(Scenario(mesh_resolution=0.25))
    n = mesh.n_elements
    assert n == 1760
    tracemalloc.start()
    try:
        RadiositySolver(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n ** 2 * 8            # 71 MiB


def test_radiosity_residual():
    mesh = build_environment_mesh(Scenario())
    solver = RadiositySolver(mesh)
    tx, txn, _, _ = _single_link_setup()
    t = los_gain_matrix(tx, txn, mesh.centers, mesh.normals,
                        SRC.order, mesh.areas, ELEMENT_FOV_DEG)
    x = solver.solve(t)
    e = los_gain_matrix(mesh.centers, mesh.normals, mesh.centers,
                        mesh.normals, ELEMENT_ORDER, mesh.areas,
                        ELEMENT_FOV_DEG)
    np.fill_diagonal(e, 0.0)
    system = np.eye(mesh.n_elements) - e * mesh.rho[None, :]
    residual = np.linalg.norm(system @ x - t)
    assert residual <= 1e-10 * np.linalg.norm(t)


def test_nlos_monotone_in_reflectivity():
    tx, txn, rx, rxn = _single_link_setup()

    def gain(rho_w):
        room = Scenario(rho_walls=rho_w)
        solver = RadiositySolver(build_environment_mesh(room))
        return nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area,
                         SRC.fov_deg, solver)[0, 0]

    g1, g2, g3 = gain(0.3), gain(0.6), gain(0.9)
    assert g1 < g2 < g3


def test_nlos_mesh_refinement_convergence():
    # self-convergence of the discretization on the room-center geometry
    tx, txn, rx, rxn = _single_link_setup()
    gains = {}
    for res in (0.25, 0.125):
        solver = RadiositySolver(build_environment_mesh(
            Scenario(mesh_resolution=res)))
        gains[res] = nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area,
                               SRC.fov_deg, solver)[0, 0]
    assert gains[0.25] == pytest.approx(gains[0.125], rel=0.05)


def test_nlos_blockage_cuts_first_and_last_segments():
    mesh = build_environment_mesh(Scenario())
    solver = RadiositySolver(mesh)
    tx, txn, rx, rxn = _single_link_setup()
    free = nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area, SRC.fov_deg,
                     solver)
    body = Blocker(center=(2.8, 2.8), facing_deg=0.0)
    partial = nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area, SRC.fov_deg,
                        solver, blockers=[body])
    assert 0.0 < partial[0, 0] < free[0, 0]
    # a box enclosing the receiver blocks every collection segment
    cage = Blocker(center=(2.5, 2.5), facing_deg=0.0,
                   length=0.9, width=0.9, height=1.2)
    caged = nlos_gain(tx, txn, SRC.order, rx, rxn, SRC.area, SRC.fov_deg,
                      solver, blockers=[cage])
    assert caged[0, 0] == 0.0


def test_radiosity_divergence_detected():
    # two huge facing plates closer than their size: runaway reflections
    centers = np.array([[0.0, 0.0, 1.0], [0.01, 0.0, 1.0]])
    normals = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    mesh = SurfaceMesh(centers=centers, normals=normals,
                       areas=np.array([0.01, 0.01]),
                       rho=np.array([1.0, 1.0]))
    with pytest.raises(RadiosityError):
        RadiositySolver(mesh)
