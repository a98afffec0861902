"""Rotation algebra, access point lattice and device layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from lifisim import (DevicePose, Scenario, ap_positions, device_layout,
                     element_world_pose, mdr_layout, rotation_matrix,
                     sr_layout)

ANGLE = st.floats(min_value=-360.0, max_value=360.0,
                  allow_nan=False, allow_infinity=False)


def test_rotation_identity_at_zero():
    np.testing.assert_allclose(rotation_matrix(0, 0, 0), np.eye(3), atol=1e-15)


def test_rotation_single_axis_pins():
    # yaw +90: East goes to North
    np.testing.assert_allclose(rotation_matrix(90, 0, 0) @ [1, 0, 0],
                               [0, 1, 0], atol=1e-15)
    # pitch +90 about x: North goes to Up
    np.testing.assert_allclose(rotation_matrix(0, 90, 0) @ [0, 1, 0],
                               [0, 0, 1], atol=1e-15)
    # roll +90 about y: Up goes to East
    np.testing.assert_allclose(rotation_matrix(0, 0, 90) @ [0, 0, 1],
                               [1, 0, 0], atol=1e-15)


def test_rotation_composition_order():
    # R must equal R_alpha @ R_beta @ R_gamma, i.e. intrinsic z-x-y.
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, g = rng.uniform(-180, 180, size=3)
        expected = Rotation.from_euler("ZXY", [a, b, g], degrees=True)
        np.testing.assert_allclose(rotation_matrix(a, b, g),
                                   expected.as_matrix(), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(ANGLE, ANGLE, ANGLE)
def test_rotation_orthonormal_property(a, b, g):
    r = rotation_matrix(a, b, g)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_orthonormal_bulk():
    rng = np.random.default_rng(0)
    triples = rng.uniform(-360, 360, size=(2000, 3))
    for a, b, g in triples:
        r = rotation_matrix(a, b, g)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12


def test_ap_lattice_coordinates():
    layout = ap_positions(Scenario())
    assert layout.positions.shape == (16, 3)
    xs = np.unique(layout.positions[:, 0])
    np.testing.assert_allclose(xs, [0.625, 1.875, 3.125, 4.375])
    np.testing.assert_allclose(layout.positions[:, 2], 2.95)
    np.testing.assert_allclose(layout.normals, np.tile([0, 0, -1.0], (16, 1)))


def test_ap_lattice_other_sizes():
    layout = ap_positions(Scenario(n_ap_side=1))
    np.testing.assert_allclose(layout.positions[0, :2], [2.5, 2.5])
    with pytest.raises(ValueError, match="n_ap_side"):
        ap_positions(Scenario(n_ap_side=0))


def test_screen_layout_geometry():
    lay = sr_layout()
    assert lay.n_elements == 4
    # coplanar on the screen, all looking out of it
    np.testing.assert_allclose(lay.local_positions[:, 2], 0.0)
    np.testing.assert_allclose(lay.local_normals, np.tile([0, 0, 1.0], (4, 1)))
    xs = lay.local_positions[:, 0]
    spacing = np.diff(np.sort(xs))
    np.testing.assert_allclose(spacing, 0.07 / 4)
    assert abs(xs.mean()) < 1e-15


def test_multidirectional_layout_geometry():
    lay = mdr_layout()
    assert lay.n_elements == 4
    norms = np.linalg.norm(lay.local_normals, axis=1)
    np.testing.assert_allclose(norms, 1.0)
    # four distinct look directions: screen, top edge, both sides
    dots = lay.local_normals @ lay.local_normals.T
    assert np.all(dots[~np.eye(4, dtype=bool)] <= 1e-12)


def test_device_layout_factory():
    assert device_layout("SR").variant == "sr"
    assert device_layout("mdr").variant == "mdr"
    with pytest.raises(ValueError):
        device_layout("corner")


def test_element_world_pose_translation_only():
    lay = sr_layout()
    pose = DevicePose(position=np.array([1.0, 2.0, 0.8]), omega_deg=90.0)
    pos, nrm = element_world_pose(pose, lay)
    np.testing.assert_allclose(pos, lay.local_positions + [1.0, 2.0, 0.8])
    np.testing.assert_allclose(nrm, lay.local_normals)


def test_element_world_pose_rigid_body():
    lay = mdr_layout()
    rng = np.random.default_rng(3)
    ref = lay.local_positions
    d_ref = np.linalg.norm(ref[:, None, :] - ref[None, :, :], axis=-1)
    for _ in range(25):
        angles = tuple(rng.uniform(-180, 180, size=3))
        pose = DevicePose(position=rng.uniform(0, 5, size=3),
                          omega_deg=0.0, angles_deg=angles)
        pos, nrm = element_world_pose(pose, lay)
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.testing.assert_allclose(d, d_ref, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(nrm, axis=1), 1.0)
        # normals rotate with the body: relative angles preserved
        np.testing.assert_allclose(nrm @ nrm.T,
                                   lay.local_normals @ lay.local_normals.T,
                                   atol=1e-12)


def test_element_world_pose_tilt():
    # pitching the device back by 90 deg points the screen normal North
    lay = sr_layout()
    pose = DevicePose(position=np.zeros(3), omega_deg=90.0,
                      angles_deg=(0.0, -90.0, 0.0))
    _, nrm = element_world_pose(pose, lay)
    np.testing.assert_allclose(nrm, np.tile([0, 1.0, 0], (4, 1)), atol=1e-12)
