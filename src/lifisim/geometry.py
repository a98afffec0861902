"""Coordinate frames, rotation matrices, and room / device layouts.

Conventions used throughout the simulator:

* World frame: x to the East, y to the North, z up. The room occupies
  [0, h_x] x [0, h_y] x [0, h_z] with the floor at z = 0.
* Device frame: the reference point is the geometric center of the top
  edge of the device body, on the screen plane. Local +y points out of
  the top edge (away from the user), +x to the user's right, +z out of
  the screen. The body extends over y in [-length, 0] and z in
  [-thickness, 0].
* Angles are degrees at every public boundary; radians appear only
  inside formulas.

The device orientation is described by yaw alpha (about z), pitch beta
(about x) and roll gamma (about y), composed as R = R_alpha R_beta
R_gamma. With the device flat and its top edge pointing North the yaw
is zero, so a user facing the compass direction Omega (degrees from
East) holds the device at a mean yaw of Omega - 90.
"""

from dataclasses import dataclass, field

import numpy as np


def rotation_matrix(alpha_deg, beta_deg, gamma_deg):
    """Rotation matrix R = R_alpha(z) R_beta(x) R_gamma(y).

    Args:
        alpha_deg: yaw about the z axis, degrees.
        beta_deg: pitch about the x axis, degrees.
        gamma_deg: roll about the y axis, degrees.

    Returns:
        3x3 orthonormal array with determinant +1.
    """
    a = np.deg2rad(alpha_deg)
    b = np.deg2rad(beta_deg)
    g = np.deg2rad(gamma_deg)
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    r_alpha = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    r_beta = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    r_gamma = np.array([[cg, 0.0, sg], [0.0, 1.0, 0.0], [-sg, 0.0, cg]])
    return r_alpha @ r_beta @ r_gamma


@dataclass(frozen=True)
class Room:
    """Rectangular room with per-surface diffuse reflectivities."""

    width: float = 5.0          # h_x, m
    depth: float = 5.0          # h_y, m
    height: float = 3.0         # h_z, m
    rho_walls: float = 0.6
    rho_floor: float = 0.2
    rho_ceiling: float = 0.8

    def __post_init__(self):
        if min(self.width, self.depth, self.height) <= 0:
            raise ValueError("room dimensions must be positive")
        for rho in (self.rho_walls, self.rho_floor, self.rho_ceiling):
            if not 0.0 <= rho <= 1.0:
                raise ValueError("reflectivities must lie in [0, 1]")

    def contains(self, points):
        """Boolean mask of points inside the closed room volume."""
        p = np.atleast_2d(points)
        hi = np.array([self.width, self.depth, self.height])
        return np.all((p >= 0.0) & (p <= hi), axis=-1)


@dataclass(frozen=True)
class APLayout:
    """Ceiling-mounted access points on a square lattice, facing down."""

    positions: np.ndarray   # (n, 3)
    normals: np.ndarray     # (n, 3), all (0, 0, -1)


def ap_positions(room, n_per_side=4, height=2.95):
    """Access points on a centered n x n lattice below the ceiling.

    The lattice spacing is width / n along x (depth / n along y) and the
    outer rows sit half a spacing from the walls, so coverage margins
    are symmetric. For a 5 m room and n = 4 the x coordinates are
    0.625, 1.875, 3.125 and 4.375 m.
    """
    if n_per_side < 1:
        raise ValueError("n_per_side must be >= 1")
    dx = room.width / n_per_side
    dy = room.depth / n_per_side
    xs = dx / 2 + dx * np.arange(n_per_side)
    ys = dy / 2 + dy * np.arange(n_per_side)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(height))])
    nrm = np.tile([0.0, 0.0, -1.0], (pos.shape[0], 1))
    return APLayout(positions=pos, normals=nrm)


def _lattice_span(length, margin):
    """[start, stop) of the evaluation lattice along one room side."""
    return margin, length - margin + 1e-9


def grid_positions(width, depth, step, margin=0.25):
    """Evaluation lattice: points `step` apart, `margin` off the walls."""
    xs = np.arange(*_lattice_span(width, margin), step)
    ys = np.arange(*_lattice_span(depth, margin), step)
    return [(float(x), float(y)) for y in ys for x in xs]


def grid_size(width, depth, step, margin=0.25):
    """len(grid_positions(width, depth, step, margin)) without building
    the lattice; a float, which a tiny step takes to inf, not overflow."""
    def points(length):
        start, stop = _lattice_span(length, margin)
        return max(0.0, float(np.ceil((stop - start) / step)))
    return points(width) * points(depth)


# Device body dimensions (m): length along local y, width along local x,
# thickness along local z.
DEVICE_LENGTH = 0.14
DEVICE_WIDTH = 0.07
DEVICE_THICKNESS = 0.01


@dataclass(frozen=True)
class DeviceLayout:
    """Optical element placement on the hand-held device.

    Elements double as photodiodes (downlink receive) and IR LEDs
    (uplink transmit); the geometry is identical. Local positions are
    relative to the reference point at the center of the top edge.
    """

    variant: str                    # "sr" or "mdr"
    local_positions: np.ndarray     # (n, 3)
    local_normals: np.ndarray       # (n, 3), unit outward face normals

    @property
    def n_elements(self):
        return self.local_positions.shape[0]


def sr_layout():
    """Screen layout: four coplanar elements near the top edge.

    The elements sit 1 cm from the top edge, uniformly spaced across
    the 7 cm width (spacing width/4, half a spacing from each side).
    All normals point out of the screen (+z).
    """
    spacing = DEVICE_WIDTH / 4
    xs = -DEVICE_WIDTH / 2 + spacing / 2 + spacing * np.arange(4)
    pos = np.column_stack([xs, np.full(4, -0.01), np.zeros(4)])
    nrm = np.tile([0.0, 0.0, 1.0], (4, 1))
    return DeviceLayout(variant="sr", local_positions=pos, local_normals=nrm)


def mdr_layout():
    """Multi-directional layout: screen, top edge and both side faces.

    One element on the screen at the width center, 1 cm from the top
    edge; one at the center of the top face; one on each side face,
    1.5 cm from the top edge. Each normal is the outward normal of its
    face, so the four elements look in four different directions.
    """
    half_t = DEVICE_THICKNESS / 2
    pos = np.array([
        [0.0, -0.01, 0.0],                      # screen
        [0.0, 0.0, -half_t],                    # top face
        [-DEVICE_WIDTH / 2, -0.015, -half_t],   # left side
        [DEVICE_WIDTH / 2, -0.015, -half_t],    # right side
    ])
    nrm = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
    ])
    return DeviceLayout(variant="mdr", local_positions=pos, local_normals=nrm)


def device_layout(variant):
    """Layout factory keyed by variant name ("sr" or "mdr")."""
    v = variant.lower()
    if v == "sr":
        return sr_layout()
    if v == "mdr":
        return mdr_layout()
    raise ValueError(f"unknown device variant: {variant!r}")


@dataclass(frozen=True)
class DevicePose:
    """Position and orientation of the user device.

    Attributes:
        position: reference point in the world frame, m.
        omega_deg: facing direction, degrees from East.
        angles_deg: (alpha, beta, gamma) rotation angles, degrees.
    """

    position: np.ndarray
    omega_deg: float
    angles_deg: tuple = (0.0, 0.0, 0.0)

    def rotation(self):
        return rotation_matrix(*self.angles_deg)


def element_world_pose(pose, layout):
    """World positions and normals of all device elements.

    Positions are pose.position + R p_local and normals R n_local for
    the pose's rotation R, preserving the rigid-body geometry. No
    clamping is applied; callers may check Room.contains on the result
    if elements leaving the room matter to them.

    Returns:
        (positions, normals) arrays of shape (n_elements, 3).
    """
    rot = pose.rotation()
    positions = np.asarray(pose.position, dtype=float) + layout.local_positions @ rot.T
    normals = layout.local_normals @ rot.T
    return positions, normals
